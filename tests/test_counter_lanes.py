"""The packed Resource Monitor against a naive per-CU model.

:class:`CUKernelCounters` keeps every CU's kernel count in one 8-bit
lane of a single int.  Random assign/release programs must leave it in
exactly the state of a plain list of per-CU counts — every aggregate,
every high-water mark, and the same refusals naming the same CU — and
the device's contention test must fire exactly when some CU of a
kernel's mask holds two or more kernels.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator

MI50 = GpuTopology.mi50()
TOPOLOGIES = [
    MI50,
    dataclasses.replace(MI50, max_kernels_per_cu=3),
    GpuTopology(num_se=3, cus_per_se=7, max_kernels_per_cu=4,
                name="odd-3x7"),
    GpuTopology(num_se=1, cus_per_se=9, max_kernels_per_cu=2,
                name="one-se"),
]
IDS = ["mi50", "mi50-limit3", "odd-3x7", "one-se"]


class NaiveCounters:
    """One list entry per CU, walked CU by CU."""

    def __init__(self, topology):
        self.topology = topology
        self.counts = [0] * topology.total_cus
        self.peak_busy = 0

    def assign(self, cus):
        for cu in cus:
            if self.counts[cu] >= self.topology.max_kernels_per_cu:
                return OverflowError, cu
        for cu in cus:
            self.counts[cu] += 1
        self.peak_busy = max(self.peak_busy, self.busy())
        return None

    def release(self, cus):
        for cu in cus:
            if self.counts[cu] == 0:
                return ValueError, cu
        for cu in cus:
            self.counts[cu] -= 1
        return None

    def busy(self):
        return sum(1 for n in self.counts if n)

    def se_load(self, se):
        return sum(self.counts[cu] for cu in self.topology.cus_in_se(se))


def _masks(topology):
    return st.sets(st.integers(0, topology.total_cus - 1), min_size=1,
                   max_size=topology.total_cus).map(sorted)


def _assert_same_state(counters, naive):
    topo = naive.topology
    assert counters.snapshot() == bytes(naive.counts)
    assert [counters.count(cu) for cu in range(topo.total_cus)] \
        == naive.counts
    assert counters.busy_cus() == naive.busy()
    assert counters.total_assigned() == sum(naive.counts)
    assert [counters.se_load(se) for se in range(topo.num_se)] \
        == [naive.se_load(se) for se in range(topo.num_se)]
    assert counters.peak_busy_cus == naive.peak_busy
    assert counters.audit() == []


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_counters_match_naive_model(topo, data):
    counters = CUKernelCounters(topo)
    naive = NaiveCounters(topo)
    live: list[list[int]] = []
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        kind = data.draw(st.sampled_from(["assign", "release", "stray"]))
        if kind == "release" and live:
            cus = live.pop(data.draw(st.integers(0, len(live) - 1)))
        else:
            cus = data.draw(_masks(topo))
        mask = CUMask.from_cus(topo, cus)
        if kind == "assign":
            expected = naive.assign(cus)
            apply = counters.assign
        else:
            expected = naive.release(cus)
            apply = counters.release
        if expected is None:
            apply(mask)
            if kind == "assign":
                live.append(cus)
        else:
            error, cu = expected
            with pytest.raises(error, match=rf"^CU {cu} "):
                apply(mask)
        for probe in (mask, CUMask.all_cus(topo)):
            assert counters.shared(probe) == any(
                naive.counts[cu] >= 2 for cu in probe.cu_tuple)
            assert counters.busy_on(probe) == any(
                naive.counts[cu] >= 1 for cu in probe.cu_tuple)
        _assert_same_state(counters, naive)


class _ShareProbe:
    """Stands in for a record's ``se_shares``; notes whether the
    device's per-CU capacity loop read it."""

    def __init__(self, shares):
        self.shares = shares
        self.read = False

    def __iter__(self):
        self.read = True
        return iter(self.shares)


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contention_loop_runs_exactly_when_a_cu_is_shared(topo, data):
    device = GpuDevice(Simulator(), topo)
    kernel = KernelDescriptor(name="k", workgroups=4 * topo.total_cus,
                              wg_duration=1e-5)
    naive = NaiveCounters(topo)
    for _ in range(data.draw(st.integers(1, 8), label="launches")):
        cus = data.draw(_masks(topo))
        if naive.assign(cus) is None:
            device.launch(KernelLaunch(kernel), CUMask.from_cus(topo, cus))
    for record in device.residents():
        shares = record.se_shares
        probe = _ShareProbe(shares)
        record.se_shares = probe
        try:
            latency = device._effective_latency(record)
        finally:
            record.se_shares = shares
        assert probe.read == any(naive.counts[cu] >= 2
                                 for cu in record.mask.cu_tuple)
        assert latency == record.eff_latency
    assert device.audit_state() == []
