"""Property-based tests for device execution invariants.

Random workloads (kernel shapes, masks, launch times) must preserve the
core conservation laws of the rate-sharing execution model: every kernel
completes, never faster than its isolated latency and never slower than
the fully-time-sliced bound; counters drain to zero; energy is positive
and bounded by peak power times elapsed time; and every launch and
retirement revalidates exactly the residents a per-CU rescan finds.
"""

import dataclasses
import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.exec_model import ExecutionModelConfig, isolated_latency
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator

TOPO = GpuTopology.mi50()
CFG = ExecutionModelConfig(launch_overhead=0.0)

kernel_strategy = st.builds(
    KernelDescriptor,
    name=st.just("k"),
    workgroups=st.integers(min_value=1, max_value=2000),
    threads_per_wg=st.just(256),
    wg_duration=st.floats(min_value=1e-6, max_value=1e-3),
    occupancy=st.integers(min_value=1, max_value=8),
    mem_intensity=st.floats(min_value=0.0, max_value=1.0),
    flat_time=st.floats(min_value=0.0, max_value=1e-3),
)

mask_strategy = st.sets(
    st.integers(min_value=0, max_value=59), min_size=1
).map(lambda cus: CUMask.from_cus(TOPO, cus))

workload_strategy = st.lists(
    st.tuples(kernel_strategy, mask_strategy,
              st.floats(min_value=0.0, max_value=1e-3)),
    min_size=1, max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(workload_strategy)
def test_all_kernels_complete_and_counters_drain(workload):
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    for desc, mask, delay in workload:
        sim.schedule(delay, lambda d=desc, m=mask: device.launch(
            KernelLaunch(d), m))
    sim.run()
    assert device.kernels_completed == len(workload)
    assert not device.busy()
    assert device.counters.total_assigned() == 0
    assert device.counters.busy_cus() == 0


@settings(max_examples=40, deadline=None)
@given(workload_strategy)
def test_latency_bounds(workload):
    """Each kernel finishes no earlier than its isolated latency and no
    later than serialising everything that overlaps it."""
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    records: dict[int, object] = {}
    for index, (desc, mask, delay) in enumerate(workload):
        sim.schedule(delay, lambda i=index, d=desc, m=mask: records.__setitem__(
            i, device.launch(KernelLaunch(d), m)))
    sim.run()
    total_work = sum(isolated_latency(d, m, CFG) for d, m, _t in workload)
    for index, (desc, mask, _delay) in enumerate(workload):
        record = records[index]
        elapsed = record.end_time - record.start_time
        floor = isolated_latency(desc, mask, CFG)
        assert elapsed >= floor * (1 - 1e-9)
        # Gross upper bound: even full serialisation with worst-case
        # intra-CU interference cannot exceed total work times the
        # interference factor at max co-residency.
        ceiling = total_work * len(workload) ** CFG.intra_cu_alpha + 1e-9
        assert elapsed <= ceiling


@settings(max_examples=30, deadline=None)
@given(workload_strategy)
def test_energy_bounded_by_peak_power(workload):
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    for desc, mask, delay in workload:
        sim.schedule(delay, lambda d=desc, m=mask: device.launch(
            KernelLaunch(d), m))
    sim.run()
    device.finalize()
    elapsed = sim.now
    energy = device.meter.energy_joules
    peak = device.power_model.peak_power(TOPO)
    idle = device.power_model.idle_power(TOPO)
    assert energy >= idle * elapsed * (1 - 1e-9)
    assert energy <= peak * elapsed * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(kernel_strategy, mask_strategy)
def test_single_kernel_matches_analytic_model(desc, mask):
    """The device's fast path must agree with the exec_model formulas."""
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    record = device.launch(KernelLaunch(desc), mask)
    sim.run()
    expected = isolated_latency(desc, mask, CFG)
    assert math.isclose(record.end_time - record.start_time, expected,
                        rel_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(kernel_strategy, min_size=2, max_size=4))
def test_identical_kernels_finish_together(descs):
    """Same kernel, same mask, same start: completions coincide."""
    desc = descs[0]
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    mask = CUMask.all_cus(TOPO)
    records = [device.launch(KernelLaunch(desc), mask) for _ in descs]
    sim.run()
    ends = {round(r.end_time, 12) for r in records}
    assert len(ends) == 1


DIRTY_TOPOLOGIES = [
    TOPO,
    dataclasses.replace(TOPO, max_kernels_per_cu=3),
    GpuTopology(num_se=3, cus_per_se=7, max_kernels_per_cu=4,
                name="odd-3x7"),
]


class _DirtyProbe(GpuDevice):
    """Compares every dirty set with a per-CU rescan of the residents."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.compared = 0

    def _dirty_after_mask_change(self, record, old_total):
        dirty = super()._dirty_after_mask_change(record, old_total)
        running = self._running
        expected = set()
        for cu in record.mask.cu_tuple:
            expected |= {seq for seq, other in running.items()
                         if other.mask.has(cu)}
        fault = self._fault_demand
        if self._regime_crossed(old_total + fault,
                                self._total_demand + fault):
            expected |= {seq for seq, other in running.items()
                         if other.demand > 0.0}
        assert dirty == expected, (record.seq_no, sorted(dirty),
                                   sorted(expected))
        self.compared += 1
        return dirty


def _dirty_masks(topology, layout):
    """Masks that overlap freely, or slices of a fixed disjoint split
    (kernels sharing a slice still overlap one another)."""
    total = topology.total_cus
    if layout == "overlapping":
        return st.sets(st.integers(0, total - 1), min_size=1,
                       max_size=total)
    width = max(1, total // 4)
    return st.integers(0, total // width - 1).map(
        lambda i: set(range(i * width, (i + 1) * width)))


@pytest.mark.parametrize("topology", DIRTY_TOPOLOGIES,
                         ids=["mi50", "mi50-limit3", "odd-3x7"])
@pytest.mark.parametrize("layout", ["overlapping", "disjoint"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gated_dirty_set_equals_per_cu_rescan(topology, layout, data):
    program = data.draw(st.lists(
        st.tuples(kernel_strategy, _dirty_masks(topology, layout),
                  st.floats(min_value=0.0, max_value=1e-3)),
        min_size=1, max_size=10))
    sim = Simulator()
    device = _DirtyProbe(sim, topology, exec_config=CFG)

    def launch(desc, cus):
        try:
            device.launch(KernelLaunch(desc),
                          CUMask.from_cus(topology, cus))
        except OverflowError:
            pass  # a CU at its counter limit refuses the kernel

    for desc, cus, delay in program:
        sim.schedule(delay, lambda d=desc, c=cus: launch(d, c))
    sim.run()
    assert not device.busy()
    # One comparison per launch and one per retirement.
    assert device.compared == 2 * device.kernels_completed
