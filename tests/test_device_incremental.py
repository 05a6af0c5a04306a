"""Incremental vs full rate recomputation: bit-identity property tests.

The incremental dirty-set path must produce the exact float sequence of
the full O(all-residents) sweep.  These tests replay identical random
launch / retire / fault / time-advance programs against two independent
universes — one device per recompute mode — and require exact equality
of every resident's ``eff_latency``/``progress`` and of all completion
times, plus the device's own :meth:`GpuDevice.check_rate_invariant`
(fresh recompute == cached rate) after every step.
"""

import math

import pytest

from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

STEPS = 200
MAX_LIVE = 40

DESCRIPTORS = (
    KernelDescriptor("conv_a", workgroups=96, mem_intensity=0.0),
    KernelDescriptor("conv_b", workgroups=48, mem_intensity=0.3,
                     flat_time=2e-6),
    KernelDescriptor("gemm", workgroups=240, mem_intensity=0.5),
    KernelDescriptor("stream", workgroups=24, mem_intensity=0.9,
                     flat_time=1e-6),
    KernelDescriptor("tiny", workgroups=4, mem_intensity=0.2),
)


def _drive(full_recompute: bool, seed: int):
    """Run one random program; return (step snapshots, completions)."""
    sim = Simulator()
    device = GpuDevice(sim, full_recompute=full_recompute)
    topology = device.topology
    rng = RngRegistry(seed=seed).stream("test/incremental")
    completions: list[tuple[str, float]] = []
    live = [0]

    def on_complete(record):
        live[0] -= 1
        completions.append((record.launch.descriptor.name, sim.now))

    snapshots = []
    for _ in range(STEPS):
        action = float(rng.random())
        # Draw every parameter unconditionally so both universes consume
        # the stream identically regardless of which branch runs.
        desc = DESCRIPTORS[int(rng.integers(len(DESCRIPTORS)))]
        width = int(rng.integers(1, 9))
        cus = sorted(int(c) for c in rng.choice(
            topology.total_cus, size=width, replace=False))
        dt = float(rng.uniform(1e-6, 400e-6))
        scale = (1.0, 2.0, 3.5)[int(rng.integers(3))]
        tagged = bool(rng.integers(2))
        bw = float(rng.uniform(-1.5, 1.5))

        if action < 0.45 and live[0] < MAX_LIVE:
            device.launch(
                KernelLaunch(descriptor=desc, tag="w0" if tagged else "w1"),
                CUMask.from_cus(topology, cus),
                on_complete=on_complete)
            live[0] += 1
        elif action < 0.80:
            sim.run(until=sim.now + dt)
        elif action < 0.90:
            device.set_fault_latency_scale(
                scale, tag="w0" if tagged else None)
        else:
            device.add_fault_bandwidth_demand(bw)

        # The incremental path's contract, checked at every step: every
        # skipped (non-dirty) record already holds the exact rate a
        # fresh recompute assigns.
        device.check_rate_invariant()
        snapshots.append(tuple(
            (r.launch.descriptor.name, r.seq_no, r.eff_latency, r.progress)
            for r in sorted(device._running.values(),
                            key=lambda rec: rec.seq_no)))

    sim.run(until=sim.now + 1.0)  # drain remaining completions
    return snapshots, completions


def test_incremental_path_is_bit_identical_to_full_sweep():
    for seed in (7, 23):
        inc_snaps, inc_done = _drive(False, seed)
        full_snaps, full_done = _drive(True, seed)
        assert inc_snaps == full_snaps
        assert inc_done == full_done
        assert inc_done, "program never completed a kernel"
        for _name, when in inc_done:
            assert math.isfinite(when)


def test_env_flag_selects_full_mode(monkeypatch):
    sim = Simulator()
    monkeypatch.setenv("REPRO_FULL_RECOMPUTE", "1")
    assert GpuDevice(sim).full_recompute is True
    monkeypatch.setenv("REPRO_FULL_RECOMPUTE", "0")
    assert GpuDevice(sim).full_recompute is False
    monkeypatch.delenv("REPRO_FULL_RECOMPUTE")
    assert GpuDevice(sim).full_recompute is False
    for value, expected in (("", False), ("false", False), ("FALSE", False),
                            ("true", True), ("True", True)):
        monkeypatch.setenv("REPRO_FULL_RECOMPUTE", value)
        assert GpuDevice(sim).full_recompute is expected, value
    # Anything else fails loudly instead of silently picking the oracle.
    for value in ("no", "off", "yes", "2"):
        monkeypatch.setenv("REPRO_FULL_RECOMPUTE", value)
        with pytest.raises(ValueError, match="REPRO_FULL_RECOMPUTE"):
            GpuDevice(sim)
    # The explicit constructor argument wins over the environment.
    assert GpuDevice(sim, full_recompute=True).full_recompute is True
    monkeypatch.setenv("REPRO_FULL_RECOMPUTE", "1")
    assert GpuDevice(sim, full_recompute=False).full_recompute is False


def test_check_rate_invariant_detects_a_stale_rate():
    sim = Simulator()
    device = GpuDevice(sim)
    topology = device.topology
    device.launch(KernelLaunch(descriptor=DESCRIPTORS[0]),
                  CUMask.first_n(topology, 4))
    record = next(iter(device._running.values()))
    record.eff_latency *= 2.0
    try:
        device.check_rate_invariant()
    except AssertionError:
        pass
    else:
        raise AssertionError("stale cached rate went undetected")
