"""Tests for the barrier-packet emulation of kernel-scoped partitions."""

import pytest

from repro.core.allocation import ResourceMaskGenerator
from repro.core.krisp import KrispAllocator
from repro.gpu.device import GpuDevice
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology
from repro.runtime.emulation import (
    EmulatedKernelScopedStream,
    EmulationConfig,
    FullGpuAllocator,
    corrected_latency,
    emulation_overhead,
)
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.sim.engine import Simulator

TOPO = GpuTopology.mi50()
CFG = ExecutionModelConfig(launch_overhead=0.0, intra_cu_alpha=1.0)


def make_stack():
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    runtime = HsaRuntime(sim, device)
    return sim, device, runtime


def kernel(name="k", workgroups=60):
    return KernelDescriptor(name=name, workgroups=workgroups,
                            wg_duration=1e-4, occupancy=1, mem_intensity=0.0)


def run_trace(stream, sim, n=5):
    last = None
    for i in range(n):
        last = stream.launch_kernel(kernel(f"k{i}"))
    sim.run()
    assert last.fired
    return sim.now


def test_emulated_stream_executes_all_kernels():
    sim, device, runtime = make_stack()
    stream = EmulatedKernelScopedStream(
        runtime, allocator=FullGpuAllocator(), name="emu")
    run_trace(stream, sim, n=7)
    assert device.kernels_completed == 7
    assert stream.barriers_injected == 14


def test_emulation_adds_overhead_over_native():
    """The emulated bracket (barriers + callback + IOCTL) must cost time
    versus a plain stream — the L_over the paper subtracts."""
    sim_n, device_n, runtime_n = make_stack()
    native = run_trace(Stream(runtime_n, name="native"), sim_n)

    sim_e, device_e, runtime_e = make_stack()
    stream = EmulatedKernelScopedStream(
        runtime_e, allocator=FullGpuAllocator(), name="emu")
    emulated = run_trace(stream, sim_e)

    assert emulated > native
    overhead = emulation_overhead(emulated, native)
    # Overhead scales with the kernel count: per-kernel cost is roughly
    # callback + rightsizing + IOCTL + barrier processing.
    per_kernel = overhead / 5
    assert 15e-6 < per_kernel < 60e-6


def test_overhead_scales_with_kernel_count():
    def emu_latency(n):
        sim, device, runtime = make_stack()
        stream = EmulatedKernelScopedStream(
            runtime, allocator=FullGpuAllocator(), name="emu")
        return run_trace(stream, sim, n=n), n

    lat5, _ = emu_latency(5)
    lat10, _ = emu_latency(10)
    # Kernel time and bracket overhead both double.
    assert lat10 == pytest.approx(2 * lat5, rel=0.05)


def test_emulated_masks_are_applied_per_kernel():
    sim, device, runtime = make_stack()
    generator = ResourceMaskGenerator(TOPO)
    allocator = KrispAllocator(generator)
    sizes = iter([12, 30, 60])
    stream = EmulatedKernelScopedStream(
        runtime, allocator=allocator,
        rightsizer=lambda desc: next(sizes), name="emu")
    masks = []
    device_launch = device.launch

    def spy(launch, mask, *args, **kwargs):
        masks.append(mask.count())
        return device_launch(launch, mask, *args, **kwargs)

    device.launch = spy
    for i in range(3):
        stream.launch_kernel(kernel(f"k{i}", workgroups=12))
    sim.run()
    assert masks == [12, 30, 60]


def test_corrected_latency_formula():
    assert corrected_latency(10.0, 3.0) == 7.0
    assert corrected_latency(2.0, 3.0) == 0.0  # clamped
    with pytest.raises(ValueError):
        corrected_latency(10.0, -1.0)


def test_emulation_overhead_rejects_negative():
    with pytest.raises(ValueError):
        emulation_overhead(1.0, 2.0)


def test_emulation_config_validation():
    with pytest.raises(ValueError):
        EmulationConfig(callback_overhead=-1e-6)


def test_synchronize_signal_on_emulated_stream():
    sim, device, runtime = make_stack()
    stream = EmulatedKernelScopedStream(
        runtime, allocator=FullGpuAllocator(), name="emu")
    empty = stream.synchronize_signal()
    fired = []
    empty.on_fire(lambda v: fired.append(True))
    sim.run()
    assert fired == [True]
