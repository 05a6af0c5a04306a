"""Unit tests for the command processor's packet semantics."""

import gc

import pytest

from repro.core.allocation import ResourceMaskGenerator
from repro.core.krisp import KrispAllocator
from repro.gpu.aql import BarrierAndPacket, KernelDispatchPacket
from repro.gpu.command_processor import CommandProcessor, CommandProcessorConfig
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice, KernelRecord
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.queue import HsaQueue
from repro.gpu.topology import GpuTopology
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.sim.engine import Simulator
from repro.sim.process import Process, Signal

TOPO = GpuTopology.mi50()
CFG = ExecutionModelConfig(launch_overhead=0.0, intra_cu_alpha=1.0)


def make_cp(allocator=None, config=None):
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    cp = CommandProcessor(sim, device, config=config, allocator=allocator)
    queue = HsaQueue(TOPO, name="q")
    cp.register_queue(queue)
    return sim, device, cp, queue


def kernel_packet(name="k", workgroups=60, barrier=True, requested=None,
                  signal=None):
    launch = KernelLaunch(
        KernelDescriptor(name=name, workgroups=workgroups,
                         wg_duration=1e-4, occupancy=1, mem_intensity=0.0),
        requested_cus=requested,
    )
    return KernelDispatchPacket(launch=launch, barrier=barrier,
                                completion_signal=signal)


def test_barrier_bit_serializes_kernels():
    sim, device, cp, queue = make_cp()
    max_running = []
    orig_launch = device.launch

    def spy(launch, mask, *args, **kwargs):
        record = orig_launch(launch, mask, *args, **kwargs)
        max_running.append(device.running_count())
        return record

    device.launch = spy
    for i in range(3):
        queue.submit(kernel_packet(f"k{i}", barrier=True))
    sim.run()
    assert device.kernels_completed == 3
    assert max(max_running) == 1


def test_no_barrier_bit_allows_same_queue_overlap():
    sim, device, cp, queue = make_cp()
    max_running = []
    orig_launch = device.launch

    def spy(launch, mask, *args, **kwargs):
        record = orig_launch(launch, mask, *args, **kwargs)
        max_running.append(device.running_count())
        return record

    device.launch = spy
    for i in range(3):
        queue.submit(kernel_packet(f"k{i}", barrier=False))
    sim.run()
    assert max(max_running) == 3


def test_barrier_and_packet_waits_for_deps():
    sim, device, cp, queue = make_cp()
    gate = Signal(sim, "gate")
    consumed = []
    done = Signal(sim, "done")
    queue.submit(BarrierAndPacket(
        dep_signals=[gate],
        on_consumed=lambda: consumed.append(sim.now),
        completion_signal=done,
    ))
    queue.submit(kernel_packet("after"))
    sim.schedule(1.0, lambda: gate.fire(None))
    sim.run()
    assert consumed and consumed[0] >= 1.0
    assert done.fired
    assert device.kernels_completed == 1


def test_barrier_with_fired_deps_passes_through():
    sim, device, cp, queue = make_cp()
    gate = Signal(sim, "gate")
    gate.fire(None)
    done = Signal(sim, "done")
    queue.submit(BarrierAndPacket(dep_signals=[gate],
                                  completion_signal=done))
    sim.run()
    assert done.fired


def test_kernel_scoped_allocation_uses_requested_size():
    allocator = KrispAllocator(ResourceMaskGenerator(TOPO))
    sim, device, cp, queue = make_cp(allocator=allocator)
    masks = []
    orig_launch = device.launch
    device.launch = lambda l, m, *args, **kwargs: (
        masks.append(m.count()) or orig_launch(l, m, *args, **kwargs))
    queue.submit(kernel_packet("sized", workgroups=12, requested=12))
    queue.submit(kernel_packet("unsized", workgroups=12, requested=None))
    sim.run()
    assert masks == [12, 60]
    assert cp.masks_generated == 1
    assert allocator.allocations == 1


def test_mask_generation_latency_charged():
    allocator = KrispAllocator(ResourceMaskGenerator(TOPO))
    config = CommandProcessorConfig(packet_process_latency=0.0,
                                    mask_gen_latency=5e-6)
    sim, device, cp, queue = make_cp(allocator=allocator, config=config)
    starts = []
    orig_launch = device.launch
    device.launch = lambda l, m, *args, **kwargs: (
        starts.append(sim.now) or orig_launch(l, m, *args, **kwargs))
    queue.submit(kernel_packet("sized", requested=30))
    sim.run()
    assert starts[0] == pytest.approx(5e-6)


def test_multiple_queues_progress_independently():
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    cp = CommandProcessor(sim, device)
    q1, q2 = HsaQueue(TOPO, name="q1"), HsaQueue(TOPO, name="q2")
    cp.register_queue(q1)
    cp.register_queue(q2)
    q1.set_cu_mask(CUMask.first_n(TOPO, 30))
    q2.set_cu_mask(CUMask.from_cus(TOPO, range(30, 60)))
    max_running = []
    orig_launch = device.launch
    device.launch = lambda l, m, *args, **kwargs: (
        max_running.append(device.running_count())
        or orig_launch(l, m, *args, **kwargs))
    q1.submit(kernel_packet("a", workgroups=30))
    q2.submit(kernel_packet("b", workgroups=30))
    sim.run()
    assert device.kernels_completed == 2
    assert max(max_running) == 1  # spy records count *before* insert; 2nd sees 1


def test_topology_mismatch_rejected():
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    cp = CommandProcessor(sim, device)
    with pytest.raises(ValueError):
        cp.register_queue(HsaQueue(GpuTopology.mi100()))


def test_config_validation():
    with pytest.raises(ValueError):
        CommandProcessorConfig(packet_process_latency=-1.0)


# -- the two-event kernel chain ------------------------------------------


def sized_stream(record_trace=False):
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG, record_trace=record_trace)
    runtime = HsaRuntime(
        sim, device, allocator=KrispAllocator(ResourceMaskGenerator(TOPO)))
    stream = Stream(runtime, name="s", rightsizer=lambda desc: 12)
    return sim, device, stream


def descriptor(name="k"):
    return KernelDescriptor(name=name, workgroups=12, wg_duration=1e-4,
                            occupancy=1, mem_intensity=0.0)


def test_sized_kernels_on_a_native_stream_cost_two_events_each():
    sim, device, stream = sized_stream()
    n = 25

    def worker():
        for i in range(n):
            stream.launch_kernel(descriptor(f"k{i}"))
        yield stream.synchronize_signal()

    Process(sim, worker(), name="w")
    sim.run()
    assert device.kernels_completed == n
    # Per kernel: consume + mask generation + launch, then retirement.
    # Fixed: the worker's first resume and its wake-up on the last signal.
    assert sim.events_executed == 2 * n + 2


def test_stream_completion_signal_is_the_kernel_record_done():
    sim, device, stream = sized_stream(record_trace=True)
    # ``record.done`` is released after retirement, so read it from a
    # hook wrapped around the command processor's retire hook.
    retired_done = []
    launch = device.launch

    def spying_launch(kernel, mask, on_complete=None, done=None):
        def hook(record):
            retired_done.append(record.done)
            on_complete(record)
        return launch(kernel, mask, hook, done=done)

    device.launch = spying_launch
    signals = [stream.launch_kernel(descriptor(f"k{i}")) for i in range(3)]
    sim.run()
    assert len(device.trace) == len(retired_done) == len(signals)
    for signal, done, record in zip(signals, retired_done, device.trace):
        assert signal is done
        assert signal.fired and signal.value is record
        assert record.done is None


def test_a_run_keeps_no_retired_kernel():
    """Retired kernels are freed by reference counting alone: nothing
    cyclic pins them while ``run()`` pauses the collector."""
    def live_records():
        return [obj for obj in gc.get_objects()
                if type(obj) is KernelRecord]

    n = 200
    sim, device, stream = sized_stream()
    signals = []
    excess = []

    def worker():
        for i in range(n):
            signals[:] = [stream.launch_kernel(descriptor(f"k{i}"))]
        yield stream.synchronize_signal()

    def sampler():
        while device.kernels_completed < n:
            yield 25e-4
            # Beyond the residents, at most the record carried by the
            # newest fired completion signal may survive.
            excess.append(len(live_records()) - device.running_count() - 1)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        Process(sim, worker(), name="w")
        Process(sim, sampler(), name="sampler")
        sim.run()
        assert device.kernels_completed == n
        assert excess and max(excess) <= 0
        # Drained: the only record left is the one the caller's last
        # completion signal still carries.
        (last,) = signals
        assert live_records() == [last.value]
    finally:
        if was_enabled:
            gc.enable()


def test_launches_on_one_queue_share_one_retire_hook():
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG, record_trace=True)
    cp = CommandProcessor(sim, device)
    queue = HsaQueue(TOPO, name="q")
    cp.register_queue(queue)
    queue.submit(kernel_packet("a"))
    queue.submit(kernel_packet("b"))
    sim.run()
    first, second = device.trace
    # Bound once per queue: a per-launch closure would be kept alive by
    # the record/signal cycle while run() pauses the collector.
    assert first.on_complete is not None
    assert first.on_complete is second.on_complete


def test_launch_rejects_an_already_fired_done_signal():
    sim = Simulator()
    device = GpuDevice(sim, TOPO, exec_config=CFG)
    done = Signal(sim, "done")
    done.fire(None)
    with pytest.raises(ValueError, match="already fired"):
        device.launch(KernelLaunch(descriptor()), CUMask.first_n(TOPO, 12),
                      done=done)
    assert device.running_count() == 0
