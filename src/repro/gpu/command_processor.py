"""GPU command processor (packet processor + dispatcher front end).

The command processor drains AQL packets from every registered HSA queue
in order.  For kernel-dispatch packets it decides the kernel's CU mask:

* **Baseline** — the kernel inherits its queue's stream-scoped CU mask
  (AMD CU-masking API semantics, paper Fig. 10a).
* **Kernel-scoped partition instances (KRISP)** — when a packet carries a
  partition size (``launch.requested_cus``) and a kernel-scoped allocator
  is installed, the packet processor runs resource-mask generation
  (Algorithm 1) against the live per-CU kernel counters, paying a small
  firmware latency (the paper measured a 1 microsecond tail), and tags the
  kernel with the generated mask (paper Fig. 10b).

Packets with the AQL barrier bit wait for the previous packet in their
queue to complete before being consumed — this is how HIP streams
serialise kernels.  Barrier-AND packets wait on their dependency signals
and may invoke a runtime callback when consumed, which is the hook the
emulation methodology (Section V) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Protocol

from repro.gpu.aql import AqlPacket, BarrierAndPacket, KernelDispatchPacket
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice, KernelRecord
from repro.gpu.kernel import KernelLaunch
from repro.gpu.queue import HsaQueue
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["CommandProcessor", "CommandProcessorConfig", "KernelScopedAllocator"]


class KernelScopedAllocator(Protocol):
    """Interface the packet processor calls to right-size a kernel.

    Implemented by :class:`repro.core.krisp.KrispAllocator`; kept as a
    protocol so the GPU substrate does not depend on the KRISP core.
    """

    def allocate(self, launch: KernelLaunch, device: GpuDevice) -> CUMask:
        """Return the CU mask to enforce for this kernel."""
        ...


@dataclass(frozen=True)
class CommandProcessorConfig:
    """Firmware timing constants.

    ``packet_process_latency`` is the cost of consuming any AQL packet;
    ``mask_gen_latency`` is the extra firmware cost of running KRISP's
    resource-mask generation (the paper profiled a ~1 microsecond tail).
    """

    packet_process_latency: float = 0.5e-6
    mask_gen_latency: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.packet_process_latency < 0 or self.mask_gen_latency < 0:
            raise ValueError("latencies must be >= 0")


class _QueueState:
    """Per-queue in-order processing state."""

    __slots__ = ("queue", "consuming", "waiting", "last_completion",
                 "on_retire")

    def __init__(self, queue: HsaQueue) -> None:
        self.queue = queue
        self.consuming = False
        #: Blocked on ``last_completion`` by a barrier-bit packet; the
        #: queue's retire hook resumes it.
        self.waiting = False
        self.last_completion: Optional[Signal] = None
        #: The device ``on_complete`` hook of every kernel this queue
        #: launches, bound once here rather than once per launch.
        self.on_retire: Optional[Callable[[KernelRecord], None]] = None


class CommandProcessor:
    """Drains registered HSA queues into the device.

    A sized kernel (allocator installed, ``requested_cus`` set) costs two
    engine events: one when the packet processor has consumed the packet
    and generated its mask, which launches it on the device, and one when
    it retires.  Retirement fires the packet's completion signal directly
    and, if the queue is blocked behind that kernel, resumes the queue
    from the device's ``on_complete`` hook.
    """

    def __init__(
        self,
        sim: Simulator,
        device: GpuDevice,
        config: Optional[CommandProcessorConfig] = None,
        allocator: Optional[KernelScopedAllocator] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.config = config or CommandProcessorConfig()
        self.allocator = allocator
        self._states: dict[int, _QueueState] = {}
        self.packets_consumed = 0
        self.masks_generated = 0

    def register_queue(self, queue: HsaQueue) -> None:
        """Attach a queue; its doorbell now drives packet processing."""
        if queue.queue_id in self._states:
            raise ValueError(f"queue {queue.name} already registered")
        if queue.topology != self.device.topology:
            raise ValueError("queue topology does not match device")
        state = _QueueState(queue)
        state.on_retire = partial(self._kernel_retired, state)
        self._states[queue.queue_id] = state
        queue.attach_doorbell(lambda _q, s=state: self._drive(s))

    # -- per-queue state machine --------------------------------------------
    def _drive(self, state: _QueueState) -> None:
        if state.consuming:
            return
        packet = state.queue.peek()
        if packet is None:
            return
        if self._must_wait_for_previous(state, packet):
            state.consuming = True
            state.waiting = True
            return
        self._consume(state)

    def _kernel_retired(self, state: _QueueState,
                        record: KernelRecord) -> None:
        """Device ``on_complete`` hook: resume a queue blocked on ``record``.

        The device fires ``record.done`` before calling this, so the
        barrier check in :meth:`_drive` sees it fired.
        """
        if state.waiting and record.done is state.last_completion:
            state.waiting = False
            state.consuming = False
            self._drive(state)

    def _must_wait_for_previous(
        self, state: _QueueState, packet: AqlPacket
    ) -> bool:
        if state.last_completion is None or state.last_completion.fired:
            return False
        return isinstance(packet, KernelDispatchPacket) and packet.barrier

    def _consume(self, state: _QueueState) -> None:
        packet = state.queue.pop()
        assert packet is not None
        state.consuming = True
        config = self.config
        if (self.allocator is not None
                and isinstance(packet, KernelDispatchPacket)
                and packet.launch.requested_cus is not None):
            # Packet processing and mask generation are one firmware
            # step, so one event; its time is the exact float of charging
            # the two latencies one after the other.
            self.sim.schedule(
                (self.sim.now + config.packet_process_latency)
                + config.mask_gen_latency,
                lambda: self._process_sized_kernel(state, packet))
        else:
            self.sim.schedule_in(
                config.packet_process_latency,
                lambda: self._process(state, packet),
            )

    def _process(self, state: _QueueState, packet: AqlPacket) -> None:
        self.packets_consumed += 1
        if isinstance(packet, KernelDispatchPacket):
            self._launch(state, packet, state.queue.cu_mask)
        elif isinstance(packet, BarrierAndPacket):
            self._process_barrier(state, packet)
        else:
            raise TypeError(f"unknown packet type {type(packet).__name__}")

    def _process_sized_kernel(
        self, state: _QueueState, packet: KernelDispatchPacket
    ) -> None:
        """Consume a sized dispatch packet: generate its mask, launch."""
        self.packets_consumed += 1
        launch = packet.launch
        assert self.allocator is not None
        mask = self.allocator.allocate(launch, self.device)
        self.masks_generated += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.mask_decision(launch, mask, self.device)
        self._launch(state, packet, mask)

    def _launch(self, state: _QueueState, packet: KernelDispatchPacket,
                mask: CUMask) -> None:
        record = self.device.launch(packet.launch, mask, state.on_retire,
                                    done=packet.completion_signal)
        state.last_completion = record.done
        state.consuming = False
        self._drive(state)

    def _process_barrier(
        self, state: _QueueState, packet: BarrierAndPacket
    ) -> None:
        pending = [s for s in packet.dep_signals if not s.fired]

        def finish() -> None:
            if packet.on_consumed is not None:
                packet.on_consumed()
            if packet.completion_signal is not None:
                packet.completion_signal.fire(None)
            state.last_completion = packet.completion_signal
            state.consuming = False
            self._drive(state)

        if not pending:
            finish()
            return
        remaining = len(pending)

        def one_fired(_value: object) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                finish()

        for signal in pending:
            signal.on_fire(one_fired)
