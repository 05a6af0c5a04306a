"""Barrier-packet emulation of kernel-scoped partition instances.

This is the paper's evaluation vehicle (Section V, Fig. 11): stock
hardware only offers *stream-scoped* CU masks, so each kernel launch ``K``
is bracketed by two barrier packets:

1. ``B1`` depends on the previous kernel's completion signal — no kernel
   may still be running when the queue's mask changes.  When the hardware
   consumes ``B1`` it triggers a *runtime callback* that performs
   kernel-wise right-sizing, runs the resource-allocation algorithm, and
   reconfigures the queue's CU mask through the (serialised) IOCTL path.
2. ``B2`` depends on a signal fired when the IOCTL retires, closing the
   race between mask reconfiguration and the kernel's execution.

The bracketing costs real time — the red components of paper Fig. 12 —
which the paper subtracts out analytically:

    L_over            = L_emu(baseline) - L_real(baseline)
    L_real(KRISP)     = L_emu(KRISP)    - L_over

Helpers for that correction live in :func:`corrected_latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gpu.aql import BarrierAndPacket, KernelDispatchPacket
from repro.gpu.command_processor import KernelScopedAllocator
from repro.gpu.cu_mask import CUMask
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import RightSizer
from repro.sim.process import Signal

__all__ = [
    "EmulationConfig",
    "EmulatedKernelScopedStream",
    "FullGpuAllocator",
    "corrected_latency",
    "emulation_overhead",
]


@dataclass(frozen=True)
class EmulationConfig:
    """Timing constants of the emulation bracket.

    ``callback_overhead`` is the HSA-runtime cost of dispatching the
    barrier-consumed callback; ``rightsizing_latency`` is the software cost
    of the right-sizing lookup plus the allocation algorithm (the paper
    profiled a ~1 microsecond tail for mask generation in software).  The
    IOCTL itself is charged by :class:`repro.runtime.ioctl.IoctlModel`.
    """

    callback_overhead: float = 5e-6
    rightsizing_latency: float = 1e-6

    def __post_init__(self) -> None:
        if self.callback_overhead < 0 or self.rightsizing_latency < 0:
            raise ValueError("latencies must be >= 0")


class FullGpuAllocator:
    """Trivial allocator mapping every kernel to the full device.

    Used to measure the pure emulation overhead: the paper's
    ``L_emu(baseline)`` is the emulated bracket with the resource mask set
    to all active CUs.
    """

    def allocate(self, launch: KernelLaunch, device) -> CUMask:
        """Return the all-CUs mask regardless of the request."""
        return CUMask.all_cus(device.topology)


class EmulatedKernelScopedStream:
    """A stream that emulates per-kernel masks with barrier packets.

    Drop-in replacement for :class:`repro.runtime.stream.Stream` from the
    worker's point of view (same ``launch_kernel`` /
    ``synchronize_signal`` interface and ``rightsizer`` hook).
    """

    def __init__(
        self,
        runtime: HsaRuntime,
        allocator: KernelScopedAllocator,
        rightsizer: Optional[RightSizer] = None,
        config: Optional[EmulationConfig] = None,
        name: str = "",
        record_masks: bool = False,
    ) -> None:
        """``record_masks=True`` appends every mask actually applied to
        the queue (at IOCTL retirement, in application order) to
        :attr:`masks_applied` — the audit subsystem's evidence that each
        kernel ran strictly inside its queue's mask.  Off by default:
        long serving runs would otherwise accumulate one entry per
        launch."""
        self.runtime = runtime
        self.allocator = allocator
        self.rightsizer = rightsizer
        self.config = config or EmulationConfig()
        self.name = name or "emu-stream"
        self.queue = runtime.create_queue(name=f"{self.name}.queue")
        self.kernels_launched = 0
        self.barriers_injected = 0
        self.record_masks = record_masks
        self.masks_applied: list[CUMask] = []
        self._last_completion: Optional[Signal] = None

    def launch_kernel(
        self, descriptor: KernelDescriptor, tag: str = ""
    ) -> Signal:
        """Launch a kernel under an emulated kernel-scoped partition."""
        requested = (self.rightsizer(descriptor) if self.rightsizer
                     else None)
        launch = KernelLaunch(
            descriptor=descriptor, requested_cus=requested,
            tag=tag or self.name,
        )
        mask_set = self.runtime.create_signal(
            name=f"{self.name}.maskset{self.kernels_launched}"
        )

        def on_b1_consumed() -> None:
            # The runtime callback: right-size, allocate, reconfigure the
            # queue mask through the IOCTL, then release B2.
            def reconfigure() -> None:
                mask = self.allocator.allocate(launch, self.runtime.device)
                tracer = self.runtime.sim.tracer
                if tracer.enabled:
                    tracer.mask_decision(launch, mask, self.runtime.device)
                def applied() -> None:
                    if self.record_masks:
                        self.masks_applied.append(mask)
                    mask_set.fire(mask)

                self.runtime.set_queue_cu_mask(
                    self.queue, mask, on_done=applied
                )

            delay = (self.config.callback_overhead
                     + self.config.rightsizing_latency)
            self.runtime.sim.schedule_in(delay, reconfigure)

        deps = []
        if self._last_completion is not None:
            deps.append(self._last_completion)
        b1 = BarrierAndPacket(dep_signals=deps, on_consumed=on_b1_consumed)
        b2 = BarrierAndPacket(dep_signals=[mask_set])
        completion = self.runtime.create_signal(
            name=f"{self.name}.k{self.kernels_launched}"
        )
        kernel_packet = KernelDispatchPacket(
            launch=launch, barrier=False, completion_signal=completion
        )
        tracer = self.runtime.sim.tracer
        if tracer.enabled:
            tracer.barrier_injected(self.name, "B1", descriptor.name)
            tracer.barrier_injected(self.name, "B2", descriptor.name)
        self.queue.submit(b1)
        self.queue.submit(b2)
        self.queue.submit(kernel_packet)
        self.barriers_injected += 2
        self.kernels_launched += 1
        self._last_completion = completion
        return completion

    def synchronize_signal(self) -> Signal:
        """Signal firing when all launched work has completed."""
        if self._last_completion is not None:
            return self._last_completion
        signal = self.runtime.create_signal(name=f"{self.name}.empty")
        signal.fire(None)
        return signal


def emulation_overhead(l_emu_base: float, l_real_base: float) -> float:
    """``L_over = L_emu(baseline) - L_real(baseline)`` (paper Section V-B)."""
    overhead = l_emu_base - l_real_base
    if overhead < 0:
        raise ValueError(
            f"emulated baseline ({l_emu_base}) faster than real baseline "
            f"({l_real_base}); overhead would be negative"
        )
    return overhead


def corrected_latency(l_emu_krisp: float, l_over: float) -> float:
    """``L_real(KRISP) = L_emu(KRISP) - L_over`` (paper Section V-B)."""
    if l_over < 0:
        raise ValueError("overhead must be >= 0")
    return max(0.0, l_emu_krisp - l_over)
