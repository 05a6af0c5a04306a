"""KRISP assembly: the command-processor allocator and a system facade.

:class:`KrispAllocator` is the hardware half — installed into the GPU
command processor, it turns each kernel's injected partition size into a
CU mask by running Algorithm 1 against the live per-CU kernel counters
(paper Fig. 10b).

:class:`KrispSystem` is a convenience facade wiring a complete
KRISP-enabled stack over a device: performance database, right-sizer,
allocator, HSA runtime, and stream construction in either *native* mode
(the proposed hardware) or *emulated* mode (the paper's evaluation
vehicle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.allocation import DistributionPolicy, ResourceMaskGenerator
from repro.core.perfdb import PerfDatabase
from repro.core.rightsizing import KernelRightSizer
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelLaunch
from repro.runtime.emulation import EmulatedKernelScopedStream, EmulationConfig
from repro.runtime.hsa import HsaRuntime
from repro.runtime.stream import Stream
from repro.sim.engine import Simulator

__all__ = ["KrispAllocator", "KrispConfig", "KrispSystem"]


@dataclass(frozen=True)
class KrispConfig:
    """Policy knobs for a KRISP deployment.

    ``overlap_limit=None`` permits unlimited CU oversubscription (the
    paper's *KRISP-O*); ``overlap_limit=0`` enforces isolation
    (*KRISP-I*); intermediate values reproduce the Fig. 16 sensitivity
    sweep.
    """

    distribution: DistributionPolicy = DistributionPolicy.CONSERVED
    overlap_limit: Optional[int] = None
    margin_cus: int = 0
    #: Regenerate shrunk allocations into balanced shapes (see
    #: :class:`repro.core.allocation.ResourceMaskGenerator`).
    reshape: bool = True
    #: Mask-allocation policy: ``"krisp"`` (per-kernel Algorithm 1),
    #: ``"pooled"``, or ``"pooled-contention"`` (see
    #: :mod:`repro.core.pools`).
    allocation: str = "krisp"
    #: Right-sizing policy: ``"static"`` or ``"predictive"``.
    sizing: str = "static"

    def __post_init__(self) -> None:
        from repro.core.pools import ALLOCATION_POLICIES, SIZING_POLICIES
        if self.allocation not in ALLOCATION_POLICIES:
            raise ValueError(
                f"unknown allocation {self.allocation!r}; "
                f"available: {list(ALLOCATION_POLICIES)}")
        if self.sizing not in SIZING_POLICIES:
            raise ValueError(
                f"unknown sizing {self.sizing!r}; "
                f"available: {list(SIZING_POLICIES)}")


class KrispAllocator:
    """The packet-processor extension: partition size -> CU mask."""

    def __init__(self, generator: ResourceMaskGenerator) -> None:
        self.generator = generator
        self.allocations = 0
        self.short_allocations = 0
        #: Launches served through the degraded fallback mask because
        #: Algorithm 1 raised instead of producing a mask.
        self.degraded = 0

    def allocate(self, launch: KernelLaunch, device: GpuDevice) -> CUMask:
        """Generate this kernel's resource mask from the live counters.

        A launch without sizing information receives the full device —
        the safe default for unprofiled kernels.  If mask generation
        itself fails, the kernel is served on the full device instead of
        killing the serving path (graceful degradation; counted in
        ``degraded`` and visible as a ``mask-fallback`` trace instant).
        """
        requested = launch.requested_cus
        if requested is None:
            requested = device.topology.total_cus
        try:
            mask = self.generator.generate(requested, device.counters)
        except Exception:
            self.degraded += 1
            mask = CUMask.all_cus(device.topology)
            tracer = device.sim.tracer
            if tracer.enabled:
                tracer.fault_injected("mask-fallback", {
                    "kernel": launch.descriptor.name,
                    "requested_cus": requested,
                })
        self.allocations += 1
        if mask.count() < min(requested, device.topology.total_cus):
            self.short_allocations += 1
        return mask


class KrispSystem:
    """A fully wired KRISP stack over one simulated device."""

    def __init__(
        self,
        sim: Simulator,
        device: GpuDevice,
        database: PerfDatabase,
        config: Optional[KrispConfig] = None,
        emulation: Optional[EmulationConfig] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.database = database
        self.config = config or KrispConfig()
        self.emulation_config = emulation or EmulationConfig()
        generator = ResourceMaskGenerator(
            device.topology,
            policy=self.config.distribution,
            overlap_limit=self.config.overlap_limit,
            reshape=self.config.reshape,
        )
        if self.config.allocation == "krisp":
            self.allocator = KrispAllocator(generator)
        else:
            from repro.core.pools import PooledMaskAllocator
            self.allocator = PooledMaskAllocator(
                generator,
                contention=self.config.allocation == "pooled-contention",
            )
        self.rightsizer = self._wrap_sizer(KernelRightSizer(
            database, device.topology, margin_cus=self.config.margin_cus
        ))
        self.runtime = HsaRuntime(sim, device, allocator=self.allocator)

    def _wrap_sizer(self, sizer: KernelRightSizer):
        """Layer the configured sizing policy over a static oracle."""
        if self.config.sizing == "predictive":
            from repro.core.pools import PredictiveRightSizer
            return PredictiveRightSizer(sizer, self.device)
        return sizer

    def create_stream(
        self,
        name: str = "",
        emulated: bool = False,
        fallback_cus: Optional[int] = None,
    ) -> Union[Stream, EmulatedKernelScopedStream]:
        """Create a KRISP-enabled stream.

        ``emulated=False`` (default) models the proposed hardware: the
        stream tags launches with partition sizes and the extended packet
        processor generates masks in firmware.  ``emulated=True`` models
        the paper's evaluation platform: barrier packets plus IOCTL mask
        reconfiguration around every kernel.

        ``fallback_cus`` gives the stream its own right-sizer whose
        missing-entry answer is that partition size (typically the
        stream's model-wise right-size) instead of the full device —
        graceful degradation under a partial perf-DB.
        """
        sizer = self.rightsizer
        if fallback_cus is not None:
            sizer = self._wrap_sizer(KernelRightSizer(
                self.database,
                self.device.topology,
                margin_cus=self.config.margin_cus,
                fallback_cus=fallback_cus,
            ))
        if emulated:
            return EmulatedKernelScopedStream(
                self.runtime,
                allocator=self.allocator,
                sizer=sizer,
                config=self.emulation_config,
                name=name,
            )
        return Stream(self.runtime, name=name, rightsizer=sizer)
