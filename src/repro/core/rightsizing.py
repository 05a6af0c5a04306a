"""Kernel-wise right-sizing (the runtime half of KRISP).

A :class:`KernelRightSizer` is installed as a stream's right-sizer hook:
it intercepts every kernel launch, looks the kernel up in the performance
database, and returns the partition size to inject into the AQL packet.
Unprofiled kernels fall back to the full device (never *shrinking* a
kernel blindly), optionally recording the miss so an offline profiling
pass can fill the gap — the paper amortises this at library install time.

:class:`PredictiveRightSizer` is the ``sizing="predictive"`` variant: it
adapts ``minCU`` online from the same signals
:class:`~repro.obs.sampler.SimSampler` exports (bandwidth pressure,
straggler fault scale), read directly off the device at decision time so
results never depend on whether metrics collection is enabled.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.perfdb import PerfDatabase
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology

__all__ = ["KernelRightSizer", "PredictiveRightSizer"]

#: Smallest grant the predictive sizer shrinks a kernel to.
PREDICTIVE_MIN_CUS = 4
#: Memory intensity at or above which the predictive sizer may shrink.
PREDICTIVE_INTENSITY_THRESHOLD = 0.5


class KernelRightSizer:
    """Maps a kernel descriptor to its requested partition size in CUs."""

    def __init__(
        self,
        database: PerfDatabase,
        topology: GpuTopology,
        margin_cus: int = 0,
        fallback_cus: Optional[int] = None,
    ) -> None:
        """``margin_cus`` optionally pads every right-size by a safety
        margin (an ablation knob; the paper uses the raw profiled minimum).

        ``fallback_cus`` is the degraded answer for a kernel missing from
        the database — typically the *model-wise* right-size, so a partial
        perf-DB degrades to per-model partitioning instead of grabbing the
        whole device.  ``None`` keeps the historical full-device fallback.
        """
        if margin_cus < 0:
            raise ValueError("margin_cus must be >= 0")
        if fallback_cus is not None and fallback_cus < 1:
            raise ValueError("fallback_cus must be >= 1 (or None)")
        self.database = database
        self.topology = topology
        self.margin_cus = margin_cus
        self.fallback_cus = fallback_cus
        self.unprofiled: set[str] = set()
        #: Launches answered through the fallback path (missing DB entry).
        self.degraded = 0
        # Memo of answers, keyed by descriptor.  The serving loop
        # re-resolves the same few descriptors millions of times, so
        # replay the answer while keeping the database's lookup count
        # honest.  Both caches are tied to the database's mutation
        # generation: a mid-run change (fault-injected perf-DB dropout,
        # a dropout window closing and restoring entries, an offline
        # profiling merge) drops every memoised answer.  Fallback
        # answers are memoised *separately* from hits — never in
        # ``_hit_cache`` — so a stale degraded answer can never shadow
        # a recovered database entry, and a fallback-memo replay keeps
        # the miss accounting (``lookups``/``misses``/``degraded``)
        # identical to an unmemoised lookup.
        self._hit_cache: dict[KernelDescriptor, int] = {}
        self._fallback_cache: dict[KernelDescriptor, int] = {}
        self._hit_cache_gen = database.generation

    def __call__(self, desc: KernelDescriptor) -> Optional[int]:
        """Requested CU count for ``desc`` (the Stream right-sizer hook)."""
        database = self.database
        if database.generation != self._hit_cache_gen:
            self._hit_cache.clear()
            self._fallback_cache.clear()
            self._hit_cache_gen = database.generation
        cached = self._hit_cache.get(desc)
        if cached is not None:
            database.lookups += 1
            return cached
        cached = self._fallback_cache.get(desc)
        if cached is not None:
            # Observationally identical to re-running the miss path.
            database.lookups += 1
            database.misses += 1
            self.degraded += 1
            return cached
        min_cus = self.database.lookup(desc)
        if min_cus is None:
            self.unprofiled.add(desc.name)
            self.degraded += 1
            if self.fallback_cus is not None:
                result = min(self.topology.total_cus, self.fallback_cus)
            else:
                result = self.topology.total_cus
            self._fallback_cache[desc] = result
            return result
        result = min(self.topology.total_cus, min_cus + self.margin_cus)
        self._hit_cache[desc] = result
        return result


class PredictiveRightSizer(KernelRightSizer):
    """Online ``minCU`` adaptation over the static database answer.

    Shrinks the :class:`KernelRightSizer` answer when ``device`` is over
    its bandwidth budget and the kernel is memory-bound: extra CUs buy
    nothing for a bandwidth-throttled kernel, so ceding them to
    compute-bound co-residents is free.  The shrink mirrors the throttle
    share (a kernel at 80 % memory intensity under 2x oversubscription
    keeps ~60 % of its CUs), floored at :data:`PREDICTIVE_MIN_CUS` and
    never exceeding the static answer.  During straggler windows (fault
    latency scale above one) the grant is left alone — a slowed kernel
    needs every CU it was profiled for.
    """

    def __init__(
        self,
        database: PerfDatabase,
        topology: GpuTopology,
        device: Any,
        margin_cus: int = 0,
        fallback_cus: Optional[int] = None,
    ) -> None:
        super().__init__(database, topology, margin_cus=margin_cus,
                         fallback_cus=fallback_cus)
        self.device = device
        #: Decisions where the prediction shrank the static answer.
        self.adjusted = 0

    def __call__(self, desc: KernelDescriptor) -> Optional[int]:
        base = super().__call__(desc)
        device = self.device
        if device.fault_latency_scale > 1.0:
            return base  # straggler window: do not shrink a slowed kernel
        if desc.mem_intensity < PREDICTIVE_INTENSITY_THRESHOLD:
            return base
        budget = device.exec_config.mem_bandwidth_budget
        demand = device.bandwidth_demand
        if budget <= 0.0 or demand <= budget:
            return base
        share = budget / demand
        scaled = int(base * ((1.0 - desc.mem_intensity)
                             + desc.mem_intensity * share))
        adjusted = max(PREDICTIVE_MIN_CUS, min(base, scaled))
        if adjusted != base:
            self.adjusted += 1
        return adjusted
