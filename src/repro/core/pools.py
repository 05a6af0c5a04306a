"""Pooled, contention-aware allocation policies (ROADMAP item 4).

Three policies layered over the Algorithm-1 stack:

**Pooled allocation** (:class:`PooledMaskAllocator`) — ECLIP-style: a
small pre-generated set of distribution-shaped CU-mask pools per size
class, built once per device, with a resource-allocation optimizer that
assigns each kernel to the least-loaded lawful pool entry under a
bounded repacking budget.  Selecting a mask is a scan over a handful of
pre-decoded pool entries instead of a full Algorithm-1 run, which is
where the allocation-overhead win comes from.

**Contention-aware assignment** (``allocation="pooled-contention"``) —
folds a memory-interference slowdown model into co-resident choice.
The model mirrors the device's own bandwidth-throttle regime
(:func:`interference_slowdown`): when resident demand exceeds the
device budget, a memory-intense kernel placed on occupied CUs pays the
oversubscription slowdown, so such placements are penalised in the pool
score.

**Predictive right-sizing** (:class:`PredictiveRightSizer`) — adapts
``minCU`` online from the same observable signals :class:`~repro.obs.
sampler.SimSampler` exports (bandwidth pressure, straggler fault
scale), read directly off the device at decision time so results never
depend on whether metrics collection is enabled.  The static
:class:`~repro.core.rightsizing.KernelRightSizer` is kept as the
oracle: the predictive layer only ever *shrinks* the oracle answer, and
only outside straggler windows.

Lawfulness contract: every pool-served mask satisfies the
:class:`~repro.check.invariants.MaskLawChecker` laws L1-L4 at the
original request.  Pool selection recomputes the checker's grant window
``[floor_capped, effective]`` from the live counters and serves the
largest size class inside it; a class strictly below ``effective`` is a
lawful shrink (L4's escape), a class equal to ``effective`` must respect
the overlap limit or the entry is repacked through Algorithm 1 (lawful
by construction); when no class fits the window the allocator falls
back to a plain Algorithm-1 run.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.allocation import (
    DistributionPolicy,
    ResourceMaskGenerator,
    fair_share_floor,
    se_distribution,
)
from repro.core.rightsizing import KernelRightSizer
from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.kernel import KernelDescriptor, KernelLaunch

__all__ = [
    "ALLOCATION_POLICIES",
    "SIZING_POLICIES",
    "PooledMaskAllocator",
    "PredictiveRightSizer",
    "default_size_classes",
    "interference_slowdown",
]

#: Allocation-policy names accepted by ``ExperimentConfig.allocation``.
ALLOCATION_POLICIES = ("krisp", "pooled", "pooled-contention")

#: Right-sizing policy names accepted by ``ExperimentConfig.sizing``.
SIZING_POLICIES = ("static", "predictive")

#: Simulated cost of swapping a queue onto a different pool entry
#: (an IOCTL-sized constant, accounted on the device, never added to
#: kernel latency).
DEFAULT_SWITCH_COST_S = 5e-6


def interference_slowdown(mem_intensity: float, total_demand: float,
                          budget: float) -> float:
    """Predicted slowdown of a kernel under bandwidth oversubscription.

    Mirrors the device's effective-latency throttle: the compute share
    of the kernel is unaffected, the memory share is stretched by the
    demand-over-budget ratio.  Returns ``1.0`` when the device is under
    budget (no interference).
    """
    if budget <= 0.0 or total_demand <= budget:
        return 1.0
    throttle = (1.0 - mem_intensity) + mem_intensity * (budget / total_demand)
    return 1.0 / throttle


def default_size_classes(total_cus: int, cus_per_se: int) -> tuple[int, ...]:
    """The default pool size classes for a device shape.

    Small powers of two for tiny kernels, then SE multiples up to the
    full device — the sizes serving loops actually converge on.
    """
    classes = {2, 4, max(1, cus_per_se // 2), cus_per_se}
    step = cus_per_se
    while step < total_cus:
        step += cus_per_se
        classes.add(min(step, total_cus))
    classes.add(total_cus)
    return tuple(sorted(c for c in classes if 1 <= c <= total_cus))


class PooledMaskAllocator:
    """ECLIP-style pooled CU-mask allocation over Algorithm 1.

    Exposes the same ``generate(num_cus, counters)`` surface (plus the
    ``topology``/``policy``/``reshape``/``overlap_limit`` attributes) as
    :class:`ResourceMaskGenerator`, so ``MaskLawChecker`` audits it
    verbatim, and the same ``allocate(launch, device)`` surface as
    :class:`~repro.core.krisp.KrispAllocator`, so it drops into the
    command processor unchanged.
    """

    def __init__(
        self,
        generator: ResourceMaskGenerator,
        size_classes: Optional[tuple[int, ...]] = None,
        pool_depth: Optional[int] = None,
        repack_budget: int = 32,
        repack_refill: float = 1.0 / 64.0,
        contention: bool = False,
        contention_weight: float = 8.0,
        switch_cost_s: float = DEFAULT_SWITCH_COST_S,
    ) -> None:
        """``repack_budget`` is a token bucket: at most that many
        repacks outstanding at once, refilled ``repack_refill`` tokens
        per allocation — the ECLIP "bounded repacking" knob.  With
        ``contention=True`` the pool score folds in the
        memory-interference slowdown of co-residency (Zahaf-style
        placement); that path reads live device state, so it bypasses
        the selection memo.
        """
        if repack_budget < 0:
            raise ValueError("repack_budget must be >= 0")
        if repack_refill < 0:
            raise ValueError("repack_refill must be >= 0")
        if switch_cost_s < 0:
            raise ValueError("switch_cost_s must be >= 0")
        self.generator = generator
        topo = generator.topology
        if size_classes is None:
            size_classes = default_size_classes(topo.total_cus,
                                                topo.cus_per_se)
        for cls in size_classes:
            if not 1 <= cls <= topo.total_cus:
                raise ValueError(f"size class {cls} outside [1, "
                                 f"{topo.total_cus}]")
        self.size_classes = tuple(sorted(set(size_classes)))
        self._classes_desc = tuple(reversed(self.size_classes))
        self.pool_depth = pool_depth if pool_depth else topo.num_se
        if self.pool_depth < 1:
            raise ValueError("pool_depth must be >= 1")
        self.repack_budget = repack_budget
        self.repack_refill = repack_refill
        self.contention = contention
        self.contention_weight = contention_weight
        self.switch_cost_s = switch_cost_s

        # Counters mirroring KrispAllocator, plus pool-specific stats.
        self.allocations = 0
        self.short_allocations = 0
        self.degraded = 0
        self.pool_hits = 0
        self.repacks = 0
        self.fallbacks = 0

        self._repack_tokens = float(repack_budget)
        self._mask_cache: dict[int, CUMask] = {}
        # Pure-path selection memo: without contention the chosen mask
        # is a function of (request, counter vector) and the current
        # pool contents; a stored answer stays lawful for an identical
        # counter state even after repacks, so the memo is only cleared
        # when a repack actually changes the pools.
        self._select_cache: dict[tuple[int, bytes], CUMask] = {}
        self._pools: dict[int, list[CUMask]] = {
            cls: self._build_pool(cls) for cls in self.size_classes
        }
        self._repack_cursor: dict[int, int] = {
            cls: 0 for cls in self.size_classes}

    _SELECT_CACHE_MAX = 1 << 16

    # MaskLawChecker reads these off the "generator" it wraps.
    @property
    def topology(self):
        return self.generator.topology

    @property
    def policy(self) -> DistributionPolicy:
        return self.generator.policy

    @property
    def reshape(self) -> bool:
        return self.generator.reshape

    @property
    def overlap_limit(self) -> int:
        return self.generator.overlap_limit

    def _intern(self, bits: int) -> CUMask:
        mask = self._mask_cache.get(bits)
        if mask is None:
            mask = CUMask(self.topology, bits)
            self._mask_cache[bits] = mask
        return mask

    def _build_pool(self, cls: int) -> list[CUMask]:
        """Pre-generate ``pool_depth`` distribution-shaped entries.

        Each entry keeps the balanced per-SE split of
        :func:`se_distribution` (so L3 holds by construction) but
        rotates both the SE assignment and the within-SE start offset,
        giving the optimizer genuinely distinct placements to spread
        load over.
        """
        topo = self.topology
        targets = se_distribution(cls, topo, self.policy)
        per_se = topo.cus_per_se
        stride = max(1, per_se // self.pool_depth)
        entries: list[CUMask] = []
        seen: set[int] = set()
        for entry in range(self.pool_depth):
            bits = 0
            start = (entry * stride) % per_se
            for position, want in enumerate(targets):
                if want == 0:
                    break
                se_cus = topo.cus_in_se((entry + position) % topo.num_se)
                for i in range(want):
                    bits |= 1 << se_cus[(start + i) % per_se]
            if bits not in seen:
                seen.add(bits)
                entries.append(self._intern(bits))
        return entries

    def pool_stats(self) -> dict[str, int]:
        """Deterministic operation counts for reports and CLI output."""
        return {
            "allocations": self.allocations,
            "pool_hits": self.pool_hits,
            "repacks": self.repacks,
            "fallbacks": self.fallbacks,
            "short_allocations": self.short_allocations,
            "degraded": self.degraded,
        }

    # -- core selection ------------------------------------------------------
    def generate(self, num_cus: int,
                 counters: CUKernelCounters) -> CUMask:
        """Law-conformant pool selection (MaskLawChecker-compatible)."""
        return self._generate(num_cus, counters, None, None)

    def _generate(self, num_cus: int, counters: CUKernelCounters,
                  descriptor: Optional[KernelDescriptor],
                  device: Any) -> CUMask:
        topo = self.topology
        requested = max(1, min(num_cus, topo.total_cus))
        self._repack_tokens = min(float(self.repack_budget),
                                  self._repack_tokens + self.repack_refill)
        biased = (self.contention and device is not None
                  and descriptor is not None)
        memo_key: Optional[tuple[int, bytes]] = None
        if not biased:
            memo_key = (requested, bytes(counters.counts_view()))
            cached = self._select_cache.get(memo_key)
            if cached is not None:
                self.pool_hits += 1
                return cached

        # The MaskLawChecker grant window, recomputed from the same
        # pre-allocation state the checker snapshots.
        floor = fair_share_floor(topo.total_cus, counters.total_assigned())
        effective = requested
        if self.overlap_limit == 0:
            free = topo.total_cus - counters.busy_cus()
            effective = min(requested, max(floor, free))
        floor_capped = min(floor, effective)

        mask: Optional[CUMask] = None
        for cls in self._classes_desc:
            if floor_capped <= cls <= effective:
                mask = self._pick(cls, effective, counters, descriptor,
                                  device)
                break
        if mask is None:
            # No size class fits the lawful window, or every entry of
            # the chosen class would break the overlap law with the
            # repack budget spent: run plain Algorithm 1.
            self.fallbacks += 1
            mask = self.generator.generate(requested, counters)
        if memo_key is not None and len(self._select_cache) \
                < self._SELECT_CACHE_MAX:
            self._select_cache[memo_key] = mask
        return mask

    def _pick(self, cls: int, effective: int, counters: CUKernelCounters,
              descriptor: Optional[KernelDescriptor],
              device: Any) -> Optional[CUMask]:
        """Least-loaded lawful entry of class ``cls``, repacking if needed.

        L4 only binds when the grant equals the effective request, so a
        shrunk class (``cls < effective``) accepts any entry; a
        full-size class must stay within the overlap limit.
        """
        counts = counters.counts_view()
        entries = self._pools[cls]
        limit = self.overlap_limit
        overlap_binds = cls == effective
        penalty = 0.0
        if self.contention and device is not None and descriptor is not None:
            slowdown = interference_slowdown(
                descriptor.mem_intensity,
                device.bandwidth_demand,
                device.exec_config.mem_bandwidth_budget,
            )
            penalty = (slowdown - 1.0) * self.contention_weight
        best: Optional[CUMask] = None
        best_score = 0.0
        for mask in entries:
            load = 0
            occupied = 0
            for cu in mask.cu_tuple:
                n = counts[cu]
                if n:
                    load += n
                    occupied += 1
            if overlap_binds and occupied > limit:
                continue
            score = float(load) + penalty * occupied
            if best is None or score < best_score:
                best = mask
                best_score = score
                if score == 0.0:
                    break
        if best is not None:
            self.pool_hits += 1
            return best
        if not overlap_binds or self._repack_tokens < 1.0:
            return None
        # Repack: regenerate one entry through Algorithm 1 against the
        # live counters.  The generator's own floor/cap logic makes the
        # fresh mask lawful for this request (same pre-state, same
        # window), and the entry joins the pool for future launches.
        self._repack_tokens -= 1.0
        fresh = self.generator.generate(cls, counters)
        if fresh.count() == cls:
            # Only exactly class-sized masks may join the pool: a
            # shrunk regrant is lawful for *this* request (L4's shrink
            # escape) but could sit below a later request's fair-share
            # floor.
            slot = self._repack_cursor[cls] % len(entries)
            self._repack_cursor[cls] = slot + 1
            entries[slot] = fresh
            self._select_cache.clear()
        self.repacks += 1
        if device is not None:
            device.charge_pool_switch(self.switch_cost_s)
        return fresh

    # -- command-processor surface -------------------------------------------
    def allocate(self, launch: KernelLaunch, device: Any) -> CUMask:
        """KernelScopedAllocator hook: pool entry for this launch.

        Mirrors :class:`~repro.core.krisp.KrispAllocator` exactly on the
        degradation path: a failure inside selection serves the full
        device and traces a ``mask-fallback`` instant.
        """
        requested = launch.requested_cus
        if requested is None:
            requested = device.topology.total_cus
        try:
            mask = self._generate(requested, device.counters,
                                  launch.descriptor, device)
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


class PredictiveRightSizer:
    """Online ``minCU`` adaptation over a static oracle.

    Wraps a :class:`KernelRightSizer` and shrinks its answer when the
    device is over its bandwidth budget and the kernel is memory-bound:
    extra CUs buy nothing for a bandwidth-throttled kernel, so ceding
    them to compute-bound co-residents is free.  The shrink mirrors the
    throttle share (a kernel at 80 % memory intensity under 2x
    oversubscription keeps ~60 % of its CUs), floored at ``min_cus``
    and never exceeding the oracle.  During straggler windows (fault
    latency scale above one) the grant is left alone — a slowed kernel
    needs every CU it was profiled for.
    """

    def __init__(
        self,
        oracle: KernelRightSizer,
        device: Any,
        min_cus: int = 4,
        intensity_threshold: float = 0.5,
    ) -> None:
        if min_cus < 1:
            raise ValueError("min_cus must be >= 1")
        if not 0.0 <= intensity_threshold <= 1.0:
            raise ValueError("intensity_threshold must be in [0, 1]")
        self.oracle = oracle
        self.device = device
        self.min_cus = min_cus
        self.intensity_threshold = intensity_threshold
        #: Decisions where the prediction shrank the oracle answer.
        self.adjusted = 0
        self.observations = 0

    # Degradation accounting and the fault injector's perf-DB discovery
    # both duck-type these off whatever a stream exposes as its sizer.
    @property
    def database(self):
        return self.oracle.database

    @property
    def topology(self):
        return self.oracle.topology

    @property
    def fallback_cus(self):
        return self.oracle.fallback_cus

    @property
    def unprofiled(self):
        return self.oracle.unprofiled

    @property
    def degraded(self) -> int:
        return self.oracle.degraded

    def __call__(self, desc: KernelDescriptor) -> Optional[int]:
        base = self.oracle(desc)
        if base is None:
            return base
        self.observations += 1
        device = self.device
        if device.fault_latency_scale > 1.0:
            return base  # straggler window: do not shrink a slowed kernel
        if desc.mem_intensity < self.intensity_threshold:
            return base
        budget = device.exec_config.mem_bandwidth_budget
        demand = device.bandwidth_demand
        if budget <= 0.0 or demand <= budget:
            return base
        share = budget / demand
        scaled = int(base * ((1.0 - desc.mem_intensity)
                             + desc.mem_intensity * share))
        adjusted = max(self.min_cus, min(base, scaled))
        if adjusted != base:
            self.adjusted += 1
        return adjusted
