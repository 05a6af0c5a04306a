"""Pooled, contention-aware mask generation (ROADMAP item 4).

Two variants of Algorithm 1, both served through the one
:class:`~repro.core.krisp.KrispAllocator`:

**Pooled allocation** (:class:`PooledMaskGenerator`) — ECLIP-style: a
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

The pool's shape and budgets are module constants (no caller ever
tuned them): the size classes are :func:`default_size_classes` of the
device, each class holds one entry per shader engine, and
:data:`REPACK_BUDGET`, :data:`REPACK_REFILL`, :data:`CONTENTION_WEIGHT`
and :data:`SWITCH_COST_S` fix the repacking and contention terms.

Lawfulness contract: every pool-served mask satisfies the
:class:`~repro.check.invariants.MaskLawChecker` laws L1-L4 at the
original request.  Pool selection uses the generator's own grant window
``[floor, effective]`` over the live counters and serves the largest
size class inside it; a class strictly below ``effective`` is a lawful
shrink (L4's escape), a class equal to ``effective`` must respect the
overlap limit or the entry is repacked through Algorithm 1 (lawful by
construction); when no class fits the window the generator falls back
to a plain Algorithm-1 run.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.allocation import (
    DistributionPolicy,
    ResourceMaskGenerator,
    se_distribution,
)
from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology

__all__ = [
    "PooledMaskGenerator",
    "default_size_classes",
    "interference_slowdown",
]

#: Repack token bucket: at most this many repacks outstanding at once
#: (the ECLIP "bounded repacking" knob) ...
REPACK_BUDGET = 32
#: ... refilled by this many tokens per generated mask.
REPACK_REFILL = 1.0 / 64.0
#: Pool-score penalty per occupied CU per unit of predicted slowdown
#: above one (contention-aware variant only).
CONTENTION_WEIGHT = 8.0
#: Simulated cost of swapping a queue onto a different pool entry
#: (an IOCTL-sized constant, accounted on the device, never added to
#: kernel latency).
SWITCH_COST_S = 5e-6


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
    """The pool size classes for a device shape.

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


class PooledMaskGenerator(ResourceMaskGenerator):
    """ECLIP-style pooled CU-mask generation over Algorithm 1.

    A :class:`ResourceMaskGenerator` whose ``generate`` serves pool
    entries, so ``MaskLawChecker`` audits it verbatim and
    :class:`~repro.core.krisp.KrispAllocator` installs it unchanged.
    Fallbacks and repacks run the inherited Algorithm 1.

    ``device`` (optional) is the live device: repacks are charged to
    its pool-switch ledger, and with ``contention=True`` the pool score
    folds in the memory-interference slowdown of co-residency from its
    bandwidth demand (Zahaf-style placement).  The biased path reads
    live device state, so it bypasses the selection memo.
    """

    _SELECT_CACHE_MAX = 1 << 16

    def __init__(
        self,
        topology: GpuTopology,
        policy: DistributionPolicy = DistributionPolicy.CONSERVED,
        overlap_limit: Optional[int] = None,
        reshape: bool = True,
        *,
        contention: bool = False,
        device: Any = None,
    ) -> None:
        super().__init__(topology, policy=policy,
                         overlap_limit=overlap_limit, reshape=reshape)
        self.contention = contention
        self.device = device
        self._classes_desc = tuple(reversed(default_size_classes(
            topology.total_cus, topology.cus_per_se)))

        self.pool_hits = 0
        self.repacks = 0
        self.fallbacks = 0

        self._repack_tokens = float(REPACK_BUDGET)
        # Pure-path selection memo: without contention the chosen mask
        # is a function of (request, counter vector) and the current
        # pool contents; a stored answer stays lawful for an identical
        # counter state even after repacks, so the memo is only cleared
        # when a repack actually changes the pools.
        self._select_cache: dict[tuple[int, bytes], CUMask] = {}
        self._pools: dict[int, list[CUMask]] = {
            cls: self._build_pool(cls) for cls in reversed(self._classes_desc)
        }
        self._repack_cursor: dict[int, int] = dict.fromkeys(self._pools, 0)

    def _build_pool(self, cls: int) -> list[CUMask]:
        """Pre-generate one distribution-shaped entry per SE.

        Each entry keeps the balanced per-SE split of
        :func:`se_distribution` (so L3 holds by construction) but
        rotates both the SE assignment and the within-SE start offset,
        giving the optimizer genuinely distinct placements to spread
        load over.
        """
        topo = self.topology
        targets = se_distribution(cls, topo, self.policy)
        per_se = topo.cus_per_se
        stride = max(1, per_se // topo.num_se)
        entries: list[CUMask] = []
        seen: set[int] = set()
        for entry in range(topo.num_se):
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
            "pool_hits": self.pool_hits,
            "repacks": self.repacks,
            "fallbacks": self.fallbacks,
        }

    def generate(self, num_cus: int, counters: CUKernelCounters,
                 descriptor: Optional[KernelDescriptor] = None) -> CUMask:
        """Law-conformant pool selection (MaskLawChecker-compatible)."""
        topo = self.topology
        requested = max(1, min(num_cus, topo.total_cus))
        self._repack_tokens = min(float(REPACK_BUDGET),
                                  self._repack_tokens + REPACK_REFILL)
        if not (self.contention and self.device is not None):
            descriptor = None
        memo_key: Optional[tuple[int, bytes]] = None
        if descriptor is None:
            memo_key = (requested, bytes(counters.counts_view()))
            cached = self._select_cache.get(memo_key)
            if cached is not None:
                self.pool_hits += 1
                return cached

        floor, effective = self._grant_window(requested, counters)
        mask: Optional[CUMask] = None
        for cls in self._classes_desc:
            if floor <= cls <= effective:
                mask = self._pick(cls, effective, counters, descriptor)
                break
        if mask is None:
            # No size class fits the lawful window, or every entry of
            # the chosen class would break the overlap law with the
            # repack budget spent: run plain Algorithm 1.
            self.fallbacks += 1
            mask = super().generate(requested, counters)
        if memo_key is not None and len(self._select_cache) \
                < self._SELECT_CACHE_MAX:
            self._select_cache[memo_key] = mask
        return mask

    def _pick(self, cls: int, effective: int, counters: CUKernelCounters,
              descriptor: Optional[KernelDescriptor]) -> Optional[CUMask]:
        """Least-loaded lawful entry of class ``cls``, repacking if needed.

        L4 only binds when the grant equals the effective request, so a
        shrunk class (``cls < effective``) accepts any entry; a
        full-size class must stay within the overlap limit.  A
        ``descriptor`` (contention path only) adds the interference
        penalty per occupied CU.
        """
        counts = counters.counts_view()
        entries = self._pools[cls]
        limit = self.overlap_limit
        overlap_binds = cls == effective
        penalty = 0.0
        if descriptor is not None:
            device = self.device
            slowdown = interference_slowdown(
                descriptor.mem_intensity,
                device.bandwidth_demand,
                device.exec_config.mem_bandwidth_budget,
            )
            penalty = (slowdown - 1.0) * CONTENTION_WEIGHT
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
        # live counters.  The inherited floor/cap logic makes the fresh
        # mask lawful for this request (same pre-state, same window),
        # and the entry joins the pool for future launches.
        self._repack_tokens -= 1.0
        fresh = super().generate(cls, counters)
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
        if self.device is not None:
            self.device.charge_pool_switch(SWITCH_COST_S)
        return fresh
