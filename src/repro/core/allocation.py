"""Partition resource-mask generation (paper Algorithm 1 and Fig. 7).

Given a requested partition size in CUs, the generator decides *which*
CUs to hand the kernel:

1. **How many SEs?**  Per the distribution policy — *Packed* fills one SE
   before spilling into the next; *Distributed* spreads over every SE;
   *Conserved* (the paper's choice) uses the fewest SEs that fit the
   request and spreads evenly across them, avoiding both the Packed
   imbalance spikes and the Distributed ceil-steps of Fig. 8.
2. **Which SEs?**  The least-loaded first, by summing the per-CU kernel
   counters inside each SE (Algorithm 1 lines 4-8).
3. **Which CUs inside an SE?**  The least-loaded first (line 12).  A CU
   that already holds a kernel counts against the *overlap limit*; once
   the limit is exhausted, further occupied CUs are skipped but still
   consume the allocation budget (lines 13-22), so the kernel may receive
   fewer CUs than requested — exactly KRISP-I's behaviour when isolated
   resources run out.

When isolation leaves a kernel with almost nothing, the paper notes that
"if there are not enough CUs to isolate kernels, we may allow them to
overlap": the generator enforces a *fair-share floor* — at least
``total_cus / (active_kernels + 1)`` CUs (capped at the request) — by
overlapping onto the least-loaded CUs.  Without the floor, a late kernel
squeezed to one or two CUs convoys the whole stream.  The generator also
never returns an empty mask (hardware cannot schedule a kernel with no
CUs, and the emulation's queue mask may not be empty).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology

__all__ = ["DistributionPolicy", "ResourceMaskGenerator", "fair_share_floor",
           "se_distribution"]


def fair_share_floor(total_cus: int, total_assigned: int) -> int:
    """Minimum CU grant under the fair-share rule (Section IV-C2).

    ``total_assigned`` is the device-wide number of kernel-CU
    assignments in flight (the sum of the per-CU counters); the ceiling
    of that over the device size estimates how many device-filling
    kernels are active, and a new kernel is guaranteed at least an equal
    share alongside them.  Exposed as a module function so the audit
    subsystem (:mod:`repro.check`) re-derives the same floor the
    generator enforces.
    """
    if total_cus < 1:
        raise ValueError("total_cus must be >= 1")
    if total_assigned < 0:
        raise ValueError("total_assigned must be >= 0")
    load = -(-total_assigned // total_cus)  # ceil
    return max(1, total_cus // (load + 1))


class DistributionPolicy(Enum):
    """How requested CUs are spread across shader engines (Fig. 7)."""

    PACKED = "packed"
    DISTRIBUTED = "distributed"
    CONSERVED = "conserved"


def se_distribution(
    num_cus: int, topology: GpuTopology, policy: DistributionPolicy
) -> list[int]:
    """Target CU count per SE *position* (before load-aware SE choice).

    Returns a descending list of per-SE CU counts; the generator later maps
    positions onto concrete SEs ordered by load.
    """
    if not 1 <= num_cus <= topology.total_cus:
        raise ValueError(
            f"num_cus={num_cus} out of range [1, {topology.total_cus}]"
        )
    per_se = topology.cus_per_se
    if policy is DistributionPolicy.PACKED:
        counts = []
        remaining = num_cus
        while remaining > 0:
            take = min(per_se, remaining)
            counts.append(take)
            remaining -= take
        counts += [0] * (topology.num_se - len(counts))
        return counts
    if policy is DistributionPolicy.DISTRIBUTED:
        num_se = topology.num_se
    else:  # CONSERVED: least SEs that satisfy the request (Alg. 1 line 2)
        num_se = math.ceil(num_cus / per_se)
    base, remainder = divmod(num_cus, num_se)
    counts = [base + (1 if i < remainder else 0) for i in range(num_se)]
    counts += [0] * (topology.num_se - num_se)
    return counts


class ResourceMaskGenerator:
    """Implements Algorithm 1: load-aware CU-mask generation."""

    def __init__(
        self,
        topology: GpuTopology,
        policy: DistributionPolicy = DistributionPolicy.CONSERVED,
        overlap_limit: Optional[int] = None,
        reshape: bool = True,
    ) -> None:
        """``overlap_limit`` is the number of already-occupied CUs a new
        kernel may share; ``None`` means unlimited (KRISP-O), ``0`` means
        fully isolated (KRISP-I).

        ``reshape=True`` (the default, a refinement over the paper's
        single-pass Algorithm 1) regenerates shrunk allocations into a
        balanced distribution shape; ``reshape=False`` keeps the literal
        single-pass behaviour, whose ragged masks reproduce the paper's
        Fig. 16 overlap-limit spikes.
        """
        self.topology = topology
        self.policy = policy
        if overlap_limit is None:
            overlap_limit = topology.total_cus
        if overlap_limit < 0:
            raise ValueError("overlap_limit must be >= 0")
        self.overlap_limit = overlap_limit
        self.reshape = reshape
        self.masks_generated = 0
        # se_distribution is pure in (num_cus, topology, policy) and the
        # latter two are fixed per generator, so memoise per size — the
        # serving loop requests the same few sizes millions of times.
        self._distribution_cache: dict[int, list[int]] = {}
        # Mask interning: steady-state serving converges onto a small set
        # of partitions, and returning the same CUMask object lets its
        # cached decode (cu_tuple, per-SE counts) be computed once
        # instead of per launch.
        self._mask_cache: dict[int, CUMask] = {}
        # Full-result memo: the mask is a pure function of the request
        # size and the per-CU counter vector (SE loads, busy count, and
        # total assignments all derive from it).  Serving loops revisit
        # the same counter states constantly, so cache the whole
        # Algorithm-1 run keyed on (num_cus, counts-bytes).  Capped to
        # bound memory on adversarial churn (maskgen-style sweeps).
        self._generate_cache: dict[tuple[int, bytes], CUMask] = {}

    _GENERATE_CACHE_MAX = 1 << 17

    def _distribution(self, num_cus: int) -> list[int]:
        targets = self._distribution_cache.get(num_cus)
        if targets is None:
            targets = se_distribution(num_cus, self.topology, self.policy)
            self._distribution_cache[num_cus] = targets
        return targets

    def _intern(self, bits: int) -> CUMask:
        mask = self._mask_cache.get(bits)
        if mask is None:
            mask = CUMask(self.topology, bits)
            self._mask_cache[bits] = mask
        return mask

    def _grant_window(self, num_cus: int,
                      counters: CUKernelCounters) -> tuple[int, int]:
        """``(floor, effective)``: the lawful grant range for a request.

        ``effective`` is ``num_cus`` capped, in isolation mode
        (``overlap_limit == 0``), at the larger of the free CUs and the
        fair-share floor; ``floor`` is the fair-share floor capped at
        ``effective``.  Every variant of the generator grants a size in
        this window.
        """
        topo = self.topology
        floor = fair_share_floor(topo.total_cus, counters.total_assigned())
        if self.overlap_limit == 0:
            free = topo.total_cus - counters.busy_cus()
            num_cus = min(num_cus, max(floor, free))
        return min(floor, num_cus), num_cus

    def generate(self, num_cus: int, counters: CUKernelCounters,
                 descriptor: Optional[KernelDescriptor] = None) -> CUMask:
        """Generate a CU mask for a kernel requesting ``num_cus`` CUs.

        Two passes: the first runs Algorithm 1 under the overlap limit to
        size the *grant* (how many CUs this kernel gets, respecting the
        fair-share floor); the second regenerates a properly
        distribution-shaped mask of exactly that size on the least-loaded
        CUs.  A single pass that merely skips occupied CUs produces
        ragged masks — e.g. one straggler CU in an otherwise unused SE —
        which the equal-split workgroup dispatcher punishes exactly like
        the Packed-policy spikes of Fig. 8.

        The fair-share floor is sized from the device's current CU load
        (total kernel-CU assignments over the device size), so a swarm of
        tiny kernels does not starve a large one.  In isolation mode
        (``overlap_limit == 0``) the request is additionally *capped* at
        the larger of the free pool and the fair share: without the cap
        the first big kernel grabs its full minimum and every later
        kernel convoys on leftovers; with it, co-located big-kernel
        models converge to clean fair-share partitions (the behaviour
        KRISP-I's Fig. 13 results rely on).

        ``descriptor`` is the launching kernel; Algorithm 1 ignores it,
        the contention-aware pool (:mod:`repro.core.pools`) reads it.
        """
        topo = self.topology
        if num_cus < 1:
            num_cus = 1
        elif num_cus > topo.total_cus:
            num_cus = topo.total_cus
        # Per-CU counts are small ints (bounded by max_kernels_per_cu),
        # so bytes() is a compact, hashable snapshot of the full state.
        memo_key = (num_cus, bytes(counters.counts_view()))
        cached = self._generate_cache.get(memo_key)
        if cached is not None:
            self.masks_generated += 1
            return cached
        floor, num_cus = self._grant_window(num_cus, counters)

        selected = self._select(num_cus, counters, self.overlap_limit)
        if len(selected) < num_cus:
            if self.reshape:
                # The overlap budget shrank (or raggedified) the
                # allocation: regrant at the floor-respecting size with
                # overlap permitted, so the final mask keeps the
                # distribution policy's shape ("we may allow them to
                # overlap", Section IV-C2).
                grant = max(len(selected), floor)
                selected = self._select(grant, counters, topo.total_cus)
            elif len(selected) < floor:
                # Literal Algorithm 1 + floor: top up with the least
                # loaded CUs, accepting a possibly ragged shape.
                chosen = set(selected)
                extras = sorted(
                    (cu for cu in range(topo.total_cus)
                     if cu not in chosen),
                    key=lambda cu: (counters.count(cu), cu),
                )
                selected.extend(extras[:floor - len(selected)])

        self.masks_generated += 1
        bits = 0
        for cu in selected:
            bits |= 1 << cu
        mask = self._intern(bits)
        if len(self._generate_cache) < self._GENERATE_CACHE_MAX:
            self._generate_cache[memo_key] = mask
        return mask

    def _select(self, num_cus: int, counters: CUKernelCounters,
                overlap_limit: int) -> list[int]:
        """One Algorithm-1 selection pass under ``overlap_limit``."""
        topo = self.topology
        targets = self._distribution(num_cus)

        # Order SEs least-loaded first (Alg. 1 lines 4-8); ties by index
        # for determinism.  Sorting by load alone is equivalent to the
        # (load, index) key: the input is ascending by index and Python's
        # sort is stable, so ties keep index order — but the key is a
        # C-level list lookup instead of a lambda.
        se_order = sorted(range(topo.num_se),
                          key=counters.se_loads_view().__getitem__)

        counts = counters.counts_view()
        selected: list[int] = []
        overlapped = 0
        allocated = 0
        for position, se in enumerate(se_order):
            want = targets[position]
            if want == 0 or allocated >= num_cus:
                break
            # Order CUs in this SE least-loaded first (Alg. 1 line 12).
            # Same stable-sort argument as above: cus_in_se() is an
            # ascending range, so ties keep index order.
            cu_order = sorted(topo.cus_in_se(se), key=counts.__getitem__)
            taken_in_se = 0
            for cu in cu_order:
                if taken_in_se >= want or allocated >= num_cus:
                    break
                occupied = counts[cu] > 0
                if occupied:
                    overlapped += 1
                if not occupied or overlapped <= overlap_limit:
                    selected.append(cu)
                taken_in_se += 1
                allocated += 1
        return selected
