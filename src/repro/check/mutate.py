"""Deliberate fault seeding for the audit layer's self-test.

An invariant checker that never fires is indistinguishable from one
that works, so ``krisp-repro check --mutate-smoke`` seeds one concrete
bug at a time — each a realistic regression in a load-bearing code path
— and asserts the targeted checker *catches* it.  Every mutation is a
context manager that monkey-patches a live class and restores it on
exit, so the smoke run leaves the process clean.

The roster pairs each mutation with the checker expected to trip:

=========================  ============================================
mutation                   caught by
=========================  ============================================
``drop-dirty-entry``       incremental-mode device audit (stale rate)
``skip-se-load-update``    counter self-audit inside the mask program
``skew-mask-shape``        Algorithm-1 active-SE law (L3)
``tamper-cached-result``   cached-vs-fresh differential hash
``drop-enqueue-count``     request-conservation identity
=========================  ============================================
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.allocation import ResourceMaskGenerator
from repro.exp.cache import ContentStore
from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.server.request import RequestQueue

__all__ = ["MUTATIONS", "Mutation"]


@dataclasses.dataclass(frozen=True)
class Mutation:
    """One seeded fault: a name, a patch, and its targeted checker."""

    name: str
    description: str
    apply: Callable[[], object]
    #: Zero-argument callable returning a violations list; must be
    #: non-empty while the mutation is active.
    targeted_check: Callable[[], list[str]]


@contextmanager
def _drop_dirty_entry() -> Iterator[None]:
    """Incremental recompute forgets the newest-launched dirty record."""
    original = GpuDevice._dirty_after_mask_change

    def mutated(self, mask, old_total):
        dirty = original(self, mask, old_total)
        if dirty:
            dirty.discard(max(dirty))
        return dirty

    GpuDevice._dirty_after_mask_change = mutated
    try:
        yield
    finally:
        GpuDevice._dirty_after_mask_change = original


@contextmanager
def _skip_se_load_update() -> Iterator[None]:
    """Counter release stops maintaining the per-SE load aggregate."""
    original = CUKernelCounters.release

    def mutated(self, mask):
        counts = self._counts
        for cu in mask.cu_tuple:
            remaining = counts[cu] - 1
            if remaining < 0:
                raise ValueError(f"CU {cu} released below zero")
            counts[cu] = remaining
            if remaining == 0:
                self._busy -= 1
        self._total -= mask.count()
        # Bug under test: self._se_loads is never decremented.

    CUKernelCounters.release = mutated
    try:
        yield
    finally:
        CUKernelCounters.release = original


@contextmanager
def _skew_mask_shape() -> Iterator[None]:
    """Masks come back round-robined over every SE, breaking the
    conserved policy's fewest-SEs shape."""
    original = ResourceMaskGenerator.generate

    def mutated(self, num_cus, counters):
        mask = original(self, num_cus, counters)
        topology = self.topology
        per_se = topology.cus_per_se
        offsets = [0] * topology.num_se
        cus = []
        se = 0
        for _ in range(mask.count()):
            while offsets[se] >= per_se:
                se = (se + 1) % topology.num_se
            cus.append(se * per_se + offsets[se])
            offsets[se] += 1
            se = (se + 1) % topology.num_se
        return CUMask.from_cus(topology, cus)

    ResourceMaskGenerator.generate = mutated
    try:
        yield
    finally:
        ResourceMaskGenerator.generate = original


@contextmanager
def _tamper_cached_result() -> Iterator[None]:
    """Closed-loop store hits come back with a perturbed throughput."""
    original = ContentStore.get

    def mutated(self, cell):
        result = original(self, cell)
        if result is None or cell.namespace != "results":
            return result
        return dataclasses.replace(
            result, total_rps=result.total_rps + 1e-6)

    ContentStore.get = mutated
    try:
        yield
    finally:
        ContentStore.get = original


@contextmanager
def _drop_enqueue_count() -> Iterator[None]:
    """Queue puts stop incrementing the admission counter."""
    original = RequestQueue.put

    def mutated(self, request):
        original(self, request)
        self.enqueued -= 1

    RequestQueue.put = mutated
    try:
        yield
    finally:
        RequestQueue.put = original


def _device_check() -> list[str]:
    # Incremental mode pinned explicitly: the dropped dirty entry only
    # exists on the incremental path.
    from repro.check.invariants import run_device_program
    return run_device_program(seed=7, steps=120, full_recompute=False,
                              with_faults=False)


def _mask_law_check() -> list[str]:
    from repro.check.invariants import run_mask_program
    return run_mask_program(seed=7, iterations=120)


def _cache_check() -> list[str]:
    from repro.check.differential import check_cache_replay
    return check_cache_replay("colo4")[0]


def _conservation_check() -> list[str]:
    from repro.check.differential import check_experiment_invariants
    return check_experiment_invariants("colo4")[0]


MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        "drop-dirty-entry",
        "incremental recompute skips the newest dirty record",
        _drop_dirty_entry,
        _device_check,
    ),
    Mutation(
        "skip-se-load-update",
        "counter release leaks the per-SE load aggregate",
        _skip_se_load_update,
        _mask_law_check,
    ),
    Mutation(
        "skew-mask-shape",
        "allocator spreads conserved masks over every SE",
        _skew_mask_shape,
        _mask_law_check,
    ),
    Mutation(
        "tamper-cached-result",
        "cache hits return a perturbed throughput",
        _tamper_cached_result,
        _cache_check,
    ),
    Mutation(
        "drop-enqueue-count",
        "queue admissions go uncounted",
        _drop_enqueue_count,
        _conservation_check,
    ),
)
