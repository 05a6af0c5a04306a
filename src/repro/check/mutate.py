"""Deliberate fault seeding for the audit layer's self-test.

An invariant checker that never fires is indistinguishable from one
that works, so ``krisp-repro check --mutate-smoke`` seeds one concrete
bug at a time — each a realistic regression in a load-bearing code path
— and asserts the targeted checker *catches* it.  Every mutation is a
context manager that monkey-patches a live class (or module) and
restores it on exit, so the smoke run leaves the process clean.

The roster pairs each mutation with the checker expected to trip:

===============================  ======================================
mutation                         caught by
===============================  ======================================
``drop-dirty-entry``             incremental device audit (any path)
``ignore-co-residents``          device audit's slow-path rate check
``skip-se-load-update``          counter self-audit in the mask program
``skew-mask-shape``              Algorithm-1 active-SE law (L3)
``tamper-cached-result``         cached-vs-fresh differential hash
``drop-enqueue-count``           request-conservation identity
``scale-kernel-latency``         ``colo4``'s pin (both modes agree)
``stale-progress-credit``        ``chaos``'s pin and the full oracle
``skip-completion-cancel``       ``chaos``'s pin (changes must cancel)
``fold-skips-dispatch-latency``  ``profiling-oracle`` (fold vs DES)
===============================  ======================================
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator

from repro.check.profiling import check_profiling_oracle
from repro.core.allocation import ResourceMaskGenerator
from repro.exp.cache import ContentStore
from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.profiling import model_profiler
from repro.server.experiment import _isolated_pass_latency, isolated_baseline
from repro.server.profiles import model_right_size
from repro.server.request import RequestQueue
from repro.sim.engine import Simulator

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
def _patch(owner: object, name: str, replacement: object) -> Iterator[None]:
    """Install ``replacement`` as ``owner.name`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def _drop_dirty_entry() -> Iterator[None]:
    """Incremental recompute forgets the newest-launched dirty record
    (a lone launch, then, its own first rate)."""
    original = GpuDevice._dirty_after_mask_change

    def mutated(self, record, old_total):
        dirty = original(self, record, old_total)
        if dirty:
            dirty.discard(max(dirty))
        return dirty

    with _patch(GpuDevice, "_dirty_after_mask_change", mutated):
        yield


@contextmanager
def _skip_se_load_update() -> Iterator[None]:
    """Counter release stops maintaining the per-SE load aggregate."""
    original = CUKernelCounters.release

    def mutated(self, mask):
        # Bug under test: the per-SE loads are never decremented.  The
        # aggregate is updated in place, so restore a copy.
        se_loads = list(self._se_loads)
        original(self, mask)
        self._se_loads[:] = se_loads

    with _patch(CUKernelCounters, "release", mutated):
        yield


@contextmanager
def _ignore_co_residents() -> Iterator[None]:
    """The rate model reads every CU as singly occupied, so kernels
    sharing CUs run at their isolated floor.

    Both recompute paths agree and the fast path still matches its own
    recompute, so only the device audit's slow-path comparison catches
    it.
    """
    with _patch(CUKernelCounters, "shared", lambda self, mask: False):
        yield


@contextmanager
def _skew_mask_shape() -> Iterator[None]:
    """Masks come back round-robined over every SE, breaking the
    conserved policy's fewest-SEs shape."""
    original = ResourceMaskGenerator.generate

    def mutated(self, num_cus, counters, descriptor=None):
        mask = original(self, num_cus, counters, descriptor)
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

    with _patch(ResourceMaskGenerator, "generate", mutated):
        yield


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

    with _patch(ContentStore, "get", mutated):
        yield


@contextmanager
def _drop_enqueue_count() -> Iterator[None]:
    """Queue puts stop incrementing the admission counter."""
    original = RequestQueue.put

    def mutated(self, request):
        original(self, request)
        self.enqueued -= 1

    with _patch(RequestQueue, "put", mutated):
        yield


@contextmanager
def _scratch_caches() -> Iterator[None]:
    """Point the result store at a throwaway root and clear the memos a
    patched run may fill on exit, so no mutated float outlives it."""
    saved_root = os.environ.get("REPRO_CACHE_DIR")
    scratch = tempfile.mkdtemp(prefix="repro-mutate-")
    os.environ["REPRO_CACHE_DIR"] = scratch
    try:
        yield
    finally:
        if saved_root is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_root
        shutil.rmtree(scratch, ignore_errors=True)
        for memo in (_isolated_pass_latency, isolated_baseline,
                     model_right_size):
            memo.cache_clear()


@contextmanager
def _scale_kernel_latency() -> Iterator[None]:
    """Every kernel runs 0.1% slower, on both recompute paths alike.

    The incremental and full-sweep modes still agree, so only the
    scenario pin can catch it.
    """
    original = GpuDevice._effective_latency

    def mutated(self, record):
        return original(self, record) * 1.001

    with _patch(GpuDevice, "_effective_latency", mutated), _scratch_caches():
        yield


@contextmanager
def _stale_progress_credit() -> Iterator[None]:
    """Lazy progress credit skips the newest logged interval.

    Only the incremental path replays the advance log (full-recompute
    mode credits eagerly), so the two modes part ways.
    """
    original = GpuDevice._credit

    def mutated(self, record):
        newest = self._advance_log.pop()
        original(self, record)
        self._advance_log.append(newest)
        record.credited += 1

    with _patch(GpuDevice, "_credit", mutated), _scratch_caches():
        yield


@contextmanager
def _skip_completion_cancel() -> Iterator[None]:
    """A rate change leaves the superseded completion live.

    ``GpuDevice._recompute_rates`` is the engine's only canceller, so
    the stale completion fires too: a kernel whose rate fell retires at
    its old, earlier time.
    """
    with _patch(Simulator, "cancel", lambda self, seq: None), \
            _scratch_caches():
        yield


@contextmanager
def _fold_skips_dispatch_latency() -> Iterator[None]:
    """The folded profiling pass drops the packet-processing latency
    the simulated command processor charges before every kernel."""
    with _patch(model_profiler, "_DISPATCH_LATENCY", 0.0), \
            _scratch_caches():
        yield


def _device_check() -> list[str]:
    # Incremental mode pinned explicitly: the dropped dirty entry only
    # exists on the incremental path.
    from repro.check.invariants import run_device_program
    return run_device_program(seed=7, steps=120, full_recompute=False,
                              with_faults=False)


def _device_audit_check() -> list[str]:
    # The ``device-audit`` global check, both recompute modes.
    from repro.check.runner import _device_audit
    return _device_audit()[0]


def _mask_law_check() -> list[str]:
    from repro.check.invariants import run_mask_program
    return run_mask_program(seed=7, iterations=120)


def _cache_check() -> list[str]:
    from repro.check.differential import check_cache_replay
    return check_cache_replay("colo4")[0]


def _conservation_check() -> list[str]:
    from repro.check.differential import check_experiment_invariants
    return check_experiment_invariants("colo4")[0]


def _modes_check(scenario: str) -> list[str]:
    from repro.check.differential import check_recompute_oracle
    return check_recompute_oracle(scenario)[0]


MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        "drop-dirty-entry",
        "incremental recompute skips the newest dirty record",
        _drop_dirty_entry,
        _device_check,
    ),
    Mutation(
        "ignore-co-residents",
        "the rate model ignores kernels sharing a CU",
        _ignore_co_residents,
        _device_audit_check,
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
    Mutation(
        "scale-kernel-latency",
        "every kernel latency is scaled by 1.001 in both recompute modes",
        _scale_kernel_latency,
        partial(_modes_check, "colo4"),
    ),
    Mutation(
        "stale-progress-credit",
        "lazy progress credit drops the newest logged interval",
        _stale_progress_credit,
        partial(_modes_check, "chaos"),
    ),
    Mutation(
        "skip-completion-cancel",
        "a rate change leaves the superseded completion scheduled",
        _skip_completion_cancel,
        partial(_modes_check, "chaos"),
    ),
    Mutation(
        "fold-skips-dispatch-latency",
        "the folded profiling pass drops the per-kernel dispatch latency",
        _fold_skips_dispatch_latency,
        lambda: check_profiling_oracle()[0],
    ),
)
