"""Parallel experiment-grid orchestration.

Every evaluation grid of the paper is a set of independent
:class:`~repro.server.experiment.ExperimentConfig` cells, so the sweep
layer is deliberately simple: :class:`Sweep` builds a deduplicated cell
list (cartesian grids, mixed-model pairs, or explicit cells) and
:func:`run_sweep` executes it through the shared cell executor
(:func:`~repro.exp.cells.run_cells`): store hits first, misses over a
process pool, failed cells retried and reported, so one bad cell
degrades the grid gracefully instead of killing it.

The returned :class:`SweepReport` carries every result keyed by its
config plus run/cached/failed accounting, wall time, and the aggregate
speedup over the serial cell time.

Determinism: cells are seed-deterministic and RNG streams are derived
via SHA-256 (never the process-randomised ``hash``), so the serial path,
the pool path, and a cache hit all yield bit-identical results —
``tests/test_exp_sweep.py`` pins this.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.exp.cache import ContentStore, default_cache
from repro.exp.cells import (
    CellOutcome,
    ExperimentCell,
    ProgressFn,
    default_jobs,
    run_cells,
)
from repro.server.experiment import ExperimentConfig, ExperimentResult
from repro.server.options import RunOptions, reject_unsupported

__all__ = [
    "CellFailure",
    "Sweep",
    "SweepReport",
    "default_jobs",
    "run_sweep",
]


class Sweep:
    """An ordered, deduplicated collection of experiment cells."""

    def __init__(self, cells: Iterable[ExperimentConfig] = ()) -> None:
        self._cells: dict[ExperimentConfig, None] = {}
        for cell in cells:
            self.add(cell)

    def add(self, config: ExperimentConfig) -> "Sweep":
        """Add one cell (duplicates collapse); returns self for chaining."""
        self._cells[config] = None
        return self

    def add_grid(
        self,
        models: Sequence[str],
        policies: Sequence[str],
        worker_counts: Sequence[int] = (1,),
        **config_kwargs,
    ) -> "Sweep":
        """Cartesian self-co-location grid: each model replicated
        ``workers`` times under each policy (the Fig. 13/14 shape)."""
        for model, policy, workers in itertools.product(
                models, policies, worker_counts):
            self.add(ExperimentConfig(
                model_names=(model,) * workers, policy=policy,
                **config_kwargs))
        return self

    def add_pairs(
        self,
        models: Sequence[str],
        policies: Sequence[str],
        **config_kwargs,
    ) -> "Sweep":
        """Every unordered pair of distinct models under each policy
        (the Fig. 15 shape)."""
        for (a, b), policy in itertools.product(
                itertools.combinations(models, 2), policies):
            self.add(ExperimentConfig(
                model_names=(a, b), policy=policy, **config_kwargs))
        return self

    @property
    def cells(self) -> tuple[ExperimentConfig, ...]:
        return tuple(self._cells)

    def __iter__(self) -> Iterator[ExperimentConfig]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


@dataclass(frozen=True)
class CellFailure:
    """One cell that kept failing after every retry."""

    config: ExperimentConfig
    error: str
    traceback: str
    attempts: int


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    cells: tuple[ExperimentConfig, ...]
    results: dict[ExperimentConfig, ExperimentResult]
    failed: tuple[CellFailure, ...]
    #: Cells actually executed this run (misses) vs. served from cache.
    ran: int
    cached: int
    jobs: int
    wall_time: float
    #: Sum of per-cell execution times (the serial-equivalent cost).
    cell_time: float

    @property
    def ok(self) -> bool:
        """True when every cell produced a result."""
        return not self.failed

    @property
    def speedup(self) -> float:
        """Serial-equivalent cell time over wall time (>=1 when the pool
        or the cache paid off; 0.0 for an all-cached instant run)."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.cell_time / self.wall_time

    def result(self, config: ExperimentConfig) -> ExperimentResult:
        """Result for one cell; raises with the failure detail if it died."""
        try:
            return self.results[config]
        except KeyError:
            for failure in self.failed:
                if failure.config == config:
                    raise RuntimeError(
                        f"cell {ExperimentCell(config).label} failed after "
                        f"{failure.attempts} attempts:\n{failure.traceback}"
                    ) from None
            raise KeyError(f"{config} was not part of this sweep") from None

    def raise_failures(self) -> None:
        """Raise a summary ``RuntimeError`` if any cell failed."""
        if not self.failed:
            return
        detail = "\n".join(
            f"- {ExperimentCell(f.config).label} ({f.attempts} attempts): "
            f"{f.error}\n{f.traceback}"
            for f in self.failed
        )
        raise RuntimeError(
            f"{len(self.failed)}/{len(self.cells)} sweep cells failed:\n"
            f"{detail}"
        )

    def summary(self) -> str:
        """One-line accounting string for logs and the CLI."""
        return (
            f"{len(self.cells)} cells: {self.ran} run, {self.cached} cached, "
            f"{len(self.failed)} failed in {self.wall_time:.1f}s "
            f"({self.jobs} jobs, {self.speedup:.1f}x vs serial)"
        )


def run_sweep(
    sweep: Union[Sweep, Iterable[ExperimentConfig]],
    *,
    retries: int = 1,
    options: Optional[RunOptions] = None,
    jobs: Optional[int] = None,
    store: Optional[ContentStore] = default_cache(),
    progress: Optional[ProgressFn] = None,
) -> SweepReport:
    """Run every cell of ``sweep``; never raises for individual cells.

    The tail is every grid runner's (:mod:`repro.exp.cells`):
    ``jobs=None`` reads ``REPRO_JOBS`` (default ``cpu_count - 1``) and
    ``jobs=1`` runs serially in-process; ``store=None`` bypasses the
    result store entirely (no reads, no writes).  Each failing cell is
    retried ``retries`` more times before landing in ``report.failed``.
    ``progress(done, total, outcome)`` sees every
    :class:`~repro.exp.cells.CellOutcome` as it resolves.

    Fields of ``options`` a process-pooled sweep cannot honour
    (``tracer``, ``recorder``, ``audit``, ``workload``) are rejected.
    ``options.faults`` (a :class:`~repro.faults.FaultSchedule`) and
    ``options.guard`` (a :class:`~repro.server.slo.SloGuard`) apply to
    **every** cell; the store keys them separately from fault-free
    cells, and schedules pickle cleanly across the process pool, so
    fault-injected sweeps are exactly as parallel and cacheable as
    fault-free ones.

    ``options.metrics`` (a :class:`repro.obs.MetricsRegistry`) receives
    live ``sweep_cache_hits_total`` / ``sweep_cache_misses_total``
    counters, a ``sweep_last_cell_seconds`` gauge, and a
    ``sweep_cell_seconds`` histogram — updated as cells resolve so a
    progress callback can read them mid-sweep.
    """
    opts = reject_unsupported("run_sweep", options, "tracer", "recorder",
                              "audit", "workload")
    cells = sweep.cells if isinstance(sweep, Sweep) else Sweep(sweep).cells
    # Resolved here rather than in run_cells because the report prints it.
    if jobs is None:
        jobs = default_jobs()

    metrics = opts.metrics
    if metrics is not None:
        m_hits = metrics.counter(
            "sweep_cache_hits_total", "Result-cache hits during the sweep")
        m_misses = metrics.counter(
            "sweep_cache_misses_total", "Result-cache misses during the sweep")
        m_last = metrics.gauge(
            "sweep_last_cell_seconds",
            "Wall time of the most recently executed cell")
        m_hist = metrics.histogram(
            "sweep_cell_seconds", "Per-cell execution wall time")

    def observe(done: int, total: int, outcome: CellOutcome) -> None:
        if metrics is not None:
            if outcome.hit:
                m_hits.inc()
            else:
                m_misses.inc()
                m_last.set(outcome.seconds)
                m_hist.observe(outcome.seconds)
        if progress is not None:
            progress(done, total, outcome)

    start = time.perf_counter()
    outcomes = run_cells(
        [ExperimentCell(c, opts.faults, opts.guard) for c in cells],
        jobs, store, retries, observe)
    results = {o.cell.config: o.result for o in outcomes if o.ok}
    cached = sum(o.hit for o in outcomes)
    return SweepReport(
        cells=cells,
        results=results,
        failed=tuple(
            CellFailure(config=o.cell.config, error=o.error,
                        traceback=o.traceback, attempts=o.attempts)
            for o in outcomes if not o.ok),
        ran=len(results) - cached,
        cached=cached,
        jobs=jobs,
        wall_time=time.perf_counter() - start,
        cell_time=sum(o.seconds for o in outcomes),
    )
