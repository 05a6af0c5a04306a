"""One cell protocol and one executor for every evaluation grid.

The paper's grids (Fig. 13/14's policy × workers × model cells, Fig.
15's pairs, Fig. 16's overlap sweep) and the harness's own grids (load
curves, chaos, fleets) are all sets of independent, seed-deterministic
cells.  A :class:`Cell` knows its store namespace and content key, how
to run itself, and how to encode/decode its result; :func:`run_cells`
does everything else, once, for all four grids:

* cache lookups and stores through one :class:`~repro.exp.cache
  .ContentStore`, always in the calling process (pool workers never
  touch the store, so a caller-supplied store sees every hit and write);
* misses run serially when ``min(jobs, misses) == 1``, otherwise on one
  ``ProcessPoolExecutor`` with the platform's default start method;
* every exception is captured with its traceback, and a failed cell is
  retried up to ``retries`` more times;
* one :class:`CellOutcome` per cell, in input order, also streamed to
  ``progress(done, total, outcome)`` as each cell resolves.

Every grid runner (``run_sweep``, ``run_load_curve``, ``run_chaos``,
``run_fleet``) ends in the keyword tail ``options`` (one
:class:`~repro.server.options.RunOptions`), ``jobs`` (``None`` is
:func:`default_jobs`), ``store`` (:func:`~repro.exp.cache.default_cache`
by default; ``None`` bypasses it) and ``progress``.  ``run_sweep``
reports failed cells, the others raise.  Determinism holds by
construction: a cell's result is a pure function of its fields, so
serial, pooled and cache-served runs are bit-identical.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Protocol

from repro.exp.cache import (
    ContentStore,
    cache_key,
    config_to_dict,
    default_cache,
    rate_cache_key,
    rate_result_from_dict,
    rate_result_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.server.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.server.options import RunOptions, reject_unsupported
from repro.server.slo import SloGuard

__all__ = [
    "Cell",
    "CellOutcome",
    "ExperimentCell",
    "RateCell",
    "cached_run_experiment",
    "default_jobs",
    "results_or_raise",
    "run_cells",
]


class Cell(Protocol):
    """One independent, seed-deterministic unit of a grid."""

    #: Store namespace (``results``, ``rate`` or ``cluster``).
    namespace: str

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines."""

    def key(self) -> str:
        """Content hash of every input the result depends on."""

    def run(self) -> Any:
        """Compute the result (in a pool worker or in-process)."""

    def encode(self, result: Any) -> dict[str, Any]:
        """JSON-native store entry for ``result`` (its inputs plus a
        ``result`` payload; the store adds the constants)."""

    def decode(self, payload: dict[str, Any]) -> Any:
        """Inverse of :meth:`encode`; raises ``ValueError``/``KeyError``/
        ``TypeError`` on a corrupt or mismatched entry."""


@dataclass(frozen=True)
class CellOutcome:
    """How one cell resolved."""

    cell: Any
    result: Any = None
    #: ``"Type: message"`` of the last failed attempt, else ``None``.
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: Executions (0 for a cache hit).
    attempts: int = 0
    #: Wall seconds spent executing, summed over attempts.
    seconds: float = 0.0
    hit: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


ProgressFn = Callable[[int, int, CellOutcome], None]


def _execute(cell: Cell) -> tuple[Any, float, Optional[str], Optional[str]]:
    """Run one cell, trapping any exception *where it ran*, so only
    plain strings cross the process boundary."""
    start = time.perf_counter()
    try:
        result = cell.run()
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return (None, time.perf_counter() - start,
                f"{type(exc).__name__}: {exc}", traceback.format_exc())
    return result, time.perf_counter() - start, None, None


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` or ``os.cpu_count() - 1`` (min 1).
    A ``REPRO_JOBS`` that is not an integer >= 1 raises, as ``--jobs``
    and ``run_cells(jobs=0)`` do."""
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return max(1, (os.cpu_count() or 2) - 1)
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS={env!r} is not an integer >= 1")
    return jobs


def run_cells(cells: Iterable[Cell], jobs: Optional[int] = 1,
              store: Optional[ContentStore] = None, retries: int = 0,
              progress: Optional[ProgressFn] = None) -> list[CellOutcome]:
    """Resolve every cell: store hit, or run (retrying failures).

    ``jobs=None`` is :func:`default_jobs`.  ``store=None`` bypasses the
    store (no reads, no writes).  Never raises for a cell; the outcomes
    say which cells failed.
    """
    cells = list(cells)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    outcomes: list[Optional[CellOutcome]] = [None] * len(cells)
    attempts: dict[int, int] = {}
    seconds: dict[int, float] = {}
    done = 0

    def finish(index: int, outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(done, len(cells), outcome)

    def record(index: int, ran) -> bool:
        """Account one execution; ``True`` once the cell is resolved."""
        result, duration, error, tb = ran
        attempts[index] = attempts.get(index, 0) + 1
        seconds[index] = seconds.get(index, 0.0) + duration
        if error is not None and attempts[index] <= retries:
            return False
        cell = cells[index]
        if error is None and store is not None:
            store.put(cell, result)
        finish(index, CellOutcome(
            cell, result, error, tb, attempts[index], seconds[index]))
        return True

    misses = []
    for index, cell in enumerate(cells):
        hit = store.get(cell) if store is not None else None
        if hit is not None:
            finish(index, CellOutcome(cell, hit, hit=True))
        else:
            misses.append(index)

    if min(jobs, len(misses)) <= 1:
        for index in misses:
            while not record(index, _execute(cells[index])):
                pass
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
            running = {pool.submit(_execute, cells[i]): i for i in misses}
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = running.pop(future)
                    try:
                        ran = future.result()
                    except Exception as exc:  # pool or pickling breakage
                        attempts[index] = retries  # not worth a retry
                        ran = (None, 0.0, f"{type(exc).__name__}: {exc}",
                               traceback.format_exc())
                    if not record(index, ran):
                        running[pool.submit(_execute, cells[index])] = index
    return outcomes  # type: ignore[return-value]


def results_or_raise(outcomes: list[CellOutcome]) -> list[Any]:
    """Every cell's result in order, or a ``RuntimeError`` naming each
    failed cell with its traceback (the failure contract of the grid
    runners that do not report failures)."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(f"{len(failed)}/{len(outcomes)} cells failed:\n"
                           + "\n".join(f"- {o.cell.label}: {o.traceback}"
                                        for o in failed))
    return [o.result for o in outcomes]


# -- closed- and open-loop cells ----------------------------------------------

@dataclass(frozen=True)
class ExperimentCell:
    """One closed-loop cell: a config, plus the fault schedule and SLO
    guard it runs under (keyed only when given)."""

    config: ExperimentConfig
    faults: Any = None
    guard: Optional[SloGuard] = None
    #: Progress label; defaults to ``models/policy/b<batch>``.
    tag: str = field(default="", compare=False)

    namespace = "results"

    @property
    def label(self) -> str:
        if self.tag:
            return self.tag
        config = self.config
        return (f"{'+'.join(config.model_names)}/{config.policy}"
                f"/b{config.batch_size}")

    def key(self) -> str:
        return cache_key(self.config, faults=self.faults, guard=self.guard)

    def run(self) -> ExperimentResult:
        return run_experiment(
            self.config, RunOptions(faults=self.faults, guard=self.guard))

    def encode(self, result: ExperimentResult) -> dict[str, Any]:
        payload = {"config": config_to_dict(self.config),
                   "result": result_to_dict(result)}
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.guard is not None:
            payload["guard"] = self.guard.to_dict()
        return payload

    def decode(self, payload: dict[str, Any]) -> ExperimentResult:
        if payload.get("config") != config_to_dict(self.config):
            raise ValueError("cache entry config mismatch")
        return result_from_dict(payload["result"])


@dataclass(frozen=True)
class RateCell:
    """One open-loop point: ``config`` driven at ``offered_rps`` for
    ``duration`` (the resolved run length), by Poisson arrivals or by
    ``workload`` (a :mod:`repro.workload` spec already at that rate)."""

    config: ExperimentConfig
    offered_rps: float
    duration: float
    workload: Any = None
    faults: Any = None
    guard: Optional[SloGuard] = None

    namespace = "rate"

    @property
    def label(self) -> str:
        return f"{self.offered_rps:.0f} rps"

    def key(self) -> str:
        return rate_cache_key(self.config, self.offered_rps, self.duration,
                              workload=self.workload, faults=self.faults,
                              guard=self.guard)

    def options(self, **extra: Any) -> RunOptions:
        return RunOptions(workload=self.workload, faults=self.faults,
                          guard=self.guard, **extra)

    def run(self):
        from repro.server.rate_experiment import run_rate_experiment
        return run_rate_experiment(self.config, self.offered_rps,
                                   self.duration, self.options())

    def encode(self, result) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "config": config_to_dict(self.config),
            "offered_rps": self.offered_rps,
            "duration": self.duration,
            "result": rate_result_to_dict(result),
        }
        for name in ("workload", "faults", "guard"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value.to_dict()
        return payload

    def decode(self, payload: dict[str, Any]):
        return rate_result_from_dict(payload["result"])


def cached_run_experiment(
    config: ExperimentConfig,
    options: Optional[RunOptions] = None,
    store: Optional[ContentStore] = default_cache(),
) -> ExperimentResult:
    """:func:`~repro.server.experiment.run_experiment` of one cell through
    ``store`` (``None`` bypasses it), in-process, so a failing run raises
    its own exception.  ``options`` carries the keyed ``faults`` and
    ``guard``; observers and audits are rejected, since a cache hit would
    never call them."""
    opts = reject_unsupported("cached_run_experiment", options, "tracer",
                              "recorder", "metrics", "audit", "workload")
    cell = ExperimentCell(config, opts.faults, opts.guard)
    result = store.get(cell) if store is not None else None
    if result is None:
        result = cell.run()
        if store is not None:
            store.put(cell, result)
    return result
