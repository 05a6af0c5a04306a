"""Benchmark runner: times pinned scenarios, emits ``BENCH_<rev>.json``.

A *row* is one (scenario, recompute-mode) measurement: best-of-N
wall time, engine events/second, batches (distinct instants)/second, and
the run's result hash.  Because every scenario is deterministic, the
hash doubles as a correctness check — in ``compare`` mode the runner
asserts the incremental and full-recompute paths hashed identically
before reporting a speedup.

Throughput honesty: under equal-timestamp batching many events share one
instant, so ``events_per_s`` alone could silently flatter a change that
merely merges instants.  Every row therefore reports both ``events``
(callbacks executed) and ``batches`` (instants visited), with their
respective rates.

Reports are plain JSON (:data:`BENCH_SCHEMA`) so future PRs can diff
them; :func:`check_report` implements the CI regression gate against a
committed baseline, and :func:`default_baseline_path` locates the newest
committed ``BENCH_*.json`` at the repo root so ``bench --compare`` can
print deltas without an explicit path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import repro
from repro.bench.scenarios import SCENARIOS, ScenarioRun

__all__ = [
    "BENCH_SCHEMA",
    "BenchError",
    "BenchRow",
    "baseline_deltas",
    "check_report",
    "default_baseline_path",
    "profile_scenario",
    "run_bench",
    "run_scenario",
    "write_report",
]

#: Schema 2 adds ``batches`` / ``batches_per_s`` to every row
#: (equal-timestamp batching honesty) and the ``recommended_modes``
#: per-scenario crossover verdict to compare reports.  (Reports written
#: while the engine had a choice of event queue also carry a ``queue``
#: field; readers ignore it.)
BENCH_SCHEMA = 2

#: Recompute modes map to the device's ``REPRO_RECOMPUTE`` knob:
#: ``auto`` (incremental with the measured dirty-fraction crossover to
#: the full sweep), ``incremental`` (forced), ``full`` (forced sweep,
#: the bit-identity oracle).
_MODES = ("auto", "incremental", "full")


class BenchError(RuntimeError):
    """A bench invariant failed (hash mismatch, regression, bad input)."""


@dataclass(frozen=True)
class BenchRow:
    """One timed (scenario, mode) measurement."""

    scenario: str
    mode: str
    wall_s: float
    events: int
    batches: int
    events_per_s: float
    batches_per_s: float
    result_hash: str
    repeats: int


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


class _env:
    """Temporarily set environment variables (None = leave unset)."""

    def __init__(self, **values: Optional[str]) -> None:
        self._values = {k: v for k, v in values.items() if v is not None}
        self._saved: dict[str, Optional[str]] = {}

    def __enter__(self) -> "_env":
        for key, value in self._values.items():
            self._saved[key] = os.environ.get(key)
            os.environ[key] = value
        return self

    def __exit__(self, *exc) -> None:
        for key, saved in self._saved.items():
            if saved is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = saved


def run_scenario(name: str, mode: str = "auto",
                 repeats: int = 1) -> BenchRow:
    """Time one scenario ``repeats`` times and keep the best wall time.

    All repeats must produce the same result hash (the scenarios are
    deterministic); a mismatch raises :class:`BenchError`.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise BenchError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    if mode not in _MODES:
        raise BenchError(f"unknown mode {mode!r}; available: {list(_MODES)}")
    if repeats < 1:
        raise BenchError("repeats must be >= 1")

    best: Optional[float] = None
    run: Optional[ScenarioRun] = None
    with _env(REPRO_RECOMPUTE=mode):
        for _ in range(repeats):
            start = time.perf_counter()
            this_run = scenario.execute()
            wall = time.perf_counter() - start
            if run is not None and this_run.result_hash != run.result_hash:
                raise BenchError(
                    f"{name}: non-deterministic result across repeats "
                    f"({run.result_hash[:16]} != {this_run.result_hash[:16]})")
            run = this_run
            if best is None or wall < best:
                best = wall

    assert run is not None and best is not None
    return BenchRow(
        scenario=name,
        mode=mode,
        wall_s=round(best, 4),
        events=run.events,
        batches=run.batches,
        events_per_s=round(run.events / best, 1) if best > 0 else 0.0,
        batches_per_s=round(run.batches / best, 1) if best > 0 else 0.0,
        result_hash=run.result_hash,
        repeats=repeats,
    )


def profile_scenario(name: str, mode: str = "auto") -> dict:
    """Run ``name`` once under the per-phase profiler; return the breakdown.

    Profiled runs pay ~2 clock reads per event plus 2 per instrumented
    sub-phase, so the timings here show the *shape* of a run, not
    comparable absolute throughput — the plain rows stay unprofiled.
    """
    from repro.profiling import simprofile

    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise BenchError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    simprofile.activate()
    try:
        with _env(REPRO_RECOMPUTE=mode):
            scenario.execute()
    finally:
        profiler = simprofile.deactivate()
    assert profiler is not None
    breakdown = profiler.breakdown()
    breakdown["scenario"] = name
    breakdown["mode"] = mode
    breakdown["formatted"] = profiler.format()
    return breakdown


def run_bench(names: Optional[Sequence[str]] = None, *,
              compare: bool = False, repeats: int = 1) -> dict:
    """Run scenarios and return a schema-:data:`BENCH_SCHEMA` report.

    With ``compare=True`` each scenario is run in both forced recompute
    modes (incremental first, so the full mode inherits any warm
    in-process caches — biasing *against* the incremental path's
    speedup), the result hashes are asserted identical, per-scenario
    speedups are reported, and ``recommended_modes`` records which mode
    the measurement favours (the measured crossover behind the device's
    ``auto`` default).
    """
    names = list(names) if names else sorted(SCENARIOS)
    rows: list[BenchRow] = []
    speedups: dict[str, float] = {}
    recommended: dict[str, str] = {}
    for name in names:
        incremental = run_scenario(name, "incremental", repeats)
        rows.append(incremental)
        if compare:
            full = run_scenario(name, "full", repeats)
            rows.append(full)
            if full.result_hash != incremental.result_hash:
                raise BenchError(
                    f"{name}: incremental/full result hashes diverge "
                    f"({incremental.result_hash[:16]} != "
                    f"{full.result_hash[:16]}) — the incremental "
                    "recompute path broke bit-identity")
            if incremental.wall_s > 0:
                speedup = round(full.wall_s / incremental.wall_s, 2)
                speedups[name] = speedup
                recommended[name] = (
                    "incremental" if speedup >= 1.0 else "full")
    report = {
        "schema": BENCH_SCHEMA,
        "rev": _git_rev(),
        "version": repro.__version__,
        "python": sys.version.split()[0],
        "rows": [asdict(row) for row in rows],
    }
    if compare:
        report["speedups"] = speedups
        report["recommended_modes"] = recommended
    return report


def write_report(report: dict, path: str | Path) -> Path:
    """Write ``report`` as stable, diff-friendly JSON.  Returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _history_positions(root: Path) -> dict[str, int]:
    """Commit SHAs of ``root``'s first-parent history, oldest first."""
    try:
        out = subprocess.run(
            ["git", "rev-list", "--first-parent", "--reverse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=str(root),
        )
    except OSError:
        return {}
    if out.returncode != 0:
        return {}
    return {sha: index for index, sha in enumerate(out.stdout.split())}


def default_baseline_path(root: Optional[Path] = None) -> Optional[Path]:
    """Newest committed ``BENCH_*.json`` at the repo root, or ``None``.

    "Newest" is decided by content, never by directory order or mtime
    (fresh clones and CI checkouts materialise arbitrary mtimes): each
    candidate's embedded ``rev`` is ranked by its position in the repo's
    first-parent history, falling back to ``(schema, filename)`` for
    revs outside the history (or without git), so the same working tree
    always picks the same baseline.  Unreadable candidates rank last.
    An explicit ``--check`` path always overrides this discovery.
    """
    if root is None:
        candidate = Path(__file__).resolve().parents[3]
        if not (candidate / "pyproject.toml").exists():
            return None
        root = candidate
    benches = sorted(root.glob("BENCH_*.json"))
    if not benches:
        return None
    history = _history_positions(root)

    def rank(path: Path) -> tuple:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return (-1, -1, -1, path.name)
        rev = str(payload.get("rev", ""))
        position = -1
        if rev and rev != "unknown":
            for sha, index in history.items():
                if sha.startswith(rev):
                    position = index
                    break
        schema = payload.get("schema")
        if not isinstance(schema, int):
            schema = 0
        return (0 if position < 0 else 1, position, schema, path.name)

    return max(benches, key=rank)


def baseline_deltas(report: dict, baseline: dict) -> dict[str, float]:
    """Per-(scenario, mode) events/s ratio of ``report`` over ``baseline``.

    Keys are ``"scenario/mode"``; values > 1.0 mean the report is
    faster.  Works across schema versions (every schema's rows carry
    ``events_per_s``); rows present on only one side are skipped.
    """
    # ``.get`` throughout: a legacy schema-1 baseline predates several
    # row keys (``batches``), and a hand-edited one may lack
    # anything — comparison degrades to the rows both sides share.
    base_rows = {(r.get("scenario"), r.get("mode")): r
                 for r in baseline.get("rows", []) if isinstance(r, dict)}
    deltas: dict[str, float] = {}
    for row in report.get("rows", []):
        base = base_rows.get((row.get("scenario"), row.get("mode")))
        if base and base.get("events_per_s") and row.get("events_per_s"):
            deltas[f"{row['scenario']}/{row['mode']}"] = round(
                row["events_per_s"] / base["events_per_s"], 2)
    return deltas


def check_report(report: dict, baseline: dict, *,
                 max_regression: float = 0.30) -> list[str]:
    """Compare ``report`` rows against ``baseline`` rows.

    Returns a list of human-readable failures: any (scenario, mode) row
    whose wall time regressed more than ``max_regression`` (fractional)
    over the baseline row, plus schema problems.  An empty list means
    the gate passes.  Rows present on only one side are ignored (new
    scenarios must be benchable before they are gateable).
    """
    failures: list[str] = []
    if baseline.get("schema") != report.get("schema"):
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')} "
            f"vs report {report.get('schema')}")
        return failures
    base_rows = {(r.get("scenario"), r.get("mode")): r
                 for r in baseline.get("rows", []) if isinstance(r, dict)}
    for row in report.get("rows", []):
        base = base_rows.get((row.get("scenario"), row.get("mode")))
        if base is None or base.get("wall_s") is None:
            continue
        limit = base["wall_s"] * (1.0 + max_regression)
        if row["wall_s"] > limit:
            failures.append(
                f"{row['scenario']}/{row['mode']}: wall {row['wall_s']:.3f}s "
                f"exceeds baseline {base['wall_s']:.3f}s "
                f"+{max_regression:.0%} (limit {limit:.3f}s)")
    return failures
