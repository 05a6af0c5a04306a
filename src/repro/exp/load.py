"""Latency-vs-offered-rate load curves over workload specs.

``run_load_curve`` sweeps one workload spec across a set of offered
rates (the spec rescaled via ``at_rate``), running each point through
:func:`~repro.server.rate_experiment.run_rate_experiment` with the
spec's arrival process and request mix.  Points are pure functions of
(config, spec, rate, duration, faults, guard), so they fan out over a
process pool exactly like sweep cells — serial and pooled execution are
bit-identical — and cache under the content store's ``rate/`` namespace
(:mod:`repro.exp.cache`), with the spec folded into every key.

The curve's *knee* — the highest offered rate whose p95 stays within a
small factor of the lightest point's p95 — is the capacity number an
operator reads off the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.exp.cache import ContentStore, default_cache
from repro.exp.cells import (
    ProgressFn,
    RateCell,
    results_or_raise,
    run_cells,
)
from repro.server.experiment import ExperimentConfig
from repro.server.metrics import LatencyStats
from repro.server.options import RunOptions, reject_unsupported
from repro.server.rate_experiment import (
    RateResult,
    default_rate_duration,
    run_rate_experiment,
)

__all__ = ["DEFAULT_SCALES", "LoadCurveReport", "LoadPoint",
           "run_load_curve"]

#: Default offered-rate multiples of the spec's native rate.
DEFAULT_SCALES: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


@dataclass(frozen=True)
class LoadPoint:
    """One point of a latency-vs-rate curve."""

    offered_rps: float
    achieved_rps: float
    goodput_rps: float
    shed: int
    queue_residue: int
    saturated: bool
    latency: LatencyStats
    #: Shed breakdown and retry churn (0 on unguarded, fault-free runs).
    shed_admission: int = 0
    shed_deadline: int = 0
    retried: int = 0
    #: Latency-attribution summary (:func:`repro.obs.attribution
    #: .summarize` payload) — only populated by ``attribute=True`` runs;
    #: never enters the rate cache, so cached payloads stay byte-stable.
    attribution: Optional[dict] = None


def _to_point(offered_rps: float, result: RateResult,
              attribution: Optional[dict] = None) -> LoadPoint:
    resilience = result.resilience
    return LoadPoint(
        offered_rps=offered_rps,
        achieved_rps=result.achieved_rps,
        goodput_rps=(resilience.goodput_rps if resilience is not None
                     else result.achieved_rps),
        shed=resilience.shed if resilience is not None else 0,
        queue_residue=result.queue_residue,
        saturated=result.saturated,
        latency=result.latency,
        shed_admission=(resilience.shed_admission
                        if resilience is not None else 0),
        shed_deadline=(resilience.shed_deadline
                       if resilience is not None else 0),
        retried=resilience.retried if resilience is not None else 0,
        attribution=attribution,
    )


@dataclass(frozen=True)
class LoadCurveReport:
    """A full load curve plus its provenance."""

    config: ExperimentConfig
    workload: Any
    duration: float
    points: tuple[LoadPoint, ...]
    cache_hits: int = 0

    def to_rows(self) -> list[dict[str, Any]]:
        """JSON-native rows, one per point, in offered-rate order.

        Rows always carry the shed breakdown and retry counts; the
        ``attribution``/``diagnosis`` keys appear only on curves run
        with ``attribute=True`` so plain-curve exports stay unchanged
        modulo the new integer columns.
        """
        rows = []
        for p in self.points:
            row = {
                "offered_rps": p.offered_rps,
                "achieved_rps": p.achieved_rps,
                "goodput_rps": p.goodput_rps,
                "shed": p.shed,
                "shed_admission": p.shed_admission,
                "shed_deadline": p.shed_deadline,
                "retried": p.retried,
                "queue_residue": p.queue_residue,
                "saturated": p.saturated,
                "p50_ms": p.latency.p50 * 1e3,
                "p95_ms": p.latency.p95 * 1e3,
                "p999_ms": p.latency.p999 * 1e3,
            }
            if p.attribution is not None:
                row["attribution"] = p.attribution
                row["diagnosis"] = p.attribution.get("diagnosis")
            rows.append(row)
        return rows

    def knee_rps(self, factor: float = 3.0) -> Optional[float]:
        """Highest offered rate whose p95 stays within ``factor`` of the
        lightest point's p95 (and that did not saturate); ``None`` when
        even the lightest point blows up."""
        if not self.points:
            return None
        base = self.points[0].latency.p95
        knee = None
        for point in self.points:
            if point.saturated or point.latency.p95 > factor * base:
                break
            knee = point.offered_rps
        return knee

    def knee_diagnosis(self, factor: float = 3.0) -> Optional[str]:
        """What the first post-knee point's tail latency is made of.

        Returns the :func:`~repro.obs.attribution.diagnose` label
        (``queueing-dominated`` / ``contention-dominated`` /
        ``service-dominated``) of the first point past the knee — the
        point whose blow-up defines the curve's capacity — falling back
        to the heaviest point when nothing blew up.  ``None`` unless
        the curve was run with ``attribute=True``.
        """
        knee = self.knee_rps(factor)
        past = [p for p in self.points
                if knee is None or p.offered_rps > knee]
        probe = past[0] if past else self.points[-1] if self.points else None
        if probe is None or probe.attribution is None:
            return None
        return probe.attribution.get("diagnosis")

    def to_text(self) -> str:
        from repro.analysis.tables import format_table
        rows = [
            [f"{p.offered_rps:.0f}", f"{p.achieved_rps:.0f}",
             f"{p.goodput_rps:.0f}", f"{p.latency.p50 * 1e3:.2f}",
             f"{p.latency.p95 * 1e3:.2f}", f"{p.latency.p999 * 1e3:.2f}",
             p.shed, "yes" if p.saturated else "no"]
            for p in self.points
        ]
        table = format_table(
            ["offered rps", "achieved", "goodput", "p50 (ms)", "p95 (ms)",
             "p999 (ms)", "shed", "saturated"],
            rows,
            title=f"load curve over {len(self.points)} rates "
                  f"({self.duration:.2f} s per point)")
        lines = [table]
        if any(p.attribution is not None for p in self.points):
            for p in self.points:
                if p.attribution is None:
                    continue
                lines.append(f"  {p.offered_rps:.0f} rps: "
                             f"{p.attribution.get('diagnosis')}")
            diagnosis = self.knee_diagnosis()
            if diagnosis is not None:
                lines.append(f"knee diagnosis: {diagnosis}")
        return "\n".join(lines)


class _AttributedCell(RateCell):
    """A rate point run under a flight recorder; its result is the pair
    ``(RateResult, attribution summary)``."""

    def run(self):
        from repro.obs.attribution import summarize
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder()
        result = run_rate_experiment(self.config, self.offered_rps,
                                     self.duration,
                                     self.options(recorder=recorder))
        return result, summarize(recorder.flights())


def run_load_curve(
    config: ExperimentConfig,
    workload,
    *,
    rates: Optional[tuple[float, ...]] = None,
    scales: tuple[float, ...] = DEFAULT_SCALES,
    duration: Optional[float] = None,
    attribute: bool = False,
    options: Optional[RunOptions] = None,
    jobs: Optional[int] = None,
    store: Optional[ContentStore] = default_cache(),
    progress: Optional[ProgressFn] = None,
) -> LoadCurveReport:
    """Sweep ``workload`` across offered rates into a load curve.

    ``rates`` gives absolute offered rates (requests/s); otherwise the
    spec's native ``offered_rps()`` is multiplied by each of
    ``scales``.  Each point rescales the spec with ``at_rate`` and runs
    for the same ``duration`` (default
    :func:`~repro.server.rate_experiment.default_rate_duration`), so
    points differ only in offered load.  The tail is every grid
    runner's (:mod:`repro.exp.cells`); a failed point raises
    ``RuntimeError``.

    ``attribute=True`` attaches a latency-attribution summary
    (:func:`repro.obs.attribution.summarize`) to every point, labelling
    each — and in particular the knee — queueing- vs contention-
    dominated.  Attribution needs live flights, so every point then runs
    under a :class:`~repro.obs.flight.FlightRecorder` and cache reads are
    bypassed (results are still written back, and are bit-identical —
    recording is pure observation).

    ``options.faults`` and ``options.guard`` apply to every point.  The
    workload is this function's positional argument, so
    ``options.workload`` — like the fields a pooled curve cannot honour
    (``tracer``, ``recorder``, ``metrics``, ``audit``) — is rejected.
    """
    opts = reject_unsupported("run_load_curve", options, "tracer", "recorder",
                              "metrics", "audit", "workload")
    if rates is None:
        base = workload.offered_rps()
        rates = tuple(base * scale for scale in scales)
    if not rates or any(r <= 0 for r in rates):
        raise ValueError("offered rates must be a non-empty set of > 0")
    rates = tuple(sorted(rates))
    if duration is None:
        duration = default_rate_duration(config)

    cell_type = _AttributedCell if attribute else RateCell
    cells = [cell_type(config, rate, duration, workload.at_rate(rate),
                       opts.faults, opts.guard)
             for rate in rates]
    outcomes = run_cells(cells, jobs, None if attribute else store,
                         progress=progress)
    points = []
    for cell, result in zip(cells, results_or_raise(outcomes)):
        result, attribution = result if attribute else (result, None)
        if attribute and store is not None:
            store.put(cell, result)
        points.append(_to_point(cell.offered_rps, result, attribution))
    return LoadCurveReport(config=config, workload=workload,
                           duration=duration, points=tuple(points),
                           cache_hits=sum(o.hit for o in outcomes))
