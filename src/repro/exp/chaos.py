"""Resilience grids: policy × fault scenario, scored against fault-free.

KRISP's recovery argument (paper Fig. 2, Section III) is about behaviour
*under change*: kernel-scoped partitions re-form in microseconds, while
model- or device-scoped schemes pay epoch-scale reloads.  The chaos layer
measures exactly that: :func:`run_chaos` runs every requested policy
under every named fault scenario (plus the fault-free reference) with
SLO guard rails on, and reports each cell's goodput and SLO-violation
delta against its own fault-free baseline.

Scenarios are deterministic hand-built schedules placed inside the
cell's measurement window, so two chaos runs of the same grid — serial,
pooled, or cache-served — are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.exp.cache import ContentStore, default_cache
from repro.exp.cells import (
    ExperimentCell,
    ProgressFn,
    results_or_raise,
    run_cells,
)
from repro.faults.schedule import (
    BandwidthSpike,
    FaultSchedule,
    KernelStraggler,
    PerfDbDropout,
    RequestStorm,
    WorkerCrash,
)
from repro.server.experiment import (
    ExperimentConfig,
    ExperimentResult,
    measurement_window,
    slo_target,
)
from repro.server.options import RunOptions, reject_unsupported
from repro.server.slo import SloGuard

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosCell",
    "ChaosReport",
    "build_scenario",
    "default_guard",
    "run_chaos",
]

#: Named fault scenarios of the resilience grid, mildest first.
CHAOS_SCENARIOS: tuple[str, ...] = (
    "crash",
    "straggler",
    "bandwidth",
    "storm",
    "dropout",
    "mixed",
)


def build_scenario(name: str, config: ExperimentConfig,
                   seed: Optional[int] = None) -> FaultSchedule:
    """The deterministic fault schedule for one named scenario.

    Events are placed at fixed fractions of ``config``'s measurement
    window, so the same scenario scales with the cell instead of missing
    short windows or bunching at the start of long ones.
    """
    warmup, end = measurement_window(config)
    span = end - warmup
    seed = config.seed if seed is None else seed
    workers = max(1, len(config.model_names))

    crash = WorkerCrash(time=warmup + 0.30 * span, worker=0)
    straggler = KernelStraggler(start=warmup + 0.20 * span,
                                duration=0.30 * span, multiplier=4.0)
    spike = BandwidthSpike(start=warmup + 0.20 * span,
                           duration=0.30 * span, demand=1.5)
    storm = RequestStorm(start=warmup + 0.25 * span,
                         duration=0.20 * span, count=24 * workers)
    dropout = PerfDbDropout(time=warmup + 0.10 * span, fraction=0.25)

    events = {
        "crash": (crash,),
        "straggler": (straggler,),
        "bandwidth": (spike,),
        "storm": (storm,),
        "dropout": (dropout,),
        "mixed": (crash, straggler, spike, storm, dropout),
    }.get(name)
    if events is None:
        raise KeyError(
            f"unknown chaos scenario {name!r}; available: {CHAOS_SCENARIOS}")
    return FaultSchedule(events=events, seed=seed)


def default_guard(config: ExperimentConfig) -> SloGuard:
    """Guard rails for a chaos run of ``config``.

    Deadline is the cell's 2x-isolated SLO target with queueing headroom
    (4x: chaos latency is end-to-end, and bursts legitimately queue);
    admission depth bounds each queue at a few requests per worker.
    """
    deadline = 4.0 * max(slo_target(name, config.batch_size)
                         for name in set(config.model_names))
    return SloGuard(admission_depth=8, deadline=deadline,
                    max_retries=2, retry_backoff=1e-3)


@dataclass(frozen=True)
class ChaosCell:
    """One (policy, scenario) cell scored against its fault-free twin."""

    policy: str
    scenario: str
    result: ExperimentResult
    baseline: ExperimentResult

    @property
    def goodput_rps(self) -> float:
        return self.result.goodput_rps

    @property
    def goodput_ratio(self) -> float:
        """Goodput retained under faults (1.0 = unharmed)."""
        base = self.baseline.goodput_rps
        return self.result.goodput_rps / base if base > 0 else 0.0

    @property
    def slo_violation_delta(self) -> float:
        """Change in worst worker p95 vs fault-free, in seconds."""
        return self.result.max_p95() - self.baseline.max_p95()


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one resilience grid."""

    #: The base config (its ``policy`` is replaced per cell).
    config: ExperimentConfig
    guard: SloGuard
    cells: tuple[ChaosCell, ...]

    def cell(self, policy: str, scenario: str) -> ChaosCell:
        for c in self.cells:
            if c.policy == policy and c.scenario == scenario:
                return c
        raise KeyError(f"no chaos cell ({policy!r}, {scenario!r})")

    def to_rows(self) -> list[dict]:
        """Flat JSON-native rows (one per cell) for the CLI/automation."""
        rows = []
        for c in self.cells:
            res = c.result.resilience
            rows.append({
                "policy": c.policy,
                "scenario": c.scenario,
                "goodput_rps": c.goodput_rps,
                "goodput_ratio": c.goodput_ratio,
                "baseline_goodput_rps": c.baseline.goodput_rps,
                "p95_delta_s": c.slo_violation_delta,
                "shed": res.shed if res else 0,
                "retried": res.retried if res else 0,
                "degraded": res.degraded if res else 0,
                "crashes": res.crashes if res else 0,
                "faults_injected": res.faults_injected if res else 0,
            })
        return rows

    def to_text(self) -> str:
        """Fixed-width grid for the terminal."""
        header = (f"{'policy':<16} {'scenario':<10} {'goodput':>9} "
                  f"{'retain':>7} {'dp95':>9} {'shed':>5} {'retry':>5} "
                  f"{'degr':>5}")
        lines = [header, "-" * len(header)]
        for row in self.to_rows():
            lines.append(
                f"{row['policy']:<16} {row['scenario']:<10} "
                f"{row['goodput_rps']:>9.1f} "
                f"{row['goodput_ratio']:>6.1%} "
                f"{row['p95_delta_s'] * 1e3:>8.2f}m "
                f"{row['shed']:>5d} {row['retried']:>5d} "
                f"{row['degraded']:>5d}"
            )
        return "\n".join(lines)


def run_chaos(
    config: ExperimentConfig,
    policies: Sequence[str],
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    *,
    options: Optional[RunOptions] = None,
    jobs: Optional[int] = None,
    store: Optional[ContentStore] = default_cache(),
    progress: Optional[ProgressFn] = None,
) -> ChaosReport:
    """Run the policy × scenario resilience grid over ``config``.

    A policy's cells are ``replace(config, policy=policy)``.  Every cell
    (including each policy's fault-free baseline) runs with the same
    :class:`SloGuard` — ``options.guard``, else :func:`default_guard` —
    so deltas isolate the *faults*, not the guard rails.
    ``options.faults`` is rejected (each scenario builds its own
    schedule), as are the observers and audits a pooled grid cannot
    carry.  The tail is every grid runner's (:mod:`repro.exp.cells`); a
    failed cell raises ``RuntimeError``.
    """
    opts = reject_unsupported("run_chaos", options, "tracer", "recorder",
                              "metrics", "audit", "workload", "faults")
    configs = {policy: replace(config, policy=policy) for policy in policies}
    guard = opts.guard if opts.guard is not None else default_guard(config)

    # Each policy's fault-free baseline (scenario None) runs first.
    grid = [(policy, scenario)
            for policy in configs
            for scenario in (None, *scenarios)]
    cells = [ExperimentCell(
        configs[policy],
        build_scenario(scenario, configs[policy]) if scenario else None,
        guard, tag=f"{policy}/{scenario or 'baseline'}")
        for policy, scenario in grid]
    results = dict(zip(grid, results_or_raise(
        run_cells(cells, jobs, store, progress=progress))))

    return ChaosReport(
        config=config,
        guard=guard,
        cells=tuple(
            ChaosCell(policy=policy, scenario=scenario,
                      result=results[(policy, scenario)],
                      baseline=results[(policy, None)])
            for policy in configs for scenario in scenarios),
    )
