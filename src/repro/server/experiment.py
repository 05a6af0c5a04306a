"""Co-location experiments at maximum load (the Fig. 13 harness).

:func:`run_experiment` assembles one experiment cell — a device, a
partitioning policy, N workers each closed-loop-driven with one model —
runs it for an auto-sized measurement window, and reports throughput,
tail latency, and energy per inference.  :func:`isolated_baseline` runs
the 1-worker unrestricted reference everything is normalised against
(and that defines the 2x SLO target).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.gpu.cu_mask import CUMask
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.topology import GpuTopology
from repro.models.zoo import get_model
from repro.profiling.model_profiler import run_inference_once
from repro.server.metrics import LatencyStats
from repro.server.options import RunOptions, reject_unsupported
from repro.server.slo import ResilienceStats, SloGuard

__all__ = [
    "ExperimentConfig",
    "WorkerResult",
    "ExperimentResult",
    "run_experiment",
    "isolated_baseline",
    "measurement_window",
    "normalized_rps",
    "slo_target",
    "SLO_FACTOR",
]

#: SLO definition shared with prior spatially partitioned servers:
#: 2x the isolated inference tail latency (Section VI-B).
SLO_FACTOR = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell.

    ``model_names`` has one entry per worker (repeat a name for N workers
    of the same model; mix names for Fig. 15's pairs).  ``requests_scale``
    stretches the auto-sized measurement window for tighter tails.
    """

    model_names: tuple[str, ...]
    policy: str = "mps-default"
    batch_size: int = 32
    seed: int = 0
    emulated: bool = False
    overlap_limit: Optional[int] = None
    requests_scale: float = 1.0
    #: Ablation knobs: intra-CU interference exponent and the memory
    #: bandwidth budget of the execution model (None = model defaults).
    intra_cu_alpha: Optional[float] = None
    mem_bandwidth_budget: Optional[float] = None
    #: False selects the literal single-pass Algorithm 1 allocation
    #: (ragged masks) instead of the balanced two-pass refinement.
    allocator_reshape: bool = True
    #: Mask-allocation policy for the KRISP policies: ``"krisp"``
    #: (per-kernel Algorithm 1), ``"pooled"`` (ECLIP-style pre-generated
    #: pools), or ``"pooled-contention"`` (pools plus the
    #: memory-interference co-residency bias).  Ignored by the MPS
    #: baselines, which do not allocate per-kernel masks.
    allocation: str = "krisp"
    #: Right-sizing policy: ``"static"`` (perf-DB oracle) or
    #: ``"predictive"`` (online bandwidth/straggler-aware shrinking over
    #: the oracle).
    sizing: str = "static"

    def __post_init__(self) -> None:
        if not self.model_names:
            raise ValueError("at least one worker is required")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.requests_scale <= 0:
            raise ValueError("requests_scale must be > 0")
        from repro.core.pools import ALLOCATION_POLICIES, SIZING_POLICIES
        if self.allocation not in ALLOCATION_POLICIES:
            raise ValueError(
                f"unknown allocation {self.allocation!r}; "
                f"available: {list(ALLOCATION_POLICIES)}")
        if self.sizing not in SIZING_POLICIES:
            raise ValueError(
                f"unknown sizing {self.sizing!r}; "
                f"available: {list(SIZING_POLICIES)}")

    def exec_config(self) -> ExecutionModelConfig:
        """Execution-model configuration with ablation overrides applied."""
        base = ExecutionModelConfig()
        kwargs = {}
        if self.intra_cu_alpha is not None:
            kwargs["intra_cu_alpha"] = self.intra_cu_alpha
        if self.mem_bandwidth_budget is not None:
            kwargs["mem_bandwidth_budget"] = self.mem_bandwidth_budget
        if not kwargs:
            return base
        from dataclasses import replace
        return replace(base, **kwargs)


@dataclass(frozen=True)
class WorkerResult:
    """Measured behaviour of one worker inside the window."""

    model_name: str
    requests_completed: int
    rps: float
    latency: LatencyStats


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate measurements of one experiment cell."""

    config: ExperimentConfig
    workers: tuple[WorkerResult, ...]
    window: float
    total_rps: float
    energy_joules: float
    energy_per_request: float
    gpu_utilization: float
    #: High-water mark of simultaneously busy CUs over the whole run
    #: (from the Resource Monitor's per-CU kernel counters).
    peak_cu_occupancy: int = 0
    #: Shed/retry/degraded/goodput accounting; ``None`` on an unguarded,
    #: fault-free run (keeping its cached payload byte-stable).
    resilience: Optional[ResilienceStats] = None

    @property
    def goodput_rps(self) -> float:
        """Deadline-met throughput; equals ``total_rps`` when unguarded."""
        if self.resilience is None:
            return self.total_rps
        return self.resilience.goodput_rps

    @property
    def shed_requests(self) -> int:
        """Requests dropped by guard rails (0 when unguarded)."""
        return self.resilience.shed if self.resilience is not None else 0

    def worker_p95(self, index: int) -> float:
        """p95 service latency of one worker, in seconds."""
        return self.workers[index].latency.p95

    def max_p95(self) -> float:
        """Worst worker p95 in the cell."""
        return max(w.latency.p95 for w in self.workers)

    def meets_slo(self) -> bool:
        """Whether every worker meets its model's 2x-isolated SLO."""
        return all(
            w.latency.p95 <= slo_target(w.model_name, self.config.batch_size)
            for w in self.workers
        )


@lru_cache(maxsize=None)
def _isolated_pass_latency(model_name: str, batch_size: int) -> float:
    """Latency of one inference pass alone on the full device."""
    model = get_model(model_name)
    gpu_time = run_inference_once(
        model.trace(batch_size), CUMask.all_cus(GpuTopology.mi50())
    )
    return gpu_time + model.host_gap_total(batch_size)


def measurement_window(config: ExperimentConfig) -> tuple[float, float]:
    """Auto-sized (warmup, measurement end) from the slowest model.

    Public so fault schedules and chaos scenarios can place events
    inside the measured region of a cell they have not run yet.
    """
    base = max(_isolated_pass_latency(name, config.batch_size)
               for name in config.model_names)
    workers = len(config.model_names)
    warmup = max(0.02, 2.0 * base * workers)
    measure = max(0.3, 16.0 * base * workers) * config.requests_scale
    return warmup, warmup + measure


def run_experiment(
    config: ExperimentConfig,
    options: Optional[RunOptions] = None,
    *,
    stats_out: Optional[dict] = None,
) -> ExperimentResult:
    """Run one co-location cell and return its measurements.

    Harness options — tracer, recorder, metrics, sample interval, fault
    schedule, SLO guard, post-run audit — travel in a single frozen
    :class:`~repro.server.options.RunOptions` passed as ``options=``.
    ``RunOptions.workload`` is rejected: this runner is closed-loop.

    ``stats_out`` (a plain dict) receives the engine's
    ``events_executed`` count (reported by :mod:`repro.check.scenarios`);
    the measurement payload itself stays byte-stable.

    ``options.audit`` (a callable taking ``(setup, injector)``) runs once
    after the run completes, with the live :class:`ServingSetup` and the
    :class:`~repro.faults.injector.FaultInjector` (or ``None``), so the
    audit subsystem (:mod:`repro.check`) can inspect end-of-run state —
    queues, workers, device structures — that the result payload does
    not carry.  Observation only: it runs after every measurement is
    already fixed and has no effect on the returned result.

    ``options.tracer`` (a :class:`repro.obs.Tracer`) records the
    request/kernel/mask-decision timeline; ``recorder`` (a :class:`repro.obs.flight
    .FlightRecorder`) captures per-request flights for latency
    attribution (:mod:`repro.obs.attribution`); ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives periodic
    occupancy/load/queue-depth samples every ``sample_interval``
    simulated seconds.  All default to off and add no overhead when
    omitted.

    ``options.faults`` (a :class:`repro.faults.FaultSchedule`) injects the
    schedule's events during the run; ``guard`` (a :class:`repro.server
    .slo.SloGuard`) enables admission control, deadline shedding, and
    bounded retry.  When either is given the result carries
    :class:`~repro.server.slo.ResilienceStats`; when both are ``None``
    the run is bit-identical to the pre-fault-layer harness.
    """
    from repro.server.setup import ServingSetup

    opts = options if options is not None else RunOptions()
    reject_unsupported("run_experiment", opts, "workload")
    tracer, recorder, metrics = opts.tracer, opts.recorder, opts.metrics
    sample_interval = opts.sample_interval
    faults, guard, audit = opts.faults, opts.guard, opts.audit

    setup = ServingSetup.build(
        config,
        rng_label=(f"{'-'.join(config.model_names)}/{config.policy}"
                   f"/{config.batch_size}"),
        tracer=tracer,
        guard=guard,
        recorder=recorder,
    )
    sim, device = setup.sim, setup.device

    warmup, end = measurement_window(config)
    for i in range(len(setup.plans)):
        setup.add_closed_loop_worker(i, stop_time=end)

    injector = None
    if faults is not None and len(faults):
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(setup, faults, metrics=metrics)

    if metrics is not None:
        setup.start_sampler(metrics, sample_interval, stop_time=end)

    energy_marks: dict[str, float] = {}

    def snapshot(label: str) -> None:
        device.finalize()
        energy_marks[label] = device.meter.energy_joules

    sim.schedule(warmup, lambda: snapshot("warmup"), priority=-10)
    sim.schedule(end, lambda: snapshot("end"), priority=10)
    sim.run(until=end)
    snapshot("final")
    if stats_out is not None:
        stats_out["events_executed"] = sim.events_executed
    if audit is not None:
        audit(setup, injector)

    faulted = guard is not None or injector is not None
    window = end - warmup
    worker_results = []
    total_requests = 0
    for plan, worker in zip(setup.plans, setup.workers):
        latencies = worker.stats.latencies_in(warmup, end)
        completed = worker.stats.completions_in(warmup, end)
        if not latencies and not faulted:
            raise RuntimeError(
                f"worker for {plan.model.name} completed no requests in the "
                f"measurement window; widen requests_scale"
            )
        total_requests += completed
        worker_results.append(WorkerResult(
            model_name=plan.model.name,
            requests_completed=completed,
            rps=completed * plan.batch_size / window,
            latency=(LatencyStats.from_samples(latencies) if latencies
                     else LatencyStats.empty()),
        ))

    resilience = None
    if faulted:
        resilience = setup.resilience_stats(
            window_start=warmup, window_end=end, injector=injector)

    energy = energy_marks["end"] - energy_marks["warmup"]
    return ExperimentResult(
        config=config,
        workers=tuple(worker_results),
        window=window,
        total_rps=sum(w.rps for w in worker_results),
        energy_joules=energy,
        energy_per_request=energy / max(1, total_requests),
        gpu_utilization=device.meter.utilization(sim.now),
        peak_cu_occupancy=device.counters.peak_busy_cus,
        resilience=resilience,
    )


@lru_cache(maxsize=None)
def isolated_baseline(model_name: str, batch_size: int = 32,
                      seed: int = 0) -> ExperimentResult:
    """The 1-worker unrestricted reference cell for ``model_name``.

    Routed through the content-addressed result cache (lazily imported —
    :mod:`repro.exp.cells` depends on this module) so a warm sweep re-run
    does not recompute the normalisation baselines either.
    """
    from repro.exp.cells import cached_run_experiment
    return cached_run_experiment(ExperimentConfig(
        model_names=(model_name,),
        policy="mps-default",
        batch_size=batch_size,
        seed=seed,
    ))


def slo_target(model_name: str, batch_size: int = 32) -> float:
    """SLO latency bound: 2x the isolated p95 (Section VI-B)."""
    return SLO_FACTOR * isolated_baseline(model_name, batch_size).max_p95()


def normalized_rps(result: ExperimentResult) -> float:
    """System throughput in units of isolated single-worker throughput.

    Each worker's RPS is normalised by its own model's isolated RPS and
    the shares are summed — the Fig. 13a/15 y-axis.
    """
    total = 0.0
    for worker in result.workers:
        base = isolated_baseline(worker.model_name,
                                 result.config.batch_size).total_rps
        total += worker.rps / base
    return total
