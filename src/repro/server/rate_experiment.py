"""Open-loop (rate-driven) serving experiments.

The paper evaluates at maximum load; prior inference servers additionally
adapt to fluctuating request rates.  This extension drives a co-located
deployment with Poisson arrivals at a given rate (or any workload spec)
and measures end-to-end (queueing-inclusive) latency, enabling
max-sustainable-throughput searches under an SLO — the natural next
question a KRISP adopter asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.server.experiment import ExperimentConfig, slo_target
from repro.server.metrics import LatencyStats
from repro.server.options import RunOptions
from repro.server.slo import ResilienceStats, SloGuard

__all__ = ["RateResult", "default_rate_duration", "run_rate_experiment",
           "max_sustainable_rate"]


@dataclass(frozen=True)
class RateResult:
    """Outcome of one open-loop run."""

    offered_rps: float
    achieved_rps: float
    latency: LatencyStats
    queue_residue: int
    #: Shed/retry/degraded/goodput accounting; ``None`` on an unguarded,
    #: fault-free run.
    resilience: Optional[ResilienceStats] = None

    @property
    def saturated(self) -> bool:
        """Whether the server failed to keep up with the offered load.

        Judged by the backlog left in the request queue at the end of the
        run — under a sustainable rate the queue drains continuously.
        """
        return self.queue_residue > 2


def default_rate_duration(config: ExperimentConfig) -> float:
    """Default open-loop run length for ``config``.

    40x the slowest co-located model's SLO target, floored at one
    second — long enough for queueing to reach (or visibly diverge
    from) steady state.  Exposed so the load-curve cache can pin the
    actual duration into its key.
    """
    base = max(slo_target(name, config.batch_size)
               for name in config.model_names)
    return max(1.0, 40 * base)


def run_rate_experiment(
    config: ExperimentConfig,
    offered_rps: Optional[float] = None,
    duration: Optional[float] = None,
    options: Optional[RunOptions] = None,
) -> RateResult:
    """Drive the deployment open-loop and measure end-to-end latency.

    Every run injects a workload spec through
    :meth:`~repro.server.setup.ServingSetup.add_workload`.  With only
    ``offered_rps`` given, the spec is Poisson at that rate on the
    deployment's one model: all workers share one request queue (any
    worker may serve any request), matching the paper's
    frontend/queue/worker architecture.  Requests arrive in batches of
    ``config.batch_size``, so the arrival rate of batches is
    ``offered_rps / batch_size``.  A deployment of several models needs
    a spec that says which requests go where (``options.workload``).

    Harness options travel in a single frozen
    :class:`~repro.server.options.RunOptions` passed as ``options=``.

    Parameters
    ----------
    offered_rps:
        Offered load in requests per second.  Optional when
        ``options.workload`` is given (it then defaults to the spec's
        ``offered_rps()``); passing both requires them to agree (rescale
        the spec with ``at_rate``).  The rate names the run's RNG fork.
    duration:
        Run length in sim seconds; defaults to
        :func:`default_rate_duration`.
    options:
        A :class:`~repro.server.options.RunOptions`.  ``workload`` (a
        :mod:`repro.workload` spec) replaces the plain Poisson spec with
        the spec's arrival process and request mix; every class's
        ``batch_size`` must equal ``config.batch_size`` and its model
        must be configured.  ``tracer``/``recorder``/``metrics``/
        ``faults``/``guard``/``audit`` mirror
        :func:`repro.server.experiment.run_experiment` (the aligned
        option surface): observation hooks are pure, ``guard`` or a
        non-empty ``faults`` make the result carry
        :class:`~repro.server.slo.ResilienceStats`.
    """
    from repro.server.setup import ServingSetup
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.spec import HomogeneousWorkloadSpec, check_deployment

    opts = options if options is not None else RunOptions()
    workload, tracer, recorder = opts.workload, opts.tracer, opts.recorder
    metrics = opts.metrics
    faults, guard, audit = opts.faults, opts.guard, opts.audit

    if workload is None:
        if offered_rps is None or offered_rps <= 0:
            raise ValueError("offered_rps must be > 0")
        if len(set(config.model_names)) > 1:
            raise ValueError(
                "a plain offered_rps run serves a single model; pass "
                "RunOptions(workload=...) to say which requests go to "
                f"which of {sorted(set(config.model_names))}")
        workload = HomogeneousWorkloadSpec(
            config.model_names[0],
            PoissonArrivals(rate=offered_rps / config.batch_size),
            batch_size=config.batch_size)
    elif offered_rps is None:
        offered_rps = workload.offered_rps()
    elif not math.isclose(offered_rps, workload.offered_rps(),
                          rel_tol=1e-9):
        raise ValueError(
            f"offered_rps={offered_rps} differs from the workload's own "
            f"rate {workload.offered_rps()}; rescale the spec with "
            f"at_rate({offered_rps}) instead")
    check_deployment(workload, config.model_names, config.batch_size)
    setup = ServingSetup.build(config, rng_label=f"rate/{offered_rps}",
                               tracer=tracer, guard=guard,
                               recorder=recorder)
    sim = setup.sim

    if duration is None:
        duration = default_rate_duration(config)
    setup.add_workload(workload, stop_time=duration)

    injector = None
    if faults is not None and len(faults):
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(setup, faults, metrics=metrics)

    if metrics is not None:
        setup.start_sampler(metrics, stop_time=duration)

    sim.run(until=duration)
    if audit is not None:
        audit(setup, injector)

    faulted = guard is not None or injector is not None
    latencies = []
    completed = 0
    for worker in setup.workers:
        for request in worker.stats.completed:
            if request.completion_time is not None:
                latencies.append(request.latency)  # queueing-inclusive
                completed += 1
    if not latencies and not faulted:
        raise RuntimeError("no requests completed; offered rate too low "
                           "or duration too short")
    resilience = None
    if faulted:
        resilience = setup.resilience_stats(
            window_start=0.0, window_end=duration, injector=injector)
    return RateResult(
        offered_rps=offered_rps,
        achieved_rps=completed * config.batch_size / duration,
        latency=(LatencyStats.from_samples(latencies) if latencies
                 else LatencyStats.empty()),
        queue_residue=sum(len(q) for q in setup.queues),
        resilience=resilience,
    )


def max_sustainable_rate(
    config: ExperimentConfig,
    slo_latency: float,
    low_rps: float,
    high_rps: float,
    iterations: int = 6,
) -> float:
    """Binary-search the highest offered rate whose p95 meets the SLO."""
    if low_rps <= 0 or high_rps <= low_rps:
        raise ValueError("need 0 < low_rps < high_rps")
    best = 0.0
    for _ in range(iterations):
        mid = (low_rps + high_rps) / 2
        result = run_rate_experiment(config, mid)
        if not result.saturated and result.latency.p95 <= slo_latency:
            best = mid
            low_rps = mid
        else:
            high_rps = mid
    return best
