"""The shared harness-option surface for every experiment runner.

Every runner grew the same observability and resilience keywords one PR
at a time — ``tracer=``, ``recorder=``, ``metrics=``, ``faults=``,
``guard=``, ``audit=``, ``workload=`` — and a second device would have
doubled the sprawl.  :class:`RunOptions` is the one frozen
carrier for all of them: build it once, pass it as ``options=`` to a
single run (:func:`~repro.server.experiment.run_experiment`,
:func:`~repro.server.rate_experiment.run_rate_experiment`,
:func:`~repro.cluster.experiment.run_cluster_experiment`), to
:func:`~repro.exp.cells.cached_run_experiment`, or to any grid runner
(:func:`~repro.exp.sweep.run_sweep`, :func:`~repro.exp.load
.run_load_curve`, :func:`~repro.exp.chaos.run_chaos`,
:func:`~repro.cluster.fleet.run_fleet`).

Each runner supports a subset of the fields (``run_experiment`` has no
``workload``; a grid cannot carry a live ``tracer`` across a process
pool) and rejects the rest via :func:`reject_unsupported` so a
misdirected option fails loudly instead of being silently dropped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["RunOptions", "reject_unsupported"]

@dataclass(frozen=True)
class RunOptions:
    """Shared harness options accepted by every experiment runner.

    All fields default to "off", so ``RunOptions()`` is equivalent to
    calling a runner with no harness keywords at all.  The dataclass is
    frozen: derive variants with :meth:`replace`.
    """

    #: Event tracer (:class:`~repro.obs.tracer.EventTracer`) attached to
    #: the simulator; pure observation, never perturbs results.
    tracer: Any = None
    #: Flight recorder (:class:`~repro.obs.flight.FlightRecorder`) for
    #: per-request latency attribution.
    recorder: Any = None
    #: Metrics registry (:class:`~repro.obs.metrics.MetricsRegistry`);
    #: when given, a :class:`~repro.obs.sampler.SimSampler` samples it
    #: at the sampler's default interval.
    metrics: Any = None
    #: Fault schedule (:class:`~repro.faults.schedule.FaultSchedule`)
    #: armed against the run.
    faults: Any = None
    #: SLO guard (:class:`~repro.server.slo.SloGuard`) for admission
    #: control, deadline shedding and retry budgets.
    guard: Any = None
    #: Post-run audit hook ``audit(setup, injector)`` (see
    #: :mod:`repro.check`): runs before teardown, may raise.
    audit: Optional[Callable[..., Any]] = None
    #: Workload spec (open-loop runners only).
    workload: Any = None

    def replace(self, **changes: Any) -> "RunOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


def reject_unsupported(caller: str, options: Optional[RunOptions],
                       *fields: str) -> RunOptions:
    """Raise if ``options`` sets a field ``caller`` cannot honour;
    otherwise return it (``RunOptions()`` for ``None``).

    A silently-ignored tracer or workload would corrupt an analysis
    without a trace; unsupported fields are a hard error instead.
    """
    defaults = RunOptions()
    if options is None:
        return defaults
    offending = [name for name in fields
                 if getattr(options, name) != getattr(defaults, name)]
    if offending:
        raise ValueError(
            f"{caller}() does not support RunOptions field(s) "
            f"{', '.join(sorted(offending))}")
    return options
