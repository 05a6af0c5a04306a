"""The workload client: compiles a spec into sim-clock request injection.

The only open-loop injection loop.  One client per run hands each
request to a ``deliver`` callable: the per-model queue's ``offer`` on one
device (:meth:`~repro.server.setup.ServingSetup.add_workload`), and
:meth:`~repro.cluster.router.ClusterRouter.route` on a fleet.  A plain
``offered_rps`` run is a homogeneous Poisson spec through this same
client.

For generative arrival processes it runs a ``workload-client`` process:
draw one gap from the ``arrivals`` RNG stream, sleep, emit.
Heterogeneous mixes draw the request class from a *separate*
``workload-mix`` stream and LLM output lengths from ``workload-lengths``,
keeping the arrival gaps themselves invariant across mix changes.

Trace replay (a :class:`~repro.workload.spec.TraceWorkloadSpec`, or any
spec whose arrivals are a :class:`~repro.workload.arrivals
.TraceArrivals`) schedules each emission at its *absolute* timestamp, so
the injected arrival times reproduce the input trace exactly instead of
re-accumulating float gaps.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.server.request import InferenceRequest
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.workload.arrivals import TraceArrivals
from repro.workload.spec import TraceWorkloadSpec, WorkloadSpec

__all__ = ["WorkloadClient"]


class WorkloadClient:
    """Open-loop request injection for one workload spec.

    ``deliver`` receives every injected request.  Arrivals it rejects
    (admission control, or no route) are simply lost — the receiver
    counts them as shed and the next arrival is drawn regardless,
    preserving the offered rate (open-loop semantics).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: WorkloadSpec,
        deliver: Callable[[InferenceRequest], object],
        rng: RngRegistry,
        stop_time: float,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.deliver = deliver
        self.stop_time = stop_time
        self.issued = 0
        self.process: Optional[Process] = None

        if isinstance(spec, TraceWorkloadSpec):
            for entry in spec.entries:
                if entry.time >= stop_time:
                    continue
                sim.schedule(entry.time, lambda e=entry: self._emit(
                    e.model, e.batch_size, e.output_tokens))
            return

        classes = spec.request_classes()
        self._classes = classes
        self._arrivals_rng = rng.stream("arrivals")
        self._mix_rng = rng.stream("workload-mix") \
            if len(classes) > 1 else None
        self._total_weight = sum(c.weight for c in classes)
        self._lengths_rng = rng.stream("workload-lengths") \
            if any(c.output_tokens is not None for c in classes) else None

        if isinstance(spec.arrivals, TraceArrivals):
            # Absolute-time replay: exact input timestamps.
            for t in spec.arrivals.times:
                if t >= stop_time:
                    continue
                sim.schedule(t, self._emit_drawn_class)
        else:
            self.process = Process(sim, self._run(), name="workload-client")

    # -- generative arrivals ------------------------------------------------
    def _run(self) -> Iterator:
        for gap in self.spec.arrivals.gaps(self._arrivals_rng):
            yield gap
            if self.sim.now >= self.stop_time:
                return
            self._emit_drawn_class()

    def _draw_class(self) -> int:
        if self._mix_rng is None:
            return 0
        draw = float(self._mix_rng.random()) * self._total_weight
        acc = 0.0
        for index, cls in enumerate(self._classes):
            acc += cls.weight
            if draw < acc:
                return index
        return len(self._classes) - 1

    def _emit_drawn_class(self) -> None:
        cls = self._classes[self._draw_class()]
        tokens: Optional[int] = None
        if cls.output_tokens is not None:
            lo, hi = cls.output_tokens
            tokens = int(self._lengths_rng.integers(lo, hi + 1))
        self._emit(cls.model, cls.batch_size, tokens)

    # -- emission -----------------------------------------------------------
    def _emit(self, model: str, batch_size: int,
              output_tokens: Optional[int]) -> None:
        request = InferenceRequest(
            model_name=model,
            batch_size=batch_size,
            arrival_time=self.sim.now,
            output_tokens=output_tokens,
        )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.request_arrival(request)
        self.deliver(request)
        self.issued += 1
