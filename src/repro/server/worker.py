"""Inference workers.

A worker owns one GPU stream, dequeues request batches, performs host-side
pre-processing, enqueues the model's kernel trace, waits for the last
kernel, and post-processes.  Workers are independent of each other (the
paper's design), so concurrent inference execution on the same GPU falls
out of running several workers.

Host-side pre/post-processing times carry small stochastic jitter (from a
named RNG stream); that jitter is the only nondeterminism in the server
and produces the latency *tails* the SLO analysis measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Protocol, Sequence

import numpy as np

from repro.gpu.kernel import KernelDescriptor
from repro.server.request import InferenceRequest, RequestQueue
from repro.server.slo import SloGuard
from repro.sim.engine import Simulator
from repro.sim.process import Process, Signal

__all__ = ["HostCostModel", "Worker", "WorkerStats", "StreamLike"]


class StreamLike(Protocol):
    """What a worker needs from a stream (native or emulated)."""

    def launch_kernel(self, descriptor: KernelDescriptor,
                      tag: str = "") -> Signal: ...

    def synchronize_signal(self) -> Signal: ...


@dataclass(frozen=True)
class HostCostModel:
    """Host-side request handling costs.

    ``pre_mean``/``post_mean`` are the mean pre/post-processing times; the
    actual draw is gamma-distributed with shape ``jitter_shape`` (higher =
    tighter), giving realistic right-skewed host tails.
    """

    pre_mean: float = 250e-6
    post_mean: float = 150e-6
    jitter_shape: float = 8.0

    def draw(self, mean: float, rng: np.random.Generator) -> float:
        """One jittered host delay."""
        if mean <= 0:
            return 0.0
        return float(rng.gamma(self.jitter_shape, mean / self.jitter_shape))


@dataclass
class WorkerStats:
    """Per-worker measurement log."""

    completed: list[InferenceRequest] = field(default_factory=list)
    requests_processed: int = 0
    #: Requests dropped by a guard rail (kept out of ``completed`` so
    #: latency statistics never see them).
    shed: list[InferenceRequest] = field(default_factory=list)
    shed_deadline: int = 0

    def latencies_in(self, start: float, end: float) -> list[float]:
        """Service latencies of requests completed inside the window."""
        return [r.service_latency for r in self.completed
                if r.completion_time is not None
                and start <= r.completion_time <= end]

    def completions_in(self, start: float, end: float) -> int:
        """Number of requests completed inside the window."""
        return sum(1 for r in self.completed
                   if r.completion_time is not None
                   and start <= r.completion_time <= end)


class Worker:
    """One inference worker bound to a stream and a model trace."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        stream: StreamLike,
        segments: Sequence[tuple[Sequence[KernelDescriptor], float]],
        queue: RequestQueue,
        rng: np.random.Generator,
        host_costs: Optional[HostCostModel] = None,
        stop_time: float = float("inf"),
        on_complete: Optional["Callable[[InferenceRequest], None]"] = None,
        guard: Optional[SloGuard] = None,
        segments_for: Optional[
            "Callable[[InferenceRequest], Sequence]"] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.stream = stream
        self.segments = [(list(burst), gap) for burst, gap in segments]
        self.queue = queue
        self.rng = rng
        self.host_costs = host_costs or HostCostModel()
        self.stop_time = stop_time
        self.on_complete = on_complete
        self.guard = guard
        #: Per-request segment override (LLM variable output lengths);
        #: ``None`` serves the static ``segments`` for every request.
        self.segments_for = segments_for
        self.stats = WorkerStats()
        self.crashed = False
        self.crashes = 0
        self.restarts = 0
        # Crash epoch: crash() bumps it, and a generator resumed under a
        # newer epoch (its wakeup was already in flight) exits silently.
        self._epoch = 0
        self._current: Optional[InferenceRequest] = None
        self.process = Process(sim, self._run(), name=name)

    @property
    def kernel_count(self) -> int:
        """Kernels per request (sizes the restart reload cost)."""
        return sum(len(burst) for burst, _gap in self.segments)

    @property
    def in_flight(self) -> Optional[InferenceRequest]:
        """The request currently being served, if any.

        Public read-only view for the request-accounting audit
        (:func:`repro.check.invariants.request_conservation`): a popped
        request is either completed, deadline-shed, orphaned by a crash,
        or still here.
        """
        return self._current

    def crash(self) -> Optional[InferenceRequest]:
        """Kill the worker now; returns its orphaned in-flight request.

        Kernels already resident on the device run to retirement (the
        hardware does not crash), but the worker never observes them and
        the request is never completed — the caller decides whether to
        re-queue it.  The worker stays dead until :meth:`restart`.
        """
        if self.crashed:
            return None
        self._epoch += 1
        self.crashed = True
        self.crashes += 1
        orphan = self._current
        self._current = None
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.worker_crashed(self.name,
                                  self.stream.synchronize_signal())
        return orphan

    def restart(self) -> None:
        """Bring a crashed worker back (after the reload cost elapsed)."""
        if not self.crashed:
            return
        self.crashed = False
        self.restarts += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.worker_restarted(self.name)
        self.process = Process(self.sim, self._run(), name=self.name)

    def _shed(self, request: InferenceRequest, reason: str) -> None:
        request.shed = True
        self.stats.shed.append(request)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.request_shed(request, reason)
        # Still report upstream so a closed-loop client re-arms; the
        # request carries ``shed`` so nobody mistakes it for a completion.
        if self.on_complete is not None:
            self.on_complete(request)

    def _run(self) -> Iterator:
        costs = self.host_costs
        guard = self.guard
        epoch = self._epoch
        while self.sim.now < self.stop_time:
            yield self.queue.get_signal()
            if self._epoch != epoch:
                return
            if self.sim.now >= self.stop_time:
                break
            request = self.queue.pop()
            if (guard is not None and guard.deadline is not None
                    and self.sim.now - request.arrival_time > guard.deadline):
                # Its deadline already passed in the queue: serving it
                # would burn GPU time on a response nobody is waiting for.
                self.stats.shed_deadline += 1
                self._shed(request, "deadline")
                continue
            self._current = request
            request.start_time = self.sim.now
            tracer = self.sim.tracer
            traced = tracer.enabled
            # Service-phase boundaries thread ``mark`` so consecutive
            # phases share their boundary timestamp bitwise — the exact
            # tiling the latency-attribution decomposition relies on.
            mark = request.start_time
            if traced:
                tracer.request_dequeued(request, self.name)
            yield costs.draw(costs.pre_mean, self.rng)
            if self._epoch != epoch:
                return
            if traced:
                now = self.sim.now
                tracer.service_phase(request, self.name, "host_pre",
                                     mark, now)
                mark = now
            segments = self.segments if self.segments_for is None \
                else self.segments_for(request)
            for burst, gap in segments:
                for desc in burst:
                    self.stream.launch_kernel(desc, tag=self.name)
                yield self.stream.synchronize_signal()
                if self._epoch != epoch:
                    return
                if traced:
                    now = self.sim.now
                    tracer.service_phase(request, self.name, "burst",
                                         mark, now)
                    mark = now
                if gap > 0:
                    yield gap
                    if self._epoch != epoch:
                        return
                    if traced:
                        now = self.sim.now
                        tracer.service_phase(request, self.name, "gap",
                                             mark, now)
                        mark = now
            yield costs.draw(costs.post_mean, self.rng)
            if self._epoch != epoch:
                return
            request.completion_time = self.sim.now
            self._current = None
            if traced:
                tracer.service_phase(request, self.name, "host_post",
                                     mark, request.completion_time)
                tracer.request_completed(request, self.name)
            self.stats.completed.append(request)
            self.stats.requests_processed += 1
            if self.on_complete is not None:
                self.on_complete(request)
