"""Inference frontend: the closed-loop load generator.

The paper's evaluation "drives the GPU and inference server at maximum
load", which :class:`ClosedLoopClient` models: a fixed number of
outstanding requests per worker, each completion immediately re-arming a
new request.  Open-loop load, for rate-driven studies beyond the paper's
evaluation, has one client: :class:`~repro.workload.client
.WorkloadClient`.
"""

from __future__ import annotations

from repro.server.request import InferenceRequest, RequestQueue
from repro.sim.engine import Simulator

__all__ = ["ClosedLoopClient"]


class ClosedLoopClient:
    """Keeps ``concurrency`` requests outstanding until ``stop_time``.

    Wire its :meth:`on_request_complete` as the workers' completion
    callback; each completion enqueues a fresh request, so the server
    never idles (maximum load).
    """

    def __init__(
        self,
        sim: Simulator,
        queue: RequestQueue,
        model_name: str,
        batch_size: int,
        concurrency: int,
        stop_time: float = float("inf"),
        retry_backoff: float = 1e-3,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.sim = sim
        self.queue = queue
        self.model_name = model_name
        self.batch_size = batch_size
        self.stop_time = stop_time
        self.retry_backoff = retry_backoff
        self.issued = 0
        self.rejected = 0
        for _ in range(concurrency):
            self._issue()

    def _issue(self) -> None:
        if self.sim.now >= self.stop_time:
            return
        request = InferenceRequest(
            model_name=self.model_name,
            batch_size=self.batch_size,
            arrival_time=self.sim.now,
        )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.request_arrival(request)
        if self.queue.offer(request):
            self.issued += 1
        else:
            # Admission-controlled queue is full.  Re-arm after a backoff
            # rather than immediately, or the closed loop would spin at
            # the same timestamp against a queue that cannot drain yet.
            self.rejected += 1
            self.sim.schedule_in(self.retry_backoff, self._issue)

    def on_request_complete(self, request: InferenceRequest) -> None:
        """Worker completion callback: re-arm one request.

        Fault-injected storm requests re-arm nothing — they are one-shot
        extras on top of the closed loop, not part of its concurrency.
        """
        if request.injected:
            return
        self._issue()
