"""Shared serving-stack assembly: one builder for every harness.

Before this module, the closed-loop harness (:mod:`repro.server
.experiment`), the open-loop harness (:mod:`repro.server.rate_experiment`)
and any new runner each re-derived the same nine lines of wiring —
topology, simulator, device, seeded RNG fork, worker plans, policy,
streams — and drift between the copies silently invalidated cached
results.  :class:`ServingSetup` is that wiring, once: :meth:`ServingSetup
.build` performs the construction in the exact historical order (object
creation order determines event sequence numbers at t=0, so reordering
would change results), and the harnesses add their load shape on top
through :meth:`add_closed_loop_worker` / :meth:`add_workload`.

The builder also carries the robustness surface: an optional
:class:`~repro.server.slo.SloGuard` threaded into every queue and worker
it creates, and the degraded/shed/crash accounting
(:meth:`resilience_stats`) every guarded run reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gpu.device import GpuDevice
from repro.gpu.topology import GpuTopology
from repro.models.zoo import get_model
from repro.server.frontend import ClosedLoopClient
from repro.server.policies import Policy, WorkerPlan, get_policy
from repro.server.request import RequestQueue
from repro.server.slo import ResilienceStats, SloGuard
from repro.server.worker import HostCostModel, Worker
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["ServingSetup"]


@dataclass
class ServingSetup:
    """A fully wired serving cell, ready for a load generator.

    Construct with :meth:`build`; then attach workers/clients.  All
    mutable collections are appended in creation order — the order is
    load-bearing for determinism and must not be shuffled.
    """

    config: "ExperimentConfig"
    sim: Simulator
    device: GpuDevice
    topology: GpuTopology
    rng: RngRegistry
    plans: list[WorkerPlan]
    policy: Policy
    streams: list
    guard: Optional[SloGuard] = None
    queues: list[RequestQueue] = field(default_factory=list)
    workers: list[Worker] = field(default_factory=list)
    clients: list = field(default_factory=list)
    #: queue -> (model_name, batch_size); what a storm injects there.
    queue_models: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        config: "ExperimentConfig",
        *,
        rng_label: str,
        tracer=None,
        guard: Optional[SloGuard] = None,
        recorder=None,
        sim: Optional[Simulator] = None,
    ) -> "ServingSetup":
        """Assemble device, RNG, policy, and streams for ``config``.

        ``rng_label`` is the registry fork label — each harness keeps its
        historical label (changing it changes every random draw).

        ``recorder`` (a :class:`~repro.obs.flight.FlightRecorder`) is a
        second tracer-protocol observer; when both ``tracer`` and
        ``recorder`` are given they are fanned out through a
        :class:`~repro.obs.flight.TeeTracer`.  Pure observation either
        way — results are bit-identical with and without it.

        ``sim`` injects an existing simulator so several setups (one per
        fleet node) share one event clock; the default path constructs
        its own in the exact historical position (object creation order
        determines event sequence numbers at t=0).  A shared simulator
        already carries its tracer, so ``tracer``/``recorder`` must be
        ``None`` then.
        """
        if sim is not None and (tracer is not None or recorder is not None):
            raise ValueError(
                "tracer/recorder belong to the shared simulator; attach "
                "them where it is created, not per setup")
        if recorder is not None:
            from repro.obs.flight import compose_tracers
            tracer = compose_tracers(tracer, recorder)
        topology = GpuTopology.mi50()
        if sim is None:
            sim = Simulator(tracer=tracer)
        device = GpuDevice(sim, topology, exec_config=config.exec_config())
        rng = RngRegistry(config.seed).fork(rng_label)
        plans = [WorkerPlan(get_model(name), config.batch_size)
                 for name in config.model_names]
        policy = get_policy(config.policy, config.krisp_config(),
                            emulated=config.emulated)
        streams = policy.setup(sim, device, plans)
        return cls(config=config, sim=sim, device=device, topology=topology,
                   rng=rng, plans=plans, policy=policy, streams=streams,
                   guard=guard)

    # -- wiring -------------------------------------------------------------
    def new_queue(self, name: str, model_name: str,
                  batch_size: int) -> RequestQueue:
        """A request queue, admission-bounded when the guard says so."""
        depth = self.guard.admission_depth if self.guard is not None else None
        queue = RequestQueue(self.sim, name=name, max_depth=depth)
        self.queues.append(queue)
        self.queue_models[id(queue)] = (model_name, batch_size)
        return queue

    def add_worker(self, index: int, queue: RequestQueue, *,
                   stop_time: float, on_complete=None,
                   segments_for=None, name: Optional[str] = None) -> Worker:
        """Worker ``index`` over its plan/stream, on ``queue``.

        Names follow the historical scheme (``worker-{i}`` processes,
        ``host-{i}`` RNG streams) so seeded runs reproduce exactly;
        ``name`` overrides the process name (fleet nodes disambiguate
        their workers) without touching the RNG stream.
        ``segments_for`` optionally overrides the static plan segments
        per request (LLM variable output lengths).
        """
        plan = self.plans[index]
        worker = Worker(
            self.sim,
            name=name if name is not None else f"worker-{index}",
            stream=self.streams[index],
            segments=plan.model.segments(plan.batch_size, self.topology),
            queue=queue,
            rng=self.rng.stream(f"host-{index}"),
            host_costs=HostCostModel(),
            stop_time=stop_time,
            on_complete=on_complete,
            guard=self.guard,
            segments_for=segments_for,
        )
        self.workers.append(worker)
        return worker

    def add_closed_loop_worker(self, index: int, *,
                               stop_time: float) -> Worker:
        """One private queue + closed-loop client + worker (Fig. 13 shape)."""
        plan = self.plans[index]
        queue = self.new_queue(f"q{index}", plan.model.name, plan.batch_size)
        backoff = self.guard.retry_backoff if self.guard is not None else 1e-3
        client = ClosedLoopClient(
            self.sim, queue, plan.model.name, plan.batch_size,
            concurrency=1, stop_time=stop_time, retry_backoff=backoff,
        )
        self.clients.append(client)
        return self.add_worker(index, queue, stop_time=stop_time,
                               on_complete=client.on_request_complete)

    @staticmethod
    def _segments_fn(plan: WorkerPlan):
        """Per-request segment override for LLM plans (else ``None``)."""
        from repro.models.zoo import LlmModelSpec, llm_segments
        if not isinstance(plan.model, LlmModelSpec):
            return None
        name, batch = plan.model.name, plan.batch_size

        def segments_for(request):
            return llm_segments(name, batch, request.output_tokens)
        return segments_for

    def add_workload(self, spec, *, stop_time: float):
        """Queues + workload client + all workers for a workload spec.

        The caller has checked the spec against the deployment
        (:func:`~repro.workload.spec.check_deployment`).  When the whole
        deployment serves the spec's single model, every worker shares
        one ``shared`` queue (any worker may serve any request — the
        paper's frontend/queue/worker shape, and a plain-rate run's
        wiring).  Otherwise each class goes to a per-model ``wl-{model}``
        queue served by that model's workers (a worker only ever runs
        its own plan's kernels); workers of a configured model the spec
        never sends traffic to idle on an ``idle-{model}`` queue.
        """
        from repro.workload.client import WorkloadClient

        classes = spec.request_classes()
        single = (len({c.model for c in classes}) == 1
                  and all(plan.model.name == classes[0].model
                          for plan in self.plans))
        queue_for: dict[str, RequestQueue] = {}
        for cls in classes:
            if cls.model not in queue_for:
                name = "shared" if single else f"wl-{cls.model}"
                queue_for[cls.model] = self.new_queue(
                    name, cls.model, cls.batch_size)

        def deliver(request):
            return queue_for[request.model_name].offer(request)

        client = WorkloadClient(self.sim, spec, deliver, rng=self.rng,
                                stop_time=stop_time)
        self.clients.append(client)
        for index, plan in enumerate(self.plans):
            if single:
                queue = next(iter(queue_for.values()))
            elif plan.model.name in queue_for:
                queue = queue_for[plan.model.name]
            else:
                queue = self.new_queue(f"idle-{plan.model.name}",
                                       plan.model.name, plan.batch_size)
            self.add_worker(index, queue, stop_time=stop_time,
                            segments_for=self._segments_fn(plan))
        return client

    def start_sampler(self, metrics, stop_time: float,
                      prefix: str = "krisp"):
        """Attach the periodic occupancy/queue-depth sampler.

        ``prefix`` namespaces the metric families (fleet nodes use
        ``node{i}`` so one registry holds every device's series).
        Returns the sampler so callers can force off-cycle samples.
        """
        from repro.obs.sampler import SimSampler
        sampler = SimSampler(self.sim, self.device, metrics,
                             queues=self.queues, prefix=prefix)
        sampler.start(stop_time=stop_time)
        return sampler

    # -- accounting ---------------------------------------------------------
    def degraded_count(self) -> int:
        """Fallback-served launches across every right-sizer + allocator."""
        total = 0
        seen: set[int] = set()
        for stream in self.streams:
            allocator = stream.runtime.command_processor.allocator
            for source in (stream.rightsizer, allocator):
                if source is not None and id(source) not in seen:
                    seen.add(id(source))
                    total += source.degraded
        return total

    def resilience_stats(self, *, window_start: float, window_end: float,
                         injector=None) -> ResilienceStats:
        """Aggregate shed/retry/degraded/goodput accounting for the run.

        Goodput counts only completions inside the window that met the
        guard's deadline (every completion when no deadline is set),
        scaled by batch size — directly comparable to ``total_rps``.
        """
        deadline = self.guard.deadline if self.guard is not None else None
        window = window_end - window_start
        good = 0
        for worker in self.workers:
            for request in worker.stats.completed:
                if request.completion_time is None:
                    continue
                if not window_start <= request.completion_time <= window_end:
                    continue
                if deadline is None or request.latency <= deadline:
                    good += 1
        return ResilienceStats(
            shed_admission=sum(q.shed for q in self.queues),
            shed_deadline=sum(w.stats.shed_deadline for w in self.workers),
            shed_retries=injector.shed_retries if injector else 0,
            retried=injector.retried if injector else 0,
            degraded=self.degraded_count(),
            crashes=sum(w.crashes for w in self.workers),
            restarts=sum(w.restarts for w in self.workers),
            faults_injected=injector.injected if injector else 0,
            goodput_rps=good * self.config.batch_size / window,
        )
