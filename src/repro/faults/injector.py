"""Drives a :class:`~repro.faults.schedule.FaultSchedule` into a live cell.

The injector arms every schedule event on the simulator clock at
construction; thereafter the events fire interleaved with normal serving.
Injection is purely deterministic — times and victims come from the
schedule, perf-DB dropout victims from its seed — so a fault-injected
run replays bit-identically across serial, pooled, and cached execution.

Crash handling implements the bounded-retry guard rail: a request caught
in flight on a crashed worker is re-queued after an exponential backoff
(``guard.retry_backoff * 2**(retries-1)``) at most ``guard.max_retries``
times, then shed.  Restarts pay the schedule's
:class:`~repro.faults.schedule.ReloadCostModel` cost scaled by the
worker's kernel count.

Every event is emitted through the tracer (``fault_injected`` instants
and ``fault_window`` spans on a dedicated ``faults`` timeline row) and,
when a registry is attached, counted in ``faults_injected_total`` /
``requests_retried_total`` / ``requests_shed_total`` metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.schedule import (
    BandwidthSpike,
    FaultSchedule,
    KernelStraggler,
    NodeCrash,
    PerfDbDropout,
    RequestStorm,
    WorkerCrash,
    event_kind,
)
from repro.server.request import InferenceRequest
from repro.server.slo import SloGuard

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms one fault schedule against one :class:`ServingSetup`."""

    def __init__(self, setup, schedule: FaultSchedule,
                 metrics=None) -> None:
        self.setup = setup
        self.schedule = schedule
        self.metrics = metrics
        self.guard = setup.guard if setup.guard is not None else SloGuard()
        self.injected = 0
        self.retried = 0
        self.shed_retries = 0
        self._arm()

    # -- arming -------------------------------------------------------------
    def _arm(self) -> None:
        sim = self.setup.sim
        for event in self.schedule.sorted_events():
            if isinstance(event, WorkerCrash):
                sim.schedule(event.time,
                             lambda e=event: self._crash(e))
            elif isinstance(event, KernelStraggler):
                sim.schedule(event.start,
                             lambda e=event: self._straggle_start(e))
                sim.schedule(event.start + event.duration,
                             lambda e=event: self._straggle_end(e))
            elif isinstance(event, BandwidthSpike):
                sim.schedule(event.start,
                             lambda e=event: self._spike_start(e))
                sim.schedule(event.start + event.duration,
                             lambda e=event: self._spike_end(e))
            elif isinstance(event, RequestStorm):
                self._arm_storm(event)
            elif isinstance(event, PerfDbDropout):
                sim.schedule(event.time,
                             lambda e=event: self._dropout(e))
            elif isinstance(event, NodeCrash):
                sim.schedule(event.time,
                             lambda e=event: self._node_crash(e))

    def _record(self, event, args: dict) -> None:
        self.injected += 1
        tracer = self.setup.sim.tracer
        if tracer.enabled:
            tracer.fault_injected(event_kind(event), args)
        if self.metrics is not None:
            self.metrics.counter("faults_injected_total",
                                 "Fault-schedule events injected",
                                 kind=event_kind(event)).inc()

    # -- worker crash + bounded retry ---------------------------------------
    def _crash(self, event: WorkerCrash) -> None:
        workers = self.setup.workers
        if not workers:
            return
        worker = workers[event.worker % len(workers)]
        orphan = worker.crash()
        self._record(event, {"worker": worker.name,
                             "restart": event.restart})
        if orphan is not None:
            self._retry(orphan, worker)
        if event.restart:
            reload_time = self.schedule.reload.reload_time(
                worker.kernel_count)
            self.setup.sim.schedule_in(reload_time, worker.restart)

    def _node_crash(self, event: NodeCrash) -> None:
        """Whole-node crash on a single-device setup: this setup *is*
        node 0, so every worker dies at once and the node restarts after
        one shared reload (workers reload in parallel).  Fleet runs route
        ``NodeCrash`` through the cluster fault driver instead."""
        workers = self.setup.workers
        if not workers:
            return
        self._record(event, {"node": event.node,
                             "restart": event.restart})
        orphans = []
        for worker in workers:
            orphan = worker.crash()
            if orphan is not None:
                orphans.append((orphan, worker))
        for orphan, worker in orphans:
            self._retry(orphan, worker)
        if event.restart:
            reload_time = self.schedule.reload.reload_time(
                max(worker.kernel_count for worker in workers))
            for worker in workers:
                self.setup.sim.schedule_in(reload_time, worker.restart)

    def _retry(self, request: InferenceRequest, worker) -> None:
        guard = self.guard
        tracer = self.setup.sim.tracer
        if request.retries >= guard.max_retries:
            self.shed_retries += 1
            request.shed = True
            if tracer.enabled:
                tracer.request_shed(request, "retries")
            if self.metrics is not None:
                self.metrics.counter("requests_shed_total",
                                     "Requests dropped by guard rails",
                                     reason="retries").inc()
            # Tell the loop the slot is free, same contract as worker
            # shedding (the request carries ``shed``).
            if worker.on_complete is not None:
                worker.on_complete(request)
            return
        request.retries += 1
        self.retried += 1
        backoff = guard.retry_backoff * (2.0 ** (request.retries - 1))
        if tracer.enabled:
            tracer.request_requeued(request, worker.name)
        if self.metrics is not None:
            self.metrics.counter("requests_retried_total",
                                 "Requests re-queued after crashes").inc()
        # Bypass admission: the request was already admitted once.
        self.setup.sim.schedule_in(
            backoff, lambda: worker.queue.put(request))

    # -- straggler windows --------------------------------------------------
    def _straggle_start(self, event: KernelStraggler) -> None:
        self.setup.device.set_fault_latency_scale(event.multiplier,
                                                  tag=event.tag)
        self._record(event, {"multiplier": event.multiplier,
                             "tag": event.tag or "*",
                             "duration": event.duration})
        tracer = self.setup.sim.tracer
        if tracer.enabled:
            tracer.fault_window("kernel_straggler", event.start,
                                event.start + event.duration,
                                {"multiplier": event.multiplier})

    def _straggle_end(self, event: KernelStraggler) -> None:
        self.setup.device.set_fault_latency_scale(1.0, tag=event.tag)

    # -- bandwidth spikes ---------------------------------------------------
    def _spike_start(self, event: BandwidthSpike) -> None:
        self.setup.device.add_fault_bandwidth_demand(event.demand)
        self._record(event, {"demand": event.demand,
                             "duration": event.duration})
        tracer = self.setup.sim.tracer
        if tracer.enabled:
            tracer.fault_window("bandwidth_spike", event.start,
                                event.start + event.duration,
                                {"demand": event.demand})

    def _spike_end(self, event: BandwidthSpike) -> None:
        self.setup.device.add_fault_bandwidth_demand(-event.demand)

    # -- request storms -----------------------------------------------------
    def _arm_storm(self, event: RequestStorm) -> None:
        # Evenly spaced injection times (deterministic, no RNG state):
        # the storm's shape is data, its pressure is what matters.
        sim = self.setup.sim
        sim.schedule(event.start, lambda e=event: self._storm_started(e))
        for j in range(event.count):
            offset = event.duration * (j + 1) / (event.count + 1)
            sim.schedule(event.start + offset, self._storm_request)

    def _storm_started(self, event: RequestStorm) -> None:
        self._record(event, {"count": event.count,
                             "duration": event.duration})
        tracer = self.setup.sim.tracer
        if tracer.enabled:
            tracer.fault_window("request_storm", event.start,
                                event.start + event.duration,
                                {"count": event.count})

    def _storm_request(self) -> None:
        # One injected request per queue, through admission control —
        # storms are exactly the burst the admission guard exists for.
        setup = self.setup
        for queue in setup.queues:
            model_name, batch = setup.queue_models[id(queue)]
            request = InferenceRequest(
                model_name=model_name,
                batch_size=batch,
                arrival_time=setup.sim.now,
                injected=True,
            )
            tracer = setup.sim.tracer
            if tracer.enabled:
                tracer.request_arrival(request)
            queue.offer(request)

    # -- perf-DB dropout ----------------------------------------------------
    def _dropout(self, event: PerfDbDropout) -> None:
        dropped = 0
        taken = []
        seen: set[int] = set()
        for stream in self.setup.streams:
            if stream.rightsizer is None:
                continue
            database = stream.rightsizer.database
            if id(database) in seen:
                continue
            seen.add(id(database))
            entries = database.take_fraction(event.fraction,
                                             seed=self.schedule.seed)
            dropped += len(entries)
            if entries:
                taken.append((database, entries))
        # A bounded outage restores the taken entries when the window
        # closes (silent end, like straggler/spike windows — only the
        # start counts as an injection).
        if event.duration > 0.0 and taken:
            self.setup.sim.schedule(
                event.time + event.duration,
                lambda entries=taken: self._dropout_end(entries))
        self._record(event, {"fraction": event.fraction,
                             "entries_dropped": dropped})

    def _dropout_end(self, taken) -> None:
        for database, entries in taken:
            database.restore(entries)
