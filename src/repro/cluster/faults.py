"""Node-level fault injection for fleet runs.

:class:`ClusterFaultDriver` is the fleet analogue of
:class:`~repro.faults.injector.FaultInjector`, specialised to
:class:`~repro.faults.schedule.NodeCrash` events (the only kind that
makes sense fleet-wide; schedules carrying any other kind, or crashing
a node the fleet does not have, are rejected up front rather than
silently half-applied or wrapped onto another node).

A node crash kills every worker on the device at once and *re-routes*
the displaced work — both in-flight orphans and requests still queued on
the node's slots — through the cluster router to surviving nodes, under
the same bounded-retry guard rail as single-device crash recovery:
each displaced request costs one retry, backs off exponentially
(``guard.retry_backoff * 2**(retries-1)``), and is shed once
``guard.max_retries`` is exhausted.  Re-routed requests bypass
admission (they were admitted once already).  The node restarts whole
after one :class:`~repro.faults.schedule.ReloadCostModel` reload unless
the event says otherwise; while it is down the router simply never
selects it.
"""

from __future__ import annotations

from repro.cluster.router import ClusterRouter
from repro.cluster.setup import ClusterNode, ClusterSetup
from repro.faults.schedule import FaultSchedule, NodeCrash, event_kind
from repro.server.request import InferenceRequest
from repro.server.slo import SloGuard

__all__ = ["ClusterFaultDriver", "check_fleet_faults"]


def check_fleet_faults(schedule: FaultSchedule, devices: int) -> None:
    """Raise ``ValueError`` unless ``schedule`` holds only
    :class:`NodeCrash` events naming nodes of a ``devices``-node fleet."""
    bad = sorted({event_kind(e) for e in schedule.events
                  if not isinstance(e, NodeCrash)})
    if bad:
        raise ValueError(
            f"fleet runs only support node_crash fault events; "
            f"schedule also carries {bad}")
    outside = sorted({e.node for e in schedule.events
                      if e.node >= devices})
    if outside:
        raise ValueError(
            f"node_crash names node(s) {outside} outside a {devices}-device "
            f"fleet (nodes 0..{devices - 1})")


class ClusterFaultDriver:
    """Arms a NodeCrash-only fault schedule against a fleet."""

    def __init__(self, cluster: ClusterSetup, router: ClusterRouter,
                 schedule: FaultSchedule, metrics=None) -> None:
        check_fleet_faults(schedule, len(cluster.nodes))
        self.cluster = cluster
        self.router = router
        self.schedule = schedule
        self.metrics = metrics
        self.guard = cluster.guard if cluster.guard is not None \
            else SloGuard()
        self.injected = 0
        self.retried = 0
        self.shed_retries = 0
        #: Re-routes scheduled (in backoff) but not yet placed — the
        #: conservation audit's "in transit" term at run end.
        self.pending_reroutes = 0
        for event in schedule.sorted_events():
            cluster.sim.schedule(event.time,
                                 lambda e=event: self._crash(e))

    # -- crash ---------------------------------------------------------------
    def _crash(self, event: NodeCrash) -> None:
        node = self.cluster.nodes[event.node]
        if node.crashed:
            return
        node.crashed = True
        self.injected += 1
        tracer = self.cluster.sim.tracer
        if tracer.enabled:
            tracer.fault_injected("node_crash", {"node": node.index,
                                                 "restart": event.restart})
        if self.metrics is not None:
            self.metrics.counter("faults_injected_total",
                                 "Fault-schedule events injected",
                                 kind="node_crash").inc()
        displaced: list[InferenceRequest] = []
        for slot in node.slots:
            if slot.worker is not None:
                orphan = slot.worker.crash()
                if orphan is not None:
                    displaced.append(orphan)
            while len(slot.queue):
                displaced.append(slot.queue.pop())
        for request in displaced:
            self._reroute(request)
        if event.restart:
            counts = [slot.worker.kernel_count for slot in node.slots
                      if slot.worker is not None]
            reload_time = self.schedule.reload.reload_time(
                max(counts) if counts else 0)
            self.cluster.sim.schedule_in(reload_time,
                                         lambda: self._restore(node))

    def _restore(self, node: ClusterNode) -> None:
        node.crashed = False
        for slot in node.slots:
            if slot.worker is not None:
                slot.worker.restart()

    # -- displaced-work recovery --------------------------------------------
    def _reroute(self, request: InferenceRequest) -> None:
        guard = self.guard
        tracer = self.cluster.sim.tracer
        if request.retries >= guard.max_retries:
            self.shed_retries += 1
            request.shed = True
            if tracer.enabled:
                tracer.request_shed(request, "retries")
            if self.metrics is not None:
                self.metrics.counter("requests_shed_total",
                                     "Requests dropped by guard rails",
                                     reason="retries").inc()
            return
        request.retries += 1
        self.retried += 1
        if self.metrics is not None:
            self.metrics.counter("requests_retried_total",
                                 "Requests re-routed after crashes").inc()
        backoff = guard.retry_backoff * (2.0 ** (request.retries - 1))
        self.pending_reroutes += 1
        self.cluster.sim.schedule_in(
            backoff, lambda r=request: self._place(r))

    def _place(self, request: InferenceRequest) -> None:
        self.pending_reroutes -= 1
        self.router.route(request, admission=False)
