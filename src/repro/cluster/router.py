"""Cluster-level request routing with pluggable placement policies.

The router is the fleet's frontend: every arriving request is placed on
exactly one active pool slot of a live node, chosen by a deterministic
placement policy.  All policies break ties on ``(node_index,
slot_index)`` so routing — like everything else in the harness — is a
pure function of the configuration and the RNG seed.

Policies (the :data:`~repro.cluster.config.ROUTER_POLICIES` registry):

* ``least-loaded`` — fewest requests pending-plus-in-flight on the slot
  (classic join-the-shortest-queue);
* ``free-cu`` — partition-aware: prefer the node with the most CUs
  currently free of resident kernels (the right-sizing signal KRISP
  exposes per device), then least-loaded on that node;
* ``affinity`` — model-affinity: prefer slots whose worker already
  exists (the model is resident — no cold start), pricing cold slots by
  their :class:`~repro.faults.schedule.ReloadCostModel` reload time.

A fleet run's open-loop arrivals come from the one
:class:`~repro.workload.client.WorkloadClient`, delivering every request
to :meth:`ClusterRouter.route` and drawing from the *cluster* RNG fork,
so arrival times are invariant across fleet size and policy.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.config import ROUTER_POLICIES
from repro.cluster.setup import ClusterSetup, PoolSlot
from repro.faults.schedule import ReloadCostModel
from repro.server.request import InferenceRequest

__all__ = ["ClusterRouter"]


def _slot_load(slot: PoolSlot) -> int:
    """Pending plus in-flight work parked on one slot."""
    load = len(slot.queue)
    if slot.worker is not None and slot.worker.in_flight is not None:
        load += 1
    return load


class ClusterRouter:
    """Places each request on one active slot of a live node."""

    def __init__(self, cluster: ClusterSetup,
                 policy: Optional[str] = None) -> None:
        self.cluster = cluster
        self.policy = policy if policy is not None else cluster.config.router
        if self.policy not in ROUTER_POLICIES:
            raise ValueError(f"unknown router policy {self.policy!r}; "
                             f"expected one of {ROUTER_POLICIES}")
        self.reload: ReloadCostModel = cluster.reload
        self.routed = 0
        self.unroutable = 0
        self.routed_per_node = [0] * len(cluster.nodes)

    # -- placement -----------------------------------------------------------
    def _key(self, slot: PoolSlot):
        load = _slot_load(slot)
        tail = (load, slot.node_index, slot.slot_index)
        if self.policy == "free-cu":
            return (-self.cluster.nodes[slot.node_index].free_cus(), *tail)
        if self.policy == "affinity":
            warm = slot.worker is not None
            cold_cost = 0.0 if warm else \
                self.reload.reload_time(slot.kernel_count)
            return (0 if warm else 1, cold_cost, *tail)
        return tail

    def select(self, model: str) -> Optional[PoolSlot]:
        """The policy's slot for one ``model`` request, or ``None`` when
        no live node has an active slot for it."""
        candidates = self.cluster.active_slots(model)
        if not candidates:
            return None
        return min(candidates, key=self._key)

    def route(self, request: InferenceRequest, *,
              admission: bool = True) -> bool:
        """Place ``request``; returns ``True`` once enqueued somewhere.

        ``admission=False`` bypasses the queue-depth bound (re-routed
        requests were already admitted once — the fault-driver retry
        contract).  An unroutable request (every node down, or no active
        slot for its model) is shed and counted.
        """
        slot = self.select(request.model_name)
        if slot is None:
            self.unroutable += 1
            request.shed = True
            tracer = self.cluster.sim.tracer
            if tracer.enabled:
                tracer.request_shed(request, "unroutable")
            return False
        self.routed += 1
        self.routed_per_node[slot.node_index] += 1
        if admission:
            return slot.queue.offer(request)
        slot.queue.put(request)
        return True
