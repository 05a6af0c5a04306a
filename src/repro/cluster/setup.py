"""Fleet assembly: N serving cells sharing one simulator clock.

:class:`ClusterSetup` promotes the single-device
:class:`~repro.server.setup.ServingSetup` to a fleet: one shared
:class:`~repro.sim.engine.Simulator`, one :class:`~repro.server.setup
.ServingSetup` per node (each with its own device, policy streams, and
RNG fork ``{label}/node{i}``), and per-(node, model) *worker pools* of
:class:`PoolSlot` entries the router places requests on and the
autoscaler activates/deactivates at run time.

Construction order is load-bearing: nodes are built in index order and
slot queues in model-major/slot-minor order, so event sequence numbers —
and therefore every tie-break in the shared event heap — are a pure
function of the :class:`~repro.cluster.config.ClusterConfig`.  That is
what makes a fleet run bit-identical across repeats and across the
serial/pooled fleet grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.config import ClusterConfig
from repro.faults.schedule import ReloadCostModel
from repro.server.request import RequestQueue
from repro.server.setup import ServingSetup
from repro.server.slo import SloGuard
from repro.server.worker import Worker
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["ClusterNode", "ClusterSetup", "PoolSlot"]


@dataclass
class PoolSlot:
    """One worker slot of a (node, model) pool.

    A slot owns its request queue from construction; its worker exists
    only once the slot has been activated (initially or by the
    autoscaler).  ``active`` is the router-visible bit: an inactive slot
    receives no new requests but its worker keeps draining whatever is
    already queued — deactivation never drops work.
    """

    node_index: int
    model: str
    slot_index: int
    #: Index into the node's plans/streams (``model_idx * pool_size +
    #: slot_index`` — the :meth:`ClusterConfig.node_config` layout).
    plan_index: int
    queue: RequestQueue
    #: Kernels per request of this slot's plan (prices the cold start).
    kernel_count: int
    worker: Optional[Worker] = None
    active: bool = False
    #: A cold start is in flight (worker creation scheduled but not run).
    pending_start: bool = False


@dataclass
class ClusterNode:
    """One fleet node: a full serving cell plus its pool slots."""

    index: int
    setup: ServingSetup
    #: Model name -> slots, in slot-index order.
    pools: dict[str, list[PoolSlot]] = field(default_factory=dict)
    #: Set while the node is down (the router skips crashed nodes).
    crashed: bool = False

    @property
    def slots(self) -> list[PoolSlot]:
        """Every slot on the node, model-major/slot-minor."""
        return [slot for pool in self.pools.values() for slot in pool]

    def active_count(self, model: str) -> int:
        return sum(1 for slot in self.pools[model] if slot.active)

    def free_cus(self) -> int:
        """CUs without a resident kernel right now (router signal)."""
        counters = self.setup.device.counters
        return self.setup.topology.total_cus - counters.busy_cus()


@dataclass
class ClusterSetup:
    """A wired fleet, ready for a router, autoscaler, and client."""

    config: ClusterConfig
    sim: Simulator
    rng: RngRegistry
    nodes: list[ClusterNode]
    reload: ReloadCostModel
    metrics: Optional["MetricsRegistry"] = None
    guard: Optional[SloGuard] = None
    samplers: list = field(default_factory=list)

    @classmethod
    def build(
        cls,
        config: ClusterConfig,
        *,
        rng_label: str = "fleet",
        tracer=None,
        recorder=None,
        guard: Optional[SloGuard] = None,
        metrics=None,
        reload: Optional[ReloadCostModel] = None,
    ) -> "ClusterSetup":
        """Assemble the fleet in deterministic construction order.

        One simulator first (it carries the composed tracer/recorder),
        then node 0..N-1 — each a :meth:`ServingSetup.build` against the
        shared simulator — then every node's slot queues.  The cluster
        RNG fork (``rng_label``) feeds fleet-level draws (the client's
        arrival/mix/length streams); each node forks
        ``{rng_label}/node{i}`` so per-node host jitter is independent
        of fleet size ordering.
        """
        if recorder is not None:
            from repro.obs.flight import compose_tracers
            tracer = compose_tracers(tracer, recorder)
        sim = Simulator(tracer=tracer)
        rng = RngRegistry(config.seed).fork(rng_label)
        node_cfg = config.node_config()
        nodes: list[ClusterNode] = []
        for i in range(config.devices):
            setup = ServingSetup.build(
                node_cfg, rng_label=f"{rng_label}/node{i}", sim=sim,
                guard=guard)
            node = ClusterNode(index=i, setup=setup)
            for mi, model in enumerate(config.model_names):
                pool: list[PoolSlot] = []
                for s in range(config.pool_size):
                    plan_index = mi * config.pool_size + s
                    plan = setup.plans[plan_index]
                    queue = setup.new_queue(f"n{i}:{model}:{s}", model,
                                            config.batch_size)
                    pool.append(PoolSlot(
                        node_index=i, model=model, slot_index=s,
                        plan_index=plan_index, queue=queue,
                        kernel_count=sum(
                            len(burst) for burst, _gap in plan.model.segments(
                                plan.batch_size, setup.topology)),
                    ))
                node.pools[model] = pool
            nodes.append(node)
        return cls(config=config, sim=sim, rng=rng, nodes=nodes,
                   reload=reload or ReloadCostModel(), metrics=metrics,
                   guard=guard)

    # -- slot lifecycle ------------------------------------------------------
    def activate_slot(self, slot: PoolSlot) -> None:
        """Open a slot for routing, cold-starting its worker if needed.

        At t=0 (initial activation) the worker exists immediately; a
        mid-run activation of a never-started slot pays the
        :class:`ReloadCostModel` cold-start cost first — requests routed
        meanwhile wait in the slot's queue.  Re-activating a previously
        drained slot is free: its worker never stopped, it was just
        starved of new work.
        """
        if slot.active:
            return
        slot.active = True
        if slot.worker is not None or slot.pending_start:
            return
        if self.sim.now > 0:
            slot.pending_start = True
            self.sim.schedule_in(self.reload.reload_time(slot.kernel_count),
                                 lambda: self._start_worker(slot))
        else:
            self._start_worker(slot)

    def deactivate_slot(self, slot: PoolSlot) -> None:
        """Close a slot to new routing (its backlog still drains)."""
        slot.active = False

    def _start_worker(self, slot: PoolSlot) -> None:
        slot.pending_start = False
        setup = self.nodes[slot.node_index].setup
        plan = setup.plans[slot.plan_index]
        slot.worker = setup.add_worker(
            slot.plan_index, slot.queue, stop_time=float("inf"),
            name=f"n{slot.node_index}w{slot.plan_index}",
            segments_for=setup._segments_fn(plan))

    def start(self, *, stop_time: float) -> None:
        """Activate the initial pools; sample only if given a registry.

        ``pool_min`` slots per (node, model) come up in slot order; with
        ``metrics`` each node then gets a :class:`~repro.obs.sampler
        .SimSampler` under the ``node{i}`` metric prefix (series for
        observers only: nothing on the control path reads them).
        """
        for node in self.nodes:
            for model in self.config.model_names:
                for slot in node.pools[model][:self.config.pool_min]:
                    self.activate_slot(slot)
        if self.metrics is None:
            return
        for node in self.nodes:
            self.samplers.append(node.setup.start_sampler(
                self.metrics, stop_time=stop_time,
                prefix=f"node{node.index}"))

    # -- fleet-wide views ----------------------------------------------------
    def active_slots(self, model: str) -> list[PoolSlot]:
        """Active slots for ``model`` on live nodes (routable targets)."""
        return [slot for node in self.nodes if not node.crashed
                for slot in node.pools[model] if slot.active]

    def all_workers(self) -> list[Worker]:
        return [w for node in self.nodes for w in node.setup.workers]

    def all_queues(self) -> list[RequestQueue]:
        return [q for node in self.nodes for q in node.setup.queues]
