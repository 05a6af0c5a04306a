"""One fleet run: build, route, autoscale, measure — deterministically.

:func:`run_cluster_experiment` is the fleet counterpart of
:func:`~repro.server.rate_experiment.run_rate_experiment`: it drives a
:class:`~repro.cluster.config.ClusterConfig` fleet open-loop with a
workload spec through the same
:class:`~repro.workload.client.WorkloadClient`, routes every request
through the cluster router, lets the
:class:`~repro.cluster.autoscaler.PoolAutoscaler` resize pools from
sampled load, and returns a :class:`ClusterResult` with fleet-wide
throughput/latency/shed accounting, per-node statistics, the full
autoscaler event log, and a request-conservation audit
(``issued == completed + shed + residue + in flight + in transit`` —
the fleet generalisation of :mod:`repro.check.invariants`).

Harness knobs arrive in one :class:`~repro.server.options.RunOptions`.
A :class:`ClusterCell` is one fleet run as a grid cell, cached
content-addressed under ``<cache>/cluster/`` via
:func:`cluster_cache_key`, which folds the cluster topology and
autoscaler config into the open-loop key
:func:`~repro.exp.cache.rate_cache_key` **only-when-given** — so every
pre-existing single-device cache entry is untouched by the fleet layer.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.digest import canonical_digest
from repro.cluster.autoscaler import PoolAutoscaler, ScaleEvent
from repro.cluster.config import AutoscalerConfig, ClusterConfig
from repro.cluster.faults import ClusterFaultDriver
from repro.cluster.router import ClusterRouter
from repro.cluster.setup import ClusterSetup
from repro.exp.cache import rate_cache_key
from repro.server.metrics import LatencyStats
from repro.server.options import RunOptions, reject_unsupported
from repro.workload.client import WorkloadClient
from repro.workload.spec import WorkloadSpec, check_deployment

__all__ = [
    "ClusterCell",
    "ClusterResult",
    "DEFAULT_FLEET_DURATION",
    "NodeStats",
    "cluster_cache_key",
    "cluster_result_hash",
    "run_cluster_experiment",
]

logger = logging.getLogger(__name__)

#: Default fleet run length in sim seconds (matches the rate CLI).
DEFAULT_FLEET_DURATION = 2.0


@dataclass(frozen=True)
class NodeStats:
    """Per-device accounting of one fleet run."""

    node: int
    routed: int
    completed: int
    gpu_utilization: float
    peak_cu_occupancy: int
    crashes: int
    restarts: int

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "NodeStats":
        return cls(**{f.name: payload[f.name]
                      for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one fleet run."""

    devices: int
    router: str
    offered_rps: float
    achieved_rps: float
    goodput_rps: float
    latency: LatencyStats
    issued: int
    completed: int
    shed_admission: int
    shed_deadline: int
    shed_retries: int
    shed_unroutable: int
    retried: int
    queue_residue: int
    in_flight: int
    in_reroute: int
    crashes: int
    restarts: int
    scale_events: tuple[ScaleEvent, ...]
    nodes: tuple[NodeStats, ...]
    conservation_ok: bool

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "down")

    @property
    def shed(self) -> int:
        return (self.shed_admission + self.shed_deadline
                + self.shed_retries + self.shed_unroutable)

    def to_dict(self) -> dict[str, Any]:
        return {
            "devices": self.devices,
            "router": self.router,
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "goodput_rps": self.goodput_rps,
            "latency": dataclasses.asdict(self.latency),
            "issued": self.issued,
            "completed": self.completed,
            "shed_admission": self.shed_admission,
            "shed_deadline": self.shed_deadline,
            "shed_retries": self.shed_retries,
            "shed_unroutable": self.shed_unroutable,
            "retried": self.retried,
            "queue_residue": self.queue_residue,
            "in_flight": self.in_flight,
            "in_reroute": self.in_reroute,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "scale_events": [e.to_dict() for e in self.scale_events],
            "nodes": [n.to_dict() for n in self.nodes],
            "conservation_ok": self.conservation_ok,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ClusterResult":
        data = dict(payload)
        data["latency"] = LatencyStats(**data["latency"])
        data["scale_events"] = tuple(
            ScaleEvent.from_dict(e) for e in data["scale_events"])
        data["nodes"] = tuple(
            NodeStats.from_dict(n) for n in data["nodes"])
        return cls(**{f.name: data[f.name]
                      for f in dataclasses.fields(cls)})


def cluster_result_hash(result: ClusterResult) -> str:
    """Content hash of one result's canonical JSON payload (floats
    survive bit-exactly, so two runs hash equally iff bit-identical)."""
    return canonical_digest(result.to_dict())


def run_cluster_experiment(
    config: ClusterConfig,
    workload: WorkloadSpec,
    *,
    offered_rps: Optional[float] = None,
    duration: Optional[float] = None,
    autoscaler: Optional[AutoscalerConfig] = AutoscalerConfig(),
    options: Optional[RunOptions] = None,
) -> ClusterResult:
    """Drive one fleet open-loop and measure it.

    ``offered_rps`` rescales the workload spec (``None`` keeps its
    native rate); ``autoscaler=None`` pins the pools at ``pool_min``
    for the whole run.  ``options.faults`` must contain only
    :class:`~repro.faults.schedule.NodeCrash` events; ``options.guard``
    bounds admission/deadline/retries exactly as on a single device.
    """
    opts = reject_unsupported("run_cluster_experiment", options,
                              "workload", "audit")
    if duration is None:
        duration = DEFAULT_FLEET_DURATION
    spec = workload if offered_rps is None else workload.at_rate(offered_rps)
    offered = spec.offered_rps()
    check_deployment(spec, config.model_names, config.batch_size)

    cluster = ClusterSetup.build(
        config, tracer=opts.tracer, recorder=opts.recorder,
        guard=opts.guard, metrics=opts.metrics)
    router = ClusterRouter(cluster)
    driver = None
    if opts.faults is not None and len(opts.faults):
        driver = ClusterFaultDriver(cluster, router, opts.faults,
                                    metrics=opts.metrics)
    cluster.start(stop_time=duration)
    client = WorkloadClient(cluster.sim, spec, router.route,
                            rng=cluster.rng, stop_time=duration)
    scaler = None
    if autoscaler is not None:
        scaler = PoolAutoscaler(cluster, autoscaler)
        scaler.start(stop_time=duration)

    cluster.sim.run(until=duration)

    # -- fleet-wide accounting ----------------------------------------------
    deadline = opts.guard.deadline if opts.guard is not None else None
    latencies: list[float] = []
    completed = 0
    good = 0
    for worker in cluster.all_workers():
        for request in worker.stats.completed:
            if request.completion_time is None:
                continue
            latencies.append(request.latency)  # queueing-inclusive
            completed += 1
            if deadline is None or request.latency <= deadline:
                good += 1
    shed_admission = sum(q.shed for q in cluster.all_queues())
    shed_deadline = sum(w.stats.shed_deadline for w in cluster.all_workers())
    residue = sum(len(q) for q in cluster.all_queues())
    in_flight = sum(1 for w in cluster.all_workers()
                    if w.in_flight is not None)
    shed_retries = driver.shed_retries if driver is not None else 0
    in_reroute = driver.pending_reroutes if driver is not None else 0
    retried = driver.retried if driver is not None else 0
    accounted = (completed + shed_admission + shed_deadline + shed_retries
                 + router.unroutable + residue + in_flight + in_reroute)
    conservation_ok = client.issued == accounted
    if not conservation_ok:
        logger.warning("fleet conservation violated: issued=%d accounted=%d",
                       client.issued, accounted)

    nodes = tuple(
        NodeStats(
            node=node.index,
            routed=router.routed_per_node[node.index],
            completed=sum(len(w.stats.completed)
                          for w in node.setup.workers),
            gpu_utilization=node.setup.device.meter.utilization(
                cluster.sim.now),
            peak_cu_occupancy=node.setup.device.counters.peak_busy_cus,
            crashes=sum(w.crashes for w in node.setup.workers),
            restarts=sum(w.restarts for w in node.setup.workers),
        )
        for node in cluster.nodes
    )
    return ClusterResult(
        devices=config.devices,
        router=router.policy,
        offered_rps=offered,
        achieved_rps=completed * config.batch_size / duration,
        goodput_rps=good * config.batch_size / duration,
        latency=(LatencyStats.from_samples(latencies) if latencies
                 else LatencyStats.empty()),
        issued=client.issued,
        completed=completed,
        shed_admission=shed_admission,
        shed_deadline=shed_deadline,
        shed_retries=shed_retries,
        shed_unroutable=router.unroutable,
        retried=retried,
        queue_residue=residue,
        in_flight=in_flight,
        in_reroute=in_reroute,
        crashes=sum(n.crashes for n in nodes),
        restarts=sum(n.restarts for n in nodes),
        scale_events=tuple(scaler.events) if scaler is not None else (),
        nodes=nodes,
        conservation_ok=conservation_ok,
    )


# -- caching -----------------------------------------------------------------

def cluster_cache_key(config: ClusterConfig, offered_rps: float,
                      duration: float,
                      workload: Optional[WorkloadSpec] = None,
                      autoscaler: Optional[AutoscalerConfig] = None,
                      faults=None, guard=None) -> str:
    """Stable content hash of one fleet run's inputs.

    Delegates to :func:`~repro.exp.cache.rate_cache_key` over the
    per-node config, folding the cluster topology (and autoscaler, when
    enabled) through its only-when-given ``cluster=`` slot — the same
    convention that keeps fault-free single-device keys stable.
    """
    cluster_payload: dict[str, Any] = {"cluster": config.to_dict()}
    if autoscaler is not None:
        cluster_payload["autoscaler"] = autoscaler.to_dict()
    return rate_cache_key(
        config.node_config(), offered_rps, duration,
        workload=workload, faults=faults, guard=guard,
        cluster=cluster_payload)


@dataclass(frozen=True)
class ClusterCell:
    """One fleet run as a grid cell (store namespace ``cluster``):
    ``config`` driven by ``workload``, already at the cell's rate."""

    config: ClusterConfig
    workload: WorkloadSpec
    duration: float = DEFAULT_FLEET_DURATION
    autoscaler: Optional[AutoscalerConfig] = AutoscalerConfig()
    faults: Any = None
    guard: Any = None

    namespace = "cluster"

    @property
    def label(self) -> str:
        return (f"{self.config.devices}x/{self.config.router}/"
                f"{self.workload.offered_rps():g}")

    def key(self) -> str:
        return cluster_cache_key(
            self.config, self.workload.offered_rps(), self.duration,
            workload=self.workload, autoscaler=self.autoscaler,
            faults=self.faults, guard=self.guard)

    def run(self) -> ClusterResult:
        return run_cluster_experiment(
            self.config, self.workload, duration=self.duration,
            autoscaler=self.autoscaler,
            options=RunOptions(faults=self.faults, guard=self.guard))

    def encode(self, result: ClusterResult) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "cluster": self.config.to_dict(),
            "offered_rps": self.workload.offered_rps(),
            "duration": self.duration,
            "workload": self.workload.to_dict(),
            "result": result.to_dict(),
        }
        for name in ("autoscaler", "faults", "guard"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value.to_dict()
        return payload

    def decode(self, payload: dict[str, Any]) -> ClusterResult:
        return ClusterResult.from_dict(payload["result"])
