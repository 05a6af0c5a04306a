"""Fleet-scale serving: cluster setup, routing, autoscaling, fleet grid.

The single-device harness answers "how should one GPU be partitioned";
this package answers the operator's next question — "how do N such GPUs
behave as a fleet".  It wires N :class:`~repro.server.setup
.ServingSetup` cells onto one shared simulator clock
(:class:`ClusterSetup`), places every request through a deterministic
pluggable policy (:class:`ClusterRouter`), resizes per-model worker
pools from sampled load with bounded churn (:class:`PoolAutoscaler`),
survives whole-node crashes by re-routing displaced work
(:class:`~repro.cluster.faults.ClusterFaultDriver`), and sweeps the
devices × policy × rate grid (:func:`run_fleet`) — all under the same
bit-identical determinism contract as every other harness in the repo.
"""

from repro.cluster.autoscaler import PoolAutoscaler, ScaleEvent
from repro.cluster.config import (
    ROUTER_POLICIES,
    AutoscalerConfig,
    ClusterConfig,
)
from repro.cluster.experiment import (
    ClusterCell,
    ClusterResult,
    NodeStats,
    cluster_cache_key,
    cluster_result_hash,
    run_cluster_experiment,
)
from repro.cluster.faults import ClusterFaultDriver
from repro.cluster.fleet import FleetCell, FleetReport, run_fleet
from repro.cluster.router import ClusterRouter
from repro.cluster.setup import ClusterNode, ClusterSetup, PoolSlot

__all__ = [
    "AutoscalerConfig",
    "ClusterCell",
    "ClusterConfig",
    "ClusterFaultDriver",
    "ClusterNode",
    "ClusterResult",
    "ClusterRouter",
    "ClusterSetup",
    "FleetCell",
    "FleetReport",
    "NodeStats",
    "PoolAutoscaler",
    "PoolSlot",
    "ROUTER_POLICIES",
    "ScaleEvent",
    "cluster_cache_key",
    "cluster_result_hash",
    "run_cluster_experiment",
    "run_fleet",
]
