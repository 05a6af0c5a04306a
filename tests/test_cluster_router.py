"""Tests for the cluster router's placement policies and fleet arrivals."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    ClusterSetup,
    run_cluster_experiment,
)
from repro.server.request import InferenceRequest
from repro.workload.arrivals import PoissonArrivals
from repro.workload.spec import HomogeneousWorkloadSpec


def _spec(rate=50.0, batch=4, model="squeezenet"):
    return HomogeneousWorkloadSpec(
        model=model, arrivals=PoissonArrivals(rate), batch_size=batch)


def _started_cluster(**overrides):
    base = dict(devices=2, model_names=("squeezenet",), batch_size=4,
                pool_size=2, pool_min=1)
    base.update(overrides)
    cluster = ClusterSetup.build(ClusterConfig(**base))
    cluster.start(stop_time=1.0)
    return cluster


def _request(model="squeezenet", batch=4):
    return InferenceRequest(model_name=model, batch_size=batch,
                            arrival_time=0.0)


def test_unknown_policy_rejected():
    cluster = _started_cluster()
    with pytest.raises(ValueError, match="router policy"):
        ClusterRouter(cluster, policy="round-robin")


def test_ties_break_on_node_then_slot():
    cluster = _started_cluster()
    for policy in ("least-loaded", "free-cu", "affinity"):
        slot = ClusterRouter(cluster, policy=policy).select("squeezenet")
        assert (slot.node_index, slot.slot_index) == (0, 0)


def test_least_loaded_spreads_to_the_empty_slot():
    cluster = _started_cluster()
    router = ClusterRouter(cluster, policy="least-loaded")
    cluster.nodes[0].pools["squeezenet"][0].queue.put(_request())
    assert router.select("squeezenet").node_index == 1


def test_affinity_prefers_the_warm_slot():
    cluster = _started_cluster(devices=1)
    pool = cluster.nodes[0].pools["squeezenet"]
    # Open the cold slot to routing without starting its worker.
    pool[1].active = True
    pool[0].queue.put(_request())
    # Least-loaded chases the empty (cold) slot; affinity stays warm.
    assert ClusterRouter(cluster, "least-loaded") \
        .select("squeezenet").slot_index == 1
    warm = ClusterRouter(cluster, "affinity").select("squeezenet")
    assert warm.slot_index == 0 and warm.worker is not None


def test_unroutable_requests_are_shed_and_counted():
    cluster = _started_cluster()
    router = ClusterRouter(cluster)
    for node in cluster.nodes:
        node.crashed = True
    request = _request()
    assert router.route(request) is False
    assert router.unroutable == 1 and request.shed
    assert router.routed == 0


def test_routing_counts_per_node():
    cluster = _started_cluster()
    router = ClusterRouter(cluster)
    for _ in range(4):
        assert router.route(_request())
    assert router.routed == 4
    assert sum(router.routed_per_node) == 4


def test_cluster_run_rejects_unknown_models():
    config = ClusterConfig(devices=2, model_names=("squeezenet",),
                           batch_size=4)
    with pytest.raises(ValueError, match="not in model_names"):
        run_cluster_experiment(config, _spec(model="resnet50"),
                               duration=0.1)


def test_arrivals_are_invariant_across_fleet_size_and_policy():
    """The client draws from the cluster RNG fork, so the issued request
    count depends only on the seed and the spec — not on devices or the
    placement policy."""
    results = [
        run_cluster_experiment(
            ClusterConfig(devices=devices, model_names=("squeezenet",),
                          batch_size=4, router=router),
            _spec(), duration=0.5)
        for devices, router in [(1, "least-loaded"), (2, "least-loaded"),
                                (2, "free-cu"), (2, "affinity")]
    ]
    assert len({r.issued for r in results}) == 1
    assert all(r.conservation_ok for r in results)
