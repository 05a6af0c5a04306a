"""Tests for ClusterSetup wiring, slot lifecycle, and determinism."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSetup,
    cluster_result_hash,
    run_cluster_experiment,
)
from repro.cluster.experiment import ClusterResult
from repro.obs.metrics import MetricsRegistry
from repro.workload.arrivals import PoissonArrivals
from repro.workload.spec import HomogeneousWorkloadSpec


def _config(**overrides):
    base = dict(devices=2, model_names=("squeezenet",), batch_size=4,
                pool_size=2, pool_min=1)
    base.update(overrides)
    return ClusterConfig(**base)


def _spec(rate=50.0, batch=4):
    # rate is batches/s, so offered_rps = rate * batch.
    return HomogeneousWorkloadSpec(
        model="squeezenet", arrivals=PoissonArrivals(rate), batch_size=batch)


def test_build_wires_nodes_and_slots_in_order():
    config = _config(devices=3)
    cluster = ClusterSetup.build(config)
    assert [node.index for node in cluster.nodes] == [0, 1, 2]
    # All nodes share one simulator but own distinct serving cells.
    assert len({id(node.setup) for node in cluster.nodes}) == 3
    assert len({id(node.setup.device) for node in cluster.nodes}) == 3
    assert all(node.setup.sim is cluster.sim for node in cluster.nodes)
    for node in cluster.nodes:
        assert list(node.pools) == list(config.model_names)
        for mi, model in enumerate(config.model_names):
            for s, slot in enumerate(node.pools[model]):
                assert slot.slot_index == s
                assert slot.plan_index == mi * config.pool_size + s
                assert slot.queue.name == f"n{node.index}:{model}:{s}"
                assert slot.kernel_count > 0
                assert slot.worker is None and not slot.active


def test_start_activates_pool_min_immediately():
    config = _config()
    cluster = ClusterSetup.build(config)
    cluster.start(stop_time=1.0)
    for node in cluster.nodes:
        pool = node.pools["squeezenet"]
        assert node.active_count("squeezenet") == config.pool_min
        # t=0 activation is free: workers exist with no pending reload.
        for slot in pool[:config.pool_min]:
            assert slot.active and slot.worker is not None
            assert not slot.pending_start
        for slot in pool[config.pool_min:]:
            assert not slot.active and slot.worker is None
    # Samplers run only when a registry asks for the series.
    assert cluster.metrics is None and cluster.samplers == []
    observed = ClusterSetup.build(config, metrics=MetricsRegistry())
    observed.start(stop_time=1.0)
    assert [s.prefix for s in observed.samplers] == [
        f"node{i}" for i in range(config.devices)]


def test_mid_run_activation_pays_cold_start():
    cluster = ClusterSetup.build(_config(devices=1))
    cluster.start(stop_time=1.0)
    cluster.sim.run(until=0.01)
    slot = cluster.nodes[0].pools["squeezenet"][1]
    cluster.activate_slot(slot)
    assert slot.active and slot.pending_start and slot.worker is None
    reload_time = cluster.reload.reload_time(slot.kernel_count)
    cluster.sim.run(until=0.01 + reload_time + 1e-6)
    assert slot.worker is not None and not slot.pending_start
    # Deactivation only closes routing; the worker stays resident.
    cluster.deactivate_slot(slot)
    assert not slot.active and slot.worker is not None


def test_config_validation():
    with pytest.raises(ValueError, match="distinct"):
        _config(model_names=("squeezenet", "squeezenet"))
    with pytest.raises(ValueError, match="pool_min"):
        _config(pool_min=3, pool_size=2)
    with pytest.raises(ValueError, match="router policy"):
        _config(router="round-robin")
    with pytest.raises(ValueError, match="at least one device"):
        _config(devices=0)


def test_config_roundtrips_through_dict():
    config = _config(devices=4, router="affinity", pool_size=3)
    assert ClusterConfig.from_dict(config.to_dict()) == config
    node = config.node_config()
    assert node.model_names == ("squeezenet",) * 3
    assert node.batch_size == config.batch_size


def test_cluster_run_is_bit_identical_across_repeats():
    config = _config()
    first = run_cluster_experiment(config, _spec(), duration=0.5)
    second = run_cluster_experiment(config, _spec(), duration=0.5)
    assert cluster_result_hash(first) == cluster_result_hash(second)
    assert first.conservation_ok
    assert first.completed > 0


def test_cluster_result_roundtrips_through_dict():
    result = run_cluster_experiment(_config(), _spec(), duration=0.5)
    clone = ClusterResult.from_dict(result.to_dict())
    assert cluster_result_hash(clone) == cluster_result_hash(result)
