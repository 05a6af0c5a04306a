"""Tests for the fleet grid, its store, and node-crash resilience."""

import pytest

from repro.cluster import (
    ClusterCell,
    ClusterConfig,
    cluster_cache_key,
    cluster_result_hash,
    run_cluster_experiment,
    run_fleet,
)
from repro.exp.cache import ContentStore
from repro.exp.cells import run_cells
from repro.faults.schedule import FaultSchedule, NodeCrash, WorkerCrash
from repro.server.options import RunOptions
from repro.server.slo import SloGuard
from repro.workload.arrivals import DiurnalArrivals, PoissonArrivals
from repro.workload.spec import HomogeneousWorkloadSpec


def _base(**overrides):
    config = dict(devices=2, model_names=("squeezenet",), batch_size=4,
                  pool_size=2, pool_min=1)
    config.update(overrides)
    return ClusterConfig(**config)


def _diurnal_spec():
    return HomogeneousWorkloadSpec(
        model="squeezenet",
        arrivals=DiurnalArrivals(base_rate=50.0, amplitude=0.5, period=0.5),
        batch_size=4)


def _poisson_spec(rate=50.0):
    return HomogeneousWorkloadSpec(
        model="squeezenet", arrivals=PoissonArrivals(rate), batch_size=4)


def test_four_device_diurnal_grid_is_bit_identical_serial_vs_pooled():
    kwargs = dict(devices=(4,), scales=(0.5, 1.0), duration=0.8,
                  store=None)
    serial = run_fleet(_base(devices=4), _diurnal_spec(), jobs=1, **kwargs)
    pooled = run_fleet(_base(devices=4), _diurnal_spec(), jobs=2, **kwargs)
    repeat = run_fleet(_base(devices=4), _diurnal_spec(), jobs=1, **kwargs)
    assert serial.to_json() == pooled.to_json()
    assert serial.to_json() == repeat.to_json()
    assert all(cell.result.conservation_ok for cell in serial.cells)


def test_fleet_report_shape_and_knee():
    report = run_fleet(_base(), _poisson_spec(), devices=(1, 2),
                       routers=("least-loaded", "free-cu"),
                       scales=(0.5, 1.0), duration=0.5, store=None)
    assert len(report.cells) == 2 * 2 * 2
    # Grid order: devices-major, then router, then rate.
    assert [c.devices for c in report.cells] == [1] * 4 + [2] * 4
    payload = report.to_payload()
    assert len(payload["rows"]) == 8
    assert {"devices", "router", "offered_rps", "goodput_rps",
            "node_utilization", "conservation_ok"} \
        <= set(payload["rows"][0])
    assert len(payload["knees"]) == 4
    curve = report.curve(2, "free-cu")
    assert [c.offered_rps for c in curve] == sorted(
        c.offered_rps for c in curve)
    assert "fleet grid" in report.to_text()


def test_cluster_cache_roundtrips_and_hits(tmp_path):
    cache = ContentStore(root=tmp_path)
    cell = ClusterCell(_base(), _poisson_spec().at_rate(200.0), 0.5)
    first, = run_cells([cell], store=cache)
    assert cache.stats.stores == 1 and cache.stats.hits == 0
    second, = run_cells([cell], store=cache)
    assert cache.stats.hits == 1 and second.hit
    assert cluster_result_hash(first.result) \
        == cluster_result_hash(second.result)


def _tree(root):
    return {path: path.stat().st_mtime_ns
            for path in root.rglob("*") if path.is_file()}


def test_pooled_fleet_uses_only_the_given_store(tmp_path, monkeypatch):
    """Regression: pooled cells once read and wrote the process-default
    cluster store, ignoring the given store, so a warm pooled rerun reported
    no hits and the given store stayed empty."""
    default = tmp_path / "default"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
    store = ContentStore(root=tmp_path / "given")
    kwargs = dict(devices=(1, 2), scales=(1.0,), duration=0.4, jobs=2,
                  store=store)
    cold = run_fleet(_base(), _poisson_spec(), **kwargs)
    assert cold.cache_hits == 0 and store.stats.stores == 2
    assert len(list((tmp_path / "given" / "cluster").rglob("*.json"))) == 2
    before = _tree(default)

    warm = run_fleet(_base(), _poisson_spec(), **kwargs)
    assert warm.cache_hits == len(warm.cells) == 2
    assert warm.to_json() == cold.to_json()
    assert _tree(default) == before  # nothing written outside the store
    assert not (default / "cluster").exists()


def test_cluster_cache_key_discriminates_topology():
    spec = _poisson_spec()
    key = cluster_cache_key(_base(), 200.0, 0.5, workload=spec)
    assert key != cluster_cache_key(_base(devices=4), 200.0, 0.5,
                                    workload=spec)
    assert key != cluster_cache_key(_base(router="affinity"), 200.0, 0.5,
                                    workload=spec)
    assert key != cluster_cache_key(_base(), 200.0, 0.5, workload=spec,
                                    faults=FaultSchedule((NodeCrash(0.2),)))


def test_node_crash_reroutes_to_survivors_and_conserves():
    # Heavy enough that node 0 holds work at the crash instant.
    spec = _poisson_spec(rate=150.0)
    faults = FaultSchedule((NodeCrash(time=0.2, node=0),))
    result = run_cluster_experiment(
        _base(), spec, duration=1.0,
        options=RunOptions(faults=faults, guard=SloGuard()))
    assert result.crashes >= 1 and result.restarts >= 1
    assert result.retried >= 1
    assert result.conservation_ok
    # The surviving node carried traffic while node 0 was down.
    assert result.nodes[1].routed > 0
    assert result.completed > 0
    # Fault-free twin for contrast: no crashes, same arrivals.
    clean = run_cluster_experiment(_base(), spec, duration=1.0)
    assert clean.crashes == 0
    assert clean.issued == result.issued


def test_only_node_crash_events_are_accepted():
    faults = FaultSchedule((WorkerCrash(time=0.2, worker=0),))
    with pytest.raises(ValueError, match="node_crash"):
        run_cluster_experiment(_base(), _poisson_spec(), duration=0.5,
                               options=RunOptions(faults=faults))


def test_cluster_runner_rejects_unsupported_options():
    with pytest.raises(ValueError, match="workload"):
        run_cluster_experiment(
            _base(), _poisson_spec(), duration=0.5,
            options=RunOptions(workload=_poisson_spec()))


def test_batch_size_mismatch_is_rejected():
    spec = HomogeneousWorkloadSpec(
        model="squeezenet", arrivals=PoissonArrivals(50.0), batch_size=8)
    with pytest.raises(ValueError, match="batch"):
        run_cluster_experiment(_base(), spec, duration=0.5)


@pytest.mark.parametrize("field", ["tracer", "recorder", "metrics", "audit",
                                   "workload"])
def test_fleet_rejects_options_it_cannot_honour(field):
    with pytest.raises(ValueError, match=f"run_fleet.*{field}"):
        run_fleet(_base(), _poisson_spec(), devices=(1,), scales=(1.0,),
                  options=RunOptions(**{field: object()}), store=None)


def test_node_crash_outside_the_fleet_is_rejected():
    """Regression: ``NodeCrash(node=3)`` on a 2-device fleet once
    crashed node 1 (the index wrapped modulo the fleet size)."""
    outside = RunOptions(faults=FaultSchedule((NodeCrash(0.2, node=3),)))
    with pytest.raises(ValueError,
                       match=r"node\(s\) \[3\] outside a 2-device fleet"):
        run_cluster_experiment(_base(), _poisson_spec(), duration=0.4,
                               options=outside)
    # The grid checks every fleet size before it runs a cell.
    node1 = RunOptions(faults=FaultSchedule((NodeCrash(0.2, node=1),)))
    with pytest.raises(ValueError, match=r"\[1\] outside a 1-device fleet"):
        run_fleet(_base(), _poisson_spec(), devices=(2, 1), scales=(1.0,),
                  duration=0.4, options=node1, store=None)
