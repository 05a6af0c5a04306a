"""Tests for the load-driven pool autoscaler's control law."""

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    PoolAutoscaler,
    cluster_result_hash,
    run_cluster_experiment,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import DEFAULT_INTERVAL
from repro.workload.arrivals import OnOffArrivals, PoissonArrivals
from repro.workload.spec import HomogeneousWorkloadSpec
from tests.test_workload_load import FLEET_PINS, run_fleet_pin


def _config(**overrides):
    base = dict(devices=2, model_names=("squeezenet",), batch_size=4,
                pool_size=3, pool_min=1)
    base.update(overrides)
    return ClusterConfig(**base)


def _storm_spec():
    # 400 rps bursts alternating with silence: drives the pools up during
    # the ON phase and back down while the backlog drains.
    return HomogeneousWorkloadSpec(
        model="squeezenet",
        arrivals=OnOffArrivals(on_rate=100.0, on_duration=0.3,
                               off_duration=0.3),
        batch_size=4)


def _storm_result():
    return run_cluster_experiment(_config(), _storm_spec(), duration=1.5)


def test_storm_scales_up_then_down():
    result = _storm_result()
    assert result.scale_ups >= 1
    assert result.scale_downs >= 1
    assert result.conservation_ok
    # Scale-downs never cut below the configured floor.
    for event in result.scale_events:
        if event.action == "down":
            assert event.active_after >= AutoscalerConfig().min_active


def test_churn_is_bounded_by_window_and_cooldown():
    config = AutoscalerConfig()
    events = _storm_result().scale_events
    assert events
    times = [e.time for e in events]
    for i, t in enumerate(times):
        in_window = sum(1 for u in times[:i + 1] if u > t - config.window)
        assert in_window <= config.max_actions_per_window
    # Per-model cooldown: consecutive actions on one model are spaced.
    by_model: dict = {}
    for event in events:
        last = by_model.get(event.model)
        if last is not None:
            assert event.time - last >= config.cooldown - 1e-12
        by_model[event.model] = event.time


def test_disabled_autoscaler_freezes_the_pools():
    result = run_cluster_experiment(_config(), _storm_spec(), duration=1.0,
                                    autoscaler=None)
    assert result.scale_events == ()
    assert result.conservation_ok


def test_light_load_never_scales_up():
    spec = HomogeneousWorkloadSpec(
        model="squeezenet", arrivals=PoissonArrivals(5.0), batch_size=4)
    result = run_cluster_experiment(_config(), spec, duration=1.0)
    assert result.scale_ups == 0


def test_scale_events_roundtrip_and_order():
    events = _storm_result().scale_events
    from repro.cluster import ScaleEvent
    for event in events:
        assert ScaleEvent.from_dict(event.to_dict()) == event
    assert list(events) == sorted(events, key=lambda e: e.time)


#: Seed-0 hashes of the ``bursty-least-loaded`` fleet pin at 3x its rate
#: under autoscaler intervals off the samplers' 250 us grid: 100 us
#: ticks reuse a snapshot, 20.3 ms ticks fall between grid instants.
INTERVAL_PINS = {
    1e-4: "406abdcee913c5ce7780308b9842235e4201beca36c92e6a406e98e5ca2b4aef",
    0.0203:
        "b8c988440cc6c45f3f2d3aa5d56c48d8b971372f315be822f2aa1554521ac72d",
}


def _hot_run(interval, metrics=None):
    return run_fleet_pin("bursty-least-loaded", rate_scale=3.0,
                         metrics=metrics,
                         autoscaler=AutoscalerConfig(interval=interval))


@pytest.mark.parametrize("interval", sorted(INTERVAL_PINS))
def test_off_grid_intervals_are_pinned(interval):
    result = _hot_run(interval)
    assert result.scale_events
    assert cluster_result_hash(result) == INTERVAL_PINS[interval]


@pytest.mark.parametrize("name", sorted(FLEET_PINS))
def test_samplers_change_no_fleet_run(name):
    """A metrics registry adds observers, never a different decision."""
    plain = run_fleet_pin(name)
    observed = run_fleet_pin(name, metrics=MetricsRegistry())
    assert observed.scale_events == plain.scale_events
    assert cluster_result_hash(observed) == cluster_result_hash(plain) \
        == FLEET_PINS[name][-1]


@pytest.mark.parametrize("interval",
                         sorted(INTERVAL_PINS) + [DEFAULT_INTERVAL, 20e-3])
def test_snapshot_is_what_the_samplers_saw(monkeypatch, interval):
    """At every tick the autoscaler's backlog equals the per-node
    ``node{i}_queue_depth`` gauges a sampled run maintains (at the
    sampling interval every tick lands on a grid instant)."""
    registry = MetricsRegistry()
    ticks = []
    tick = PoolAutoscaler._tick

    def checked_tick(scaler):
        gauges = {slot.queue.name: registry.gauge(
            f"node{slot.node_index}_queue_depth",
            queue=slot.queue.name).value
            for node in scaler.cluster.nodes for slot in node.slots}
        assert scaler.backlog == gauges
        ticks.append(sum(gauges.values()))
        tick(scaler)

    monkeypatch.setattr(PoolAutoscaler, "_tick", checked_tick)
    result = _hot_run(interval, metrics=registry)
    assert len(ticks) >= round(1.0 / interval)  # every tick was checked
    assert max(ticks) > 0  # queues formed, so the check saw a backlog
    if interval in INTERVAL_PINS:
        assert cluster_result_hash(result) == INTERVAL_PINS[interval]
