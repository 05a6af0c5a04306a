"""Integration tests for the open-loop workload engine: the workload=
path of run_rate_experiment, ServingSetup.add_workload routing, the
load-curve runner, and the ``krisp-repro load`` CLI.

The load-bearing contracts:

* plain-rate and fleet runs reproduce pinned result hashes — a plain
  ``offered_rps`` run is a homogeneous Poisson spec through the same
  client as every other workload — and running the workload engine
  perturbs nothing (the fig13a result-sha pin is re-asserted here after
  workload runs to prove the closed-loop harness is untouched);
* load curves are bit-identical across repeated runs, serial vs pooled
  execution, and cache hits vs recomputation.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterConfig,
    cluster_result_hash,
    run_cluster_experiment,
)
from repro.exp.cache import ContentStore, rate_result_hash, result_hash
from repro.exp.load import run_load_curve
from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.server.options import RunOptions
from repro.server.rate_experiment import run_rate_experiment
from repro.server.setup import ServingSetup
from repro.server.slo import SloGuard
from repro.workload import (
    HeterogeneousWorkloadSpec,
    HomogeneousWorkloadSpec,
    PoissonArrivals,
    RequestClass,
    TraceEntry,
    TraceWorkloadSpec,
    load_workload,
    workload_to_yaml,
)

CONFIG = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=4)

#: fig13a pin (same constants as tests/test_serving_setup.py): the
#: workload engine must not move the legacy closed-loop harness.
FIG13A = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=32, seed=0, requests_scale=0.5)
FIG13A_RESULT_SHA = (
    "586c866e8d4b92e20d04807e15adf3e875a658afdd5b75efc7161732ebb6ee5f")


def poisson_spec(offered_rps, batch=4, model="squeezenet"):
    """The open-loop-equivalent spec: ``offered_rps`` requests/s arriving
    as batches of ``batch`` (the PoissonClient parameterisation)."""
    return HomogeneousWorkloadSpec(
        model, PoissonArrivals(rate=offered_rps / batch), batch_size=batch)


# -- pins: plain-rate and fleet runs ------------------------------------------

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "workloads"

#: Seed-0 ``rate_result_hash`` of plain-rate runs:
#: (model_names, policy, batch, offered_rps, duration, guard) -> sha256.
RATE_PINS = {
    "squeezenet2-100rps": (
        ("squeezenet",) * 2, "krisp-i", 4, 100.0, 0.5, None,
        "d74d1d36620a298c0bcf8ed15a63381cddc8da0c1e7b4f802dc821f49cb136f6"),
    "rate-cli-defaults": (
        ("squeezenet",) * 2, "krisp-i", 4, 200.0, 2.0, None,
        "72ed9e859964a79bfc7a39b9c80e99b7a9b653533dcaf4d24fd9517d4f1ec960"),
    "squeezenet4-mps-400rps": (
        ("squeezenet",) * 4, "mps-default", 32, 400.0, 0.5, None,
        "11c1d47ee2ad699f0a96b0f61de34797728910f87ce715707a3c66a596fcc15e"),
    "squeezenet2-guarded-300rps": (
        ("squeezenet",) * 2, "krisp-i", 4, 300.0, 0.5,
        SloGuard(admission_depth=4, deadline=0.02),
        "0c5c6b0b038de2e3b1c977e8fb19d4262f6127c14ad2ebad8ee17855b3e930a0"),
}


@pytest.mark.parametrize("name", sorted(RATE_PINS))
def test_plain_rate_runs_are_pinned(name):
    models, policy, batch, rps, duration, guard, pin = RATE_PINS[name]
    config = ExperimentConfig(models, policy=policy, batch_size=batch)
    result = run_rate_experiment(config, offered_rps=rps, duration=duration,
                                 options=RunOptions(guard=guard))
    assert rate_result_hash(result) == pin


def test_poisson_example_is_the_plain_rate_run():
    """``examples/workloads/poisson-squeezenet.yaml`` is bit-identical to
    ``krisp-repro rate squeezenet --rps 200 --batch 4``, as it says."""
    spec = load_workload(EXAMPLES / "poisson-squeezenet.yaml")
    result = run_rate_experiment(CONFIG, duration=2.0,
                                 options=RunOptions(workload=spec))
    assert rate_result_hash(result) == RATE_PINS["rate-cli-defaults"][-1]


def _trace_spec():
    return TraceWorkloadSpec(entries=tuple(
        TraceEntry(time=i * 0.004, model="squeezenet", batch_size=4)
        for i in range(150)))


#: Seed-0 ``cluster_result_hash`` of 2-device, 1 s fleet runs:
#: (spec, router, faults, guard) -> sha256.
FLEET_PINS = {
    "bursty-least-loaded": (
        lambda: load_workload(EXAMPLES / "bursty-mix.yaml"),
        "least-loaded", None, None,
        "1276dc7f0634eceec837f74b65dca2b870ac1fae2ae236c2e1d987173569c4c4"),
    "bursty-free-cu-crash-guarded": (
        lambda: load_workload(EXAMPLES / "bursty-mix.yaml"),
        "free-cu", FaultSchedule(events=(NodeCrash(time=0.5, node=1),)),
        SloGuard(admission_depth=8, deadline=0.05),
        "c8698db2095ef0db9a7070c28ff991103be739f0c1e2154da6991eb5b22bcf4d"),
    "llm-chat-affinity": (
        lambda: load_workload(EXAMPLES / "llm-chat.yaml"),
        "affinity", None, None,
        "54401f1f94abf64edd7f52f36fb2efcf8ef8e2308d060970a84a6163836a566d"),
    "trace-least-loaded": (
        _trace_spec, "least-loaded", None, None,
        "5552f4a37d05001d27e055a80fc1363228eecb177434151a09aed9323c9d17f6"),
}


def run_fleet_pin(name, *, rate_scale=1.0, metrics=None, **kwargs):
    """Run one ``FLEET_PINS`` case (``kwargs`` reach the experiment)."""
    make_spec, router, faults, guard, _pin = FLEET_PINS[name]
    spec = make_spec()
    if rate_scale != 1.0:
        spec = spec.at_rate(rate_scale * spec.offered_rps())
    config = ClusterConfig(
        devices=2, model_names=spec.models(), policy="krisp-i",
        batch_size=spec.request_batch_size(), seed=0, router=router,
        pool_size=2, pool_min=1)
    return run_cluster_experiment(
        config, spec, duration=1.0,
        options=RunOptions(faults=faults, guard=guard, metrics=metrics),
        **kwargs)


@pytest.mark.parametrize("name", sorted(FLEET_PINS))
def test_fleet_runs_are_pinned(name):
    result = run_fleet_pin(name)
    assert cluster_result_hash(result) == FLEET_PINS[name][-1]


def test_fig13a_pin_survives_workload_runs():
    """Running the workload engine perturbs nothing: the legacy
    closed-loop cell still reproduces its pinned result sha."""
    run_rate_experiment(CONFIG, duration=0.3,
                        options=RunOptions(workload=poisson_spec(80.0)))
    assert result_hash(run_experiment(FIG13A)) == FIG13A_RESULT_SHA


def test_workload_runs_are_repeatable():
    spec = poisson_spec(120.0)
    a = run_rate_experiment(CONFIG, duration=0.4,
                            options=RunOptions(workload=spec))
    b = run_rate_experiment(CONFIG, duration=0.4,
                            options=RunOptions(workload=spec))
    assert a == b


def test_workload_offered_rps_defaults_to_spec_rate():
    result = run_rate_experiment(
        CONFIG, duration=0.3, options=RunOptions(workload=poisson_spec(80.0)))
    assert result.offered_rps == pytest.approx(80.0)


def test_workload_batch_size_must_match_config():
    with pytest.raises(ValueError, match="batch size"):
        run_rate_experiment(
            CONFIG, duration=0.3,
            options=RunOptions(workload=poisson_spec(80.0, batch=8)))


def test_workload_models_must_be_configured():
    with pytest.raises(ValueError, match="mobilenet"):
        run_rate_experiment(
            CONFIG, duration=0.1,
            options=RunOptions(workload=poisson_spec(80.0,
                                                     model="mobilenet")))


def test_explicit_rate_must_match_the_workload():
    """An explicit ``offered_rps`` names the run's rate, so it must be
    the rate the spec actually offers — not silently ignored."""
    with pytest.raises(ValueError, match="at_rate"):
        run_rate_experiment(
            CONFIG, offered_rps=400.0, duration=0.3,
            options=RunOptions(workload=poisson_spec(100.0)))
    # Rescaled with at_rate, the same request runs and reports its rate.
    spec = poisson_spec(100.0).at_rate(400.0)
    result = run_rate_experiment(CONFIG, offered_rps=400.0, duration=0.3,
                                 options=RunOptions(workload=spec))
    assert result.offered_rps == 400.0


def test_plain_rate_rejects_a_mixed_deployment():
    config = ExperimentConfig(("squeezenet", "mobilenet"),
                              policy="krisp-i", batch_size=4)
    with pytest.raises(ValueError, match="workload="):
        run_rate_experiment(config, offered_rps=100.0, duration=0.1)


# -- heterogeneous routing ---------------------------------------------------

MIX = HeterogeneousWorkloadSpec(
    classes=(RequestClass("squeezenet", batch_size=4, weight=3.0),
             RequestClass("mobilenet", batch_size=4, weight=1.0)),
    arrivals=PoissonArrivals(rate=100.0))


def test_heterogeneous_mix_routes_to_per_model_queues():
    config = ExperimentConfig(("squeezenet", "mobilenet"),
                              policy="krisp-i", batch_size=4)
    setup = ServingSetup.build(config, rng_label="rate/400.0")
    setup.add_workload(MIX, stop_time=0.5)
    queues = {q.name: q for q in setup.queues}
    assert sorted(queues) == ["wl-mobilenet", "wl-squeezenet"]
    setup.sim.run(until=0.5)
    # Both classes were drawn, roughly at their 3:1 weights.
    squeezenet = queues["wl-squeezenet"].enqueued
    mobilenet = queues["wl-mobilenet"].enqueued
    assert squeezenet > 0 and mobilenet > 0
    assert 1.5 < squeezenet / mobilenet < 6.0
    # Workers only ever served their own model.
    for worker in setup.workers:
        models = {r.model_name for r in worker.stats.completed}
        assert len(models) <= 1


def test_unused_configured_model_idles():
    config = ExperimentConfig(("squeezenet", "mobilenet"),
                              policy="krisp-i", batch_size=4)
    setup = ServingSetup.build(config, rng_label="rate/80.0")
    setup.add_workload(poisson_spec(80.0), stop_time=0.3)
    setup.sim.run(until=0.3)
    names = sorted(q.name for q in setup.queues)
    assert names == ["idle-mobilenet", "wl-squeezenet"]
    served = [w for w in setup.workers if w.stats.completed]
    assert all(r.model_name == "squeezenet"
               for w in served for r in w.stats.completed)


# -- LLM phases end-to-end ---------------------------------------------------

def test_llm_workload_serves_variable_output_lengths():
    config = ExperimentConfig(("llm-tiny",) * 2, policy="krisp-i",
                              batch_size=8)
    spec = HomogeneousWorkloadSpec(
        "llm-tiny", PoissonArrivals(rate=40.0), batch_size=8,
        output_tokens=(1, 6))
    setup = ServingSetup.build(config, rng_label="rate/320.0")
    setup.add_workload(spec, stop_time=0.5)
    setup.sim.run(until=0.5)
    completed = [r for w in setup.workers for r in w.stats.completed]
    assert len(completed) > 10
    tokens = {r.output_tokens for r in completed}
    assert len(tokens) > 1  # lengths were actually drawn per request
    assert all(1 <= t <= 6 for t in tokens)
    # More decode tokens -> strictly more GPU work -> higher latency.
    by_tokens = {}
    for r in completed:
        by_tokens.setdefault(r.output_tokens, []).append(r.service_latency)
    means = {t: sum(v) / len(v) for t, v in by_tokens.items()}
    assert means[max(means)] > means[min(means)]


def test_llm_workload_is_repeatable():
    config = ExperimentConfig(("llm-tiny",) * 2, policy="krisp-i",
                              batch_size=8)
    spec = HomogeneousWorkloadSpec(
        "llm-tiny", PoissonArrivals(rate=40.0), batch_size=8,
        output_tokens=(1, 6))
    a = run_rate_experiment(config, duration=0.4,
                            options=RunOptions(workload=spec))
    b = run_rate_experiment(config, duration=0.4,
                            options=RunOptions(workload=spec))
    assert a == b


# -- SLO guard composition ---------------------------------------------------

def test_guard_sheds_under_workload_overload():
    guard = SloGuard(admission_depth=4, deadline=0.05)
    result = run_rate_experiment(
        CONFIG, duration=0.5,
        options=RunOptions(workload=poisson_spec(5000.0), guard=guard))
    assert result.resilience is not None
    assert result.resilience.shed > 0
    assert result.resilience.goodput_rps <= result.achieved_rps + 1e-9


# -- load curves -------------------------------------------------------------

def test_load_curve_serial_and_pooled_are_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = poisson_spec(200.0)
    serial = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                            jobs=1, store=None)
    pooled = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                            jobs=2, store=None)
    assert serial.points == pooled.points
    assert serial.cache_hits == pooled.cache_hits == 0


def test_load_curve_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    spec = poisson_spec(200.0)
    first = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                           store=cache)
    assert first.cache_hits == 0
    second = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                            store=cache)
    assert second.cache_hits == len(second.points) == 2
    assert second.points == first.points
    assert cache.stats.hits == 2


def test_load_curve_latency_rises_with_rate(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_load_curve(CONFIG, poisson_spec(200.0),
                            scales=(0.25, 1.0, 4.0), duration=0.5,
                            store=None)
    p95s = [p.latency.p95 for p in report.points]
    assert p95s[0] <= p95s[-1]
    assert report.points[-1].offered_rps == pytest.approx(800.0)
    rows = report.to_rows()
    assert len(rows) == 3 and all(r["p95_ms"] > 0 for r in rows)
    assert report.to_text()  # renders without raising


def test_load_curve_rejects_empty_or_nonpositive_rates():
    with pytest.raises(ValueError):
        run_load_curve(CONFIG, poisson_spec(100.0), rates=(0.0, 10.0))
    with pytest.raises(ValueError):
        run_load_curve(CONFIG, poisson_spec(100.0), rates=(),
                       scales=())


# -- CLI ---------------------------------------------------------------------

def test_cli_load_smoke(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(workload_to_yaml(poisson_spec(200.0)))
    out = tmp_path / "curve.json"
    code = main(["load", str(spec_path), "--scales", "0.5", "1.0",
                 "--duration", "0.4", "--no-cache",
                 "--json-out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "load curve over 2 rates" in captured.out
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["workload"]["kind"] == "homogeneous"
    assert len(payload["rows"]) == 2
    assert all(row["p95_ms"] > 0 for row in payload["rows"])
