"""Integration tests for the open-loop workload engine: the workload=
path of run_rate_experiment, ServingSetup.add_workload routing, the
load-curve runner, and the ``krisp-repro load`` CLI.

The two load-bearing contracts:

* a homogeneous Poisson spec is *bit-identical* to the legacy
  ``add_open_loop`` path at the same rate — the workload engine
  perturbs nothing (the fig13a result-sha pin is re-asserted here after
  workload runs to prove the legacy harness is untouched);
* load curves are bit-identical across repeated runs, serial vs pooled
  execution, and cache hits vs recomputation.
"""

import json

import pytest

from repro.exp.cache import (
    ContentStore,
    rate_result_to_dict,
    result_hash,
)
from repro.exp.load import run_load_curve
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


# -- differential: workload path vs legacy open loop -------------------------

def test_poisson_spec_is_bit_identical_to_legacy_open_loop():
    legacy = run_rate_experiment(CONFIG, offered_rps=100.0, duration=0.5)
    spec = poisson_spec(100.0)
    via_spec = run_rate_experiment(CONFIG, offered_rps=100.0,
                                   duration=0.5,
                                   options=RunOptions(workload=spec))
    assert via_spec == legacy  # full float-for-float equality
    assert rate_result_to_dict(via_spec) == rate_result_to_dict(legacy)


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
    setup = ServingSetup.build(CONFIG, rng_label="rate/1.0")
    with pytest.raises(ValueError, match="mobilenet"):
        setup.add_workload(poisson_spec(80.0, model="mobilenet"),
                           stop_time=0.1)


# -- heterogeneous routing ---------------------------------------------------

MIX = HeterogeneousWorkloadSpec(
    classes=(RequestClass("squeezenet", batch_size=4, weight=3.0),
             RequestClass("mobilenet", batch_size=4, weight=1.0)),
    arrivals=PoissonArrivals(rate=100.0))


def test_heterogeneous_mix_routes_to_per_model_queues():
    config = ExperimentConfig(("squeezenet", "mobilenet"),
                              policy="krisp-i", batch_size=4)
    setup = ServingSetup.build(config, rng_label="rate/400.0")
    client = setup.add_workload(MIX, stop_time=0.5)
    assert sorted(q.name for q in setup.queues) == \
        ["wl-mobilenet", "wl-squeezenet"]
    setup.sim.run(until=0.5)
    # Both classes were drawn, roughly at their 3:1 weights.
    assert set(client.issued_per_model) == {"squeezenet", "mobilenet"}
    ratio = (client.issued_per_model["squeezenet"]
             / client.issued_per_model["mobilenet"])
    assert 1.5 < ratio < 6.0
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
                            jobs=1, use_cache=False)
    pooled = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                            jobs=2, use_cache=False)
    assert serial.points == pooled.points
    assert serial.cache_hits == pooled.cache_hits == 0


def test_load_curve_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    spec = poisson_spec(200.0)
    first = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                           cache=cache)
    assert first.cache_hits == 0
    second = run_load_curve(CONFIG, spec, scales=(0.5, 1.0), duration=0.4,
                            cache=cache)
    assert second.cache_hits == len(second.points) == 2
    assert second.points == first.points
    assert cache.stats.hits == 2


def test_load_curve_latency_rises_with_rate(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_load_curve(CONFIG, poisson_spec(200.0),
                            scales=(0.25, 1.0, 4.0), duration=0.5,
                            use_cache=False)
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
