"""Tests for workload specs (repro.workload.spec): round-trips, unknown-
key tolerance, content hashing, and the rate-result cache contract."""

import json

import pytest

from repro.exp.cache import (
    ContentStore,
    rate_cache_key,
    rate_result_from_dict,
    rate_result_hash,
    rate_result_to_dict,
)
from repro.exp.cells import RateCell
from repro.server.experiment import ExperimentConfig
from repro.server.metrics import LatencyStats
from repro.server.rate_experiment import RateResult
from repro.workload import (
    DiurnalArrivals,
    HeterogeneousWorkloadSpec,
    HomogeneousWorkloadSpec,
    OnOffArrivals,
    PoissonArrivals,
    RequestClass,
    TraceEntry,
    TraceWorkloadSpec,
    load_workload,
    spec_hash,
    workload_from_dict,
    workload_from_yaml,
    workload_to_yaml,
)

POISSON = HomogeneousWorkloadSpec("squeezenet", PoissonArrivals(rate=50.0),
                                  batch_size=4)
LLM = HomogeneousWorkloadSpec("llm-tiny", PoissonArrivals(rate=30.0),
                              batch_size=8, output_tokens=(1, 8))
MIX = HeterogeneousWorkloadSpec(
    classes=(RequestClass("squeezenet", batch_size=4, weight=3.0),
             RequestClass("mobilenet", batch_size=4, weight=1.0)),
    arrivals=OnOffArrivals(on_rate=80.0, on_duration=0.2,
                           off_duration=0.1, off_rate=10.0))
TRACE = TraceWorkloadSpec(entries=(
    TraceEntry(time=0.0, model="squeezenet", batch_size=4),
    TraceEntry(time=0.1, model="squeezenet", batch_size=4),
    TraceEntry(time=0.25, model="squeezenet", batch_size=4),
))
ALL_SPECS = [POISSON, LLM, MIX, TRACE]


# -- round-trips -------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS,
                         ids=lambda s: type(s).__name__)
def test_dict_round_trip(spec):
    assert workload_from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("spec", ALL_SPECS,
                         ids=lambda s: type(s).__name__)
def test_yaml_round_trip(spec):
    text = workload_to_yaml(spec)
    assert workload_from_yaml(text) == spec
    # YAML -> spec -> YAML is a fixpoint (sorted keys, stable layout).
    assert workload_to_yaml(workload_from_yaml(text)) == text


def test_dicts_are_json_native():
    for spec in ALL_SPECS:
        json.dumps(spec.to_dict(), sort_keys=True)  # must not raise


def test_load_workload_json_and_yaml(tmp_path):
    yml = tmp_path / "spec.yaml"
    yml.write_text(workload_to_yaml(MIX))
    assert load_workload(yml) == MIX
    js = tmp_path / "spec.json"
    js.write_text(json.dumps(LLM.to_dict()))
    assert load_workload(js) == LLM


# -- unknown-key tolerance (SloGuard.from_dict convention) -------------------

def test_unknown_keys_are_tolerated_at_every_level():
    payload = MIX.to_dict()
    payload["future_top"] = 1
    payload["arrivals"]["future_arrival"] = 2
    payload["classes"][0]["future_class"] = 3
    assert workload_from_dict(payload) == MIX


def test_unknown_spec_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown workload-spec kind"):
        workload_from_dict({"kind": "quantum"})


# -- spec semantics ----------------------------------------------------------

def test_offered_rps_scales_requests_not_batches():
    assert POISSON.offered_rps() == pytest.approx(50.0 * 4)
    # weighted mean batch = 4 for the mix; onoff mean rate is duty-cycled
    assert MIX.offered_rps() == pytest.approx(
        MIX.arrivals.mean_rate() * 4)


def test_at_rate_rescales_to_requested_load():
    for spec in ALL_SPECS:
        scaled = spec.at_rate(123.0)
        assert scaled.offered_rps() == pytest.approx(123.0)
        assert type(scaled) is type(spec)


def test_mixed_batch_sizes_are_rejected():
    mixed = HeterogeneousWorkloadSpec(
        classes=(RequestClass("squeezenet", batch_size=4),
                 RequestClass("mobilenet", batch_size=8)),
        arrivals=PoissonArrivals(rate=10.0))
    with pytest.raises(ValueError, match="mixed per-class batch sizes"):
        mixed.request_batch_size()


def test_trace_entries_must_be_sorted():
    with pytest.raises(ValueError, match="sorted"):
        TraceWorkloadSpec(entries=(
            TraceEntry(time=0.5, model="squeezenet"),
            TraceEntry(time=0.1, model="squeezenet")))


def test_output_tokens_validation():
    with pytest.raises(ValueError):
        HomogeneousWorkloadSpec("llm-tiny", PoissonArrivals(rate=1.0),
                                output_tokens=(0, 4))
    with pytest.raises(ValueError):
        RequestClass("llm-tiny", output_tokens=(5, 2))


# -- content hashing ---------------------------------------------------------

def test_spec_hash_is_stable_and_discriminating():
    assert spec_hash(POISSON) == spec_hash(
        HomogeneousWorkloadSpec("squeezenet", PoissonArrivals(rate=50.0),
                                batch_size=4))
    hashes = {spec_hash(s) for s in ALL_SPECS}
    assert len(hashes) == len(ALL_SPECS)
    # Rate changes move the hash too.
    assert spec_hash(POISSON.at_rate(100.0)) != spec_hash(POISSON)


# -- rate cache contract -----------------------------------------------------

CONFIG = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=4)


def test_rate_cache_key_distinguishes_specs_and_legacy():
    legacy = rate_cache_key(CONFIG, 100.0, 0.5)
    keyed = {rate_cache_key(CONFIG, 100.0, 0.5, workload=s)
             for s in ALL_SPECS}
    assert legacy not in keyed
    assert len(keyed) == len(ALL_SPECS)
    # Only-when-given folding: the legacy key has no workload axis.
    assert rate_cache_key(CONFIG, 100.0, 0.5) == legacy


def _result(p50=0.005):
    samples = [p50] * 10
    return RateResult(offered_rps=100.0, achieved_rps=98.0,
                      latency=LatencyStats.from_samples(samples),
                      queue_residue=1)


def test_rate_result_round_trip_and_hash():
    result = _result()
    payload = rate_result_to_dict(result)
    assert rate_result_from_dict(payload) == result
    assert rate_result_hash(result) == rate_result_hash(_result())
    assert rate_result_hash(result) != rate_result_hash(_result(p50=0.006))


def test_rate_result_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    cell = RateCell(CONFIG, 100.0, 0.5, workload=POISSON)
    assert cell.key() == rate_cache_key(CONFIG, 100.0, 0.5, workload=POISSON)
    assert cache.get(cell) is None
    assert cache.stats.misses == 1
    result = _result()
    cache.put(cell, result)
    assert cache.get(cell) == result
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_rate_result_cache_treats_corruption_as_miss(tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    cell = RateCell(CONFIG, 100.0, 0.5)
    cache.put(cell, _result())
    cache.path_for(cell).write_text("{ not json")
    assert cache.get(cell) is None
    assert not cache.path_for(cell).exists()  # corrupt entry evicted
