"""Tests for the content-addressed result store (repro/exp/cache.py)."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.exp.cache import (
    ContentStore,
    cache_key,
    cache_root,
    config_from_dict,
    config_to_dict,
    fingerprint,
    rate_result_hash,
    result_from_dict,
    result_hash,
    result_to_dict,
)
from repro.exp.cells import ExperimentCell, RateCell, cached_run_experiment
from repro.server.experiment import (
    ExperimentConfig,
    ExperimentResult,
    WorkerResult,
)
from repro.server.metrics import LatencyStats

BASE = ExperimentConfig(
    model_names=("squeezenet", "shufflenet"),
    policy="krisp-i",
    batch_size=8,
    seed=3,
    overlap_limit=4,
    requests_scale=0.5,
)

#: One distinct mutation per ExperimentConfig field.
FIELD_VARIANTS = {
    "model_names": ("squeezenet",),
    "policy": "krisp-o",
    "batch_size": 16,
    "seed": 4,
    "emulated": True,
    "overlap_limit": None,
    "requests_scale": 0.75,
    "intra_cu_alpha": 1.3,
    "mem_bandwidth_budget": 0.8,
    "allocator_reshape": False,
    "allocation": "pooled",
    "sizing": "predictive",
}


def _synthetic_result(config: ExperimentConfig) -> ExperimentResult:
    stats = LatencyStats(count=7, mean=0.010, p50=0.009, p95=0.013,
                         p99=0.014, p999=0.0142, maximum=0.0145)
    workers = tuple(
        WorkerResult(model_name=name, requests_completed=7,
                     rps=100.0 + i, latency=stats)
        for i, name in enumerate(config.model_names)
    )
    return ExperimentResult(
        config=config, workers=workers, window=0.5,
        total_rps=sum(w.rps for w in workers), energy_joules=12.5,
        energy_per_request=0.893, gpu_utilization=0.61,
        peak_cu_occupancy=42,
    )


def test_every_config_field_changes_the_key():
    assert set(FIELD_VARIANTS) == {
        f.name for f in dataclasses.fields(ExperimentConfig)
    }, "update FIELD_VARIANTS when ExperimentConfig grows a field"
    keys = {cache_key(BASE)}
    for name, value in FIELD_VARIANTS.items():
        variant = dataclasses.replace(BASE, **{name: value})
        keys.add(cache_key(variant))
    assert len(keys) == len(FIELD_VARIANTS) + 1


def test_repro_version_changes_the_key(monkeypatch):
    before = cache_key(BASE)
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert cache_key(BASE) != before


def test_explicit_constants_change_the_key():
    constants = dict(fingerprint(), slo_factor=3.0)
    assert cache_key(BASE, constants) != cache_key(BASE)


def test_cache_key_is_stable_across_calls():
    assert cache_key(BASE) == cache_key(BASE)


def test_config_round_trips_through_json():
    payload = json.loads(json.dumps(config_to_dict(BASE)))
    assert config_from_dict(payload) == BASE


def test_result_round_trips_through_json():
    result = _synthetic_result(BASE)
    payload = json.loads(json.dumps(result_to_dict(result)))
    assert result_from_dict(payload) == result


def test_result_cache_round_trip(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    cell = ExperimentCell(BASE)
    assert cache.get(cell) is None
    assert cache.stats.misses == 1
    result = _synthetic_result(BASE)
    cache.put(cell, result)
    assert cache.get(cell) == result
    assert cache.stats.hits == 1
    # A different config misses even with the store populated.
    other = dataclasses.replace(BASE, seed=99)
    assert cache.get(ExperimentCell(other)) is None


@pytest.mark.parametrize("corruption", [
    "",                      # truncated to nothing
    "{not json",             # invalid syntax
    '{"config": {}, "result": {}}',  # config mismatch
    '[1, 2, 3]',             # wrong root type
])
def test_corrupt_result_entries_are_misses(monkeypatch, tmp_path, corruption):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    cell = ExperimentCell(BASE)
    cache.put(cell, _synthetic_result(BASE))
    cache.path_for(cell).write_text(corruption)
    assert cache.get(cell) is None
    assert cache.stats.invalidations == 1
    # The corrupt file was quarantined, so a re-put works cleanly.
    cache.put(cell, _synthetic_result(BASE))
    assert cache.get(cell) is not None


def test_cached_run_experiment_recomputes_after_corruption(monkeypatch,
                                                           tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    config = ExperimentConfig(("squeezenet",), batch_size=4,
                              requests_scale=0.25)
    first = cached_run_experiment(config, cache)
    cache.path_for(ExperimentCell(config)).write_text("{truncated")
    second = cached_run_experiment(config, cache)
    assert first == second
    assert cache.stats.invalidations == 1


def test_cache_root_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cache_root() == tmp_path
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert cache_root().name == "repro-krisp"


# -- shard layout & legacy migration -----------------------------------------

def test_entries_land_in_two_hex_shard_subdirs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    cache.put(ExperimentCell(BASE), _synthetic_result(BASE))
    key = cache_key(BASE)
    path = cache.path_for(ExperimentCell(BASE))
    assert path == tmp_path / "results" / key[:2] / f"{key}.json"
    assert path.exists()


def test_flat_legacy_entry_hits_and_migrates_on_read(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ContentStore()
    cell = ExperimentCell(BASE)
    result = _synthetic_result(BASE)
    cache.put(cell, result)
    key = cache_key(BASE)
    sharded = cache.path_for(cell)
    # Rewind to the pre-sharding layout: flat <results>/<key>.json.
    legacy = tmp_path / "results" / f"{key}.json"
    sharded.rename(legacy)
    sharded.parent.rmdir()

    assert cache.get(cell) == result          # legacy entry still hits...
    assert sharded.exists()                   # ...and was moved into its shard
    assert not legacy.exists()
    assert cache.stats.hits == 1

    assert cache.get(cell) == result          # steady state: sharded read
    assert cache.stats.hits == 2


def test_locate_entry_misses_resolve_to_sharded_path(tmp_path):
    from repro.exp.cache import locate_entry, sharded_entry_path

    key = "ab" + "0" * 62
    assert locate_entry(tmp_path, key) == sharded_entry_path(tmp_path, key)
    assert locate_entry(tmp_path, key) == tmp_path / "ab" / f"{key}.json"


# -- open-loop and fleet key pins --------------------------------------------

POISSON_SPEC = "examples/workloads/poisson-squeezenet.yaml"
RATE_CFG = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                            batch_size=4)


def _fleet_base():
    from repro.cluster.config import ClusterConfig

    return ClusterConfig(devices=2, model_names=("squeezenet",),
                         policy="krisp-i", batch_size=4, seed=0)


def _poisson_spec():
    from repro.workload import load_workload

    return load_workload(Path(__file__).resolve().parents[1] / POISSON_SPEC)


def test_rate_cache_key_pin():
    from repro.exp.cache import rate_cache_key

    assert rate_cache_key(RATE_CFG, 100.0, 0.5) == (
        "f72a4597608caf7a1a309bc5156bec677f386d01ffc6f077d569afc368fe4635")


def test_rate_cache_key_with_workload_pin():
    from repro.exp.cache import rate_cache_key

    key = rate_cache_key(RATE_CFG, 200.0, 0.5, workload=_poisson_spec())
    assert key == (
        "8284e345716c09ded0c9f28753ee04e7bff740682a84e1d73e59122c6473d4fd")


def test_cluster_cache_key_pins():
    from repro.cluster.config import AutoscalerConfig
    from repro.cluster.experiment import cluster_cache_key

    spec = _poisson_spec()
    scaled = cluster_cache_key(_fleet_base(), 200.0, 0.5, workload=spec,
                               autoscaler=AutoscalerConfig())
    assert scaled == (
        "df5d901d331bcb4dd077a67e8688d7323f88d85ae56d5a431762e5bb9e5b9817")
    pinned = cluster_cache_key(_fleet_base(), 200.0, 0.5, workload=spec)
    assert pinned == (
        "7c2ee1d8e91185d2f1a86c93289ab041fa3a0599d10743b2a6f24902f65de123")


# -- entries written by the pre-ContentStore cache classes --------------------

#: One entry per namespace, as the per-namespace cache classes wrote them
#: (sharded layout), with the result hash each decodes to.
LEGACY_STORE = Path(__file__).parent / "data" / "legacy_store"


def _legacy_cells():
    from repro.cluster.config import AutoscalerConfig
    from repro.cluster.experiment import ClusterCell, cluster_result_hash

    spec = _poisson_spec()
    closed = ExperimentConfig(("squeezenet",), batch_size=4,
                              requests_scale=0.25)
    return [
        (ExperimentCell(closed), result_hash,
         "5a1899e0830099e1658079336032b696ee9bec6f16143ff5b2ca201c2f4c9a2a"),
        (RateCell(RATE_CFG, 200.0, 0.5, workload=spec), rate_result_hash,
         "42bfea522ab1e9af0d95361421bf40cee94217696e5197dab80604ac595f4949"),
        (ClusterCell(_fleet_base(), spec.at_rate(200.0), 0.5,
                     AutoscalerConfig()), cluster_result_hash,
         "dd209f6c1870213819857f5383e4683b801543ac72aeb7c796958f8aeb4409ab"),
    ]


@pytest.mark.parametrize("flat", [False, True], ids=["sharded", "flat"])
def test_legacy_entries_are_served_as_hits(tmp_path, flat):
    shutil.copytree(LEGACY_STORE, tmp_path, dirs_exist_ok=True)
    store = ContentStore(root=tmp_path)
    for cell, digest_of, digest in _legacy_cells():
        sharded = store.path_for(cell)
        assert sharded.exists(), cell.namespace
        legacy = tmp_path / cell.namespace / sharded.name
        if flat:  # the pre-sharding layout: <namespace>/<key>.json
            sharded.rename(legacy)
        result = store.get(cell)
        assert result is not None, cell.namespace
        assert digest_of(result) == digest
        assert sharded.exists() and not legacy.exists()
    assert store.stats.as_dict() == {"hits": 3, "misses": 0, "stores": 0,
                                     "invalidations": 0}
