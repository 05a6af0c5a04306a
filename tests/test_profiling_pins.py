"""Cold-profiling products, pinned.

The offline profiling products every serving cell reads — the model
right-size, the isolated pass latency, the SLO target, the isolated
baseline cell and the full right-size sweep — are computed in each
test from an empty result store and empty in-process memos, so a warm
result entry cannot satisfy a pin without profiling anything.  The pins
hold in both recompute modes (``REPRO_FULL_RECOMPUTE``) and under any
``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.check.profiling import PROFILING_CASES
from repro.exp.cache import result_hash
from repro.models.zoo import get_model
from repro.profiling.model_profiler import profile_model
from repro.server.experiment import (
    _isolated_pass_latency,
    isolated_baseline,
    slo_target,
)
from repro.server.profiles import model_right_size

_MEMOS = (model_right_size, _isolated_pass_latency, isolated_baseline)

# (model, batch): (right-size, isolated pass latency, SLO target,
#                  isolated-baseline result hash, sweep hash)
PINS = {
    ("squeezenet", 1): (
        2, 0.006607281249999988, 0.014365159916832515,
        "1fdd4732d1cc898aaed1a0fa14e98b402e5118e5387f45aaf30e94a4b6a8cb50",
        "cdd3eb55deef30536f5a6ac4de3d13771737e14ae9005c57935ff79542a50444"),
    ("squeezenet", 4): (
        3, 0.006674124999999985, 0.014459258880701209,
        "b936889ed21980b8fc29bb414a336913ad4c3efb920bc3a54d7ab8de7be99a23",
        "d38323afdea3c80e7f32864ca7211eec7654061b884e810225c1b1ffab9ed577"),
    ("squeezenet", 8): (
        5, 0.006763249999999988, 0.014735849340136498,
        "b9ff833737112e279b0228b4494d8700235a6047d988ee78d1d4216a3c6ad77b",
        "bf157149bc4304626c925653e51a07e9bf236d48468893c8b548ad5d45fc70fc"),
    ("mobilenet", 4): (
        2, 0.002259750000000003, 0.005634906793116179,
        "1bfc181daf341730062ae5acaeac87faade2e13c86515e876928138e1daceeae",
        "48cf14b4b08751adbfef9b6d0849ff0b9c14e19c0e91361c9b0f72ac062d70ff"),
}


@pytest.fixture
def cold_store(monkeypatch, tmp_path):
    """An empty result store and empty profiling memos, before and after."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for memo in _MEMOS:
        memo.cache_clear()
    yield tmp_path
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("model,batch", sorted(PINS))
def test_cold_profiling_products_are_pinned(cold_store, model, batch):
    right_size, pass_latency, slo, baseline_hash, sweep_hash = \
        PINS[(model, batch)]
    assert model_right_size(model, batch) == right_size
    assert _isolated_pass_latency(model, batch) == pass_latency
    assert slo_target(model, batch) == slo
    assert result_hash(isolated_baseline(model, batch)) == baseline_hash
    sweep = profile_model(get_model(model), batch_size=batch,
                          cu_counts=range(2, 61), tolerance=0.05)
    assert sweep.right_size == right_size
    digest = hashlib.sha256(repr(sweep.latencies).encode()).hexdigest()
    assert digest == sweep_hash


def test_profiling_oracle_covers_every_pinned_case():
    assert sorted(PROFILING_CASES) == sorted(PINS)
