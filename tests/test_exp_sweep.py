"""Determinism and failure-isolation tests for the sweep orchestrator.

The orchestrator's core promise: the same ``ExperimentConfig`` run
serially, through the process pool, and via a cache hit yields
bit-identical ``ExperimentResult`` fields — and a raising cell lands in
``SweepReport.failed`` without aborting its siblings.
"""

import dataclasses

import pytest

from repro.exp.cache import ContentStore
from repro.exp.sweep import Sweep, default_jobs, run_sweep
from repro.server.experiment import ExperimentConfig, run_experiment

#: Small, fast cells (short windows) so the pool round-trips stay cheap.
CONFIGS = (
    ExperimentConfig(("squeezenet",), policy="krisp-i", batch_size=4,
                     requests_scale=0.25),
    ExperimentConfig(("shufflenet",) * 2, policy="mps-default", batch_size=4,
                     requests_scale=0.25),
)

BAD = ExperimentConfig(("no-such-model",), batch_size=4)


def _assert_identical(a, b):
    """Field-for-field equality, spelled out so a drift names the field."""
    assert a.config == b.config
    assert a.window == b.window
    assert a.total_rps == b.total_rps
    assert a.energy_joules == b.energy_joules
    assert a.energy_per_request == b.energy_per_request
    assert a.gpu_utilization == b.gpu_utilization
    assert a.workers == b.workers


def test_serial_pool_and_cache_paths_are_bit_identical(monkeypatch,
                                                       tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    serial = {config: run_experiment(config) for config in CONFIGS}

    pooled = run_sweep(CONFIGS, jobs=2)
    assert pooled.ok
    assert pooled.ran == len(CONFIGS) and pooled.cached == 0
    for config in CONFIGS:
        _assert_identical(pooled.result(config), serial[config])

    warm = run_sweep(CONFIGS, jobs=2)
    assert warm.ok
    assert warm.ran == 0 and warm.cached == len(CONFIGS)
    for config in CONFIGS:
        _assert_identical(warm.result(config), serial[config])


def test_serial_fallback_matches_direct_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_sweep([CONFIGS[0]], jobs=1, store=None)
    assert report.ok and report.cached == 0
    _assert_identical(report.result(CONFIGS[0]), run_experiment(CONFIGS[0]))


def test_failing_cell_does_not_abort_siblings(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_sweep([CONFIGS[0], BAD, CONFIGS[1]], jobs=2, retries=0)
    assert not report.ok
    assert len(report.failed) == 1
    failure = report.failed[0]
    assert failure.config == BAD
    assert failure.attempts == 1
    assert "no-such-model" in failure.traceback
    # Both siblings completed despite the failure.
    for config in CONFIGS:
        assert config in report.results
    with pytest.raises(RuntimeError, match="no-such-model"):
        report.raise_failures()
    with pytest.raises(RuntimeError, match="attempts"):
        report.result(BAD)


def test_failed_cells_are_retried(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_sweep([BAD], jobs=1, retries=2, store=None)
    assert report.failed[0].attempts == 3


def test_sweep_builder_dedupes_and_orders():
    sweep = Sweep()
    sweep.add(CONFIGS[0]).add(CONFIGS[1]).add(CONFIGS[0])
    assert sweep.cells == CONFIGS

    grid = Sweep().add_grid(("squeezenet", "shufflenet"),
                            ("krisp-i", "mps-default"), (1, 2),
                            batch_size=8)
    assert len(grid) == 8
    assert all(len(set(c.model_names)) == 1 for c in grid)

    pairs = Sweep().add_pairs(("a", "b", "c"), ("krisp-i",), batch_size=8)
    assert len(pairs) == 3
    assert all(len(c.model_names) == 2 for c in pairs)


def test_report_accounting(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_sweep([CONFIGS[0]], jobs=1)
    assert report.cell_time > 0.0
    assert report.wall_time > 0.0
    assert report.speedup > 0.0
    assert "1 run" in report.summary()


def test_default_jobs_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1


@pytest.mark.parametrize("value", ["0", "-4"])
def test_default_jobs_rejects_values_below_one(monkeypatch, value):
    """Regression: ``REPRO_JOBS=0`` once ran serially without a word,
    while ``--jobs 0`` and ``run_cells(jobs=0)`` both refused it."""
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(ValueError, match=f"REPRO_JOBS='{value}'"):
        default_jobs()
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        run_sweep([CONFIGS[0]])


def test_given_store_is_the_only_store(tmp_path, monkeypatch):
    """Regression: ``run_sweep(cells, cache=store)`` once wrote to the
    default store; ``store=`` is now the one store a sweep touches."""
    default = tmp_path / "default"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
    store = ContentStore(root=tmp_path / "given")
    cold = run_sweep([CONFIGS[0]], jobs=1, store=store)
    assert cold.ran == 1 and store.stats.stores == 1
    assert len(list((tmp_path / "given" / "results").rglob("*.json"))) == 1
    warm = run_sweep([CONFIGS[0]], jobs=1, store=store)
    assert warm.cached == 1 and store.stats.hits == 1
    assert not default.exists()


def test_unknown_config_raises_key_error(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = run_sweep([CONFIGS[0]], jobs=1)
    stranger = dataclasses.replace(CONFIGS[0], seed=123)
    with pytest.raises(KeyError):
        report.result(stranger)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep([CONFIGS[0]], jobs=0)
    with pytest.raises(ValueError, match="retries"):
        run_sweep([CONFIGS[0]], retries=-1)
