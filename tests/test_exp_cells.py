"""Tests for the shared cell executor (repro/exp/cells.py) and the chaos
grid that runs on it."""

import hashlib
import inspect
from dataclasses import dataclass

import pytest

from repro.cluster.fleet import run_fleet
from repro.exp.cache import ContentStore, default_cache
from repro.exp.cells import cached_run_experiment, results_or_raise, run_cells
from repro.exp.chaos import run_chaos
from repro.exp.load import run_load_curve
from repro.exp.sweep import run_sweep
from repro.server.experiment import ExperimentConfig
from repro.server.options import RunOptions
from repro.server.slo import SloGuard


@dataclass(frozen=True)
class Square:
    """A trivial cell: ``n * n``, failing for negative ``n``."""

    n: int

    namespace = "squares"

    @property
    def label(self) -> str:
        return f"sq{self.n}"

    def key(self) -> str:
        return hashlib.sha256(str(self.n).encode()).hexdigest()

    def run(self) -> int:
        if self.n < 0:
            raise ValueError(f"negative {self.n}")
        return self.n * self.n

    def encode(self, result: int) -> dict:
        return {"n": self.n, "result": result}

    def decode(self, payload: dict) -> int:
        return payload["result"]


CELLS = [Square(n) for n in (3, -1, 4, 5)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_in_input_order_with_failures_captured(jobs):
    seen = []
    outcomes = run_cells(CELLS, jobs, retries=2,
                         progress=lambda d, t, o: seen.append((d, t, o)))
    assert [o.cell for o in outcomes] == CELLS
    assert [o.result for o in outcomes] == [9, None, 16, 25]
    bad = outcomes[1]
    assert not bad.ok and bad.attempts == 3
    assert bad.error == "ValueError: negative -1"
    assert "negative -1" in bad.traceback
    assert all(o.ok and o.attempts == 1 and not o.hit
               for o in outcomes if o is not bad)
    # One progress call per cell, counting up, with that cell's outcome.
    assert [(d, t) for d, t, _ in seen] == [(1, 4), (2, 4), (3, 4), (4, 4)]
    assert sorted(o.cell.n for _, _, o in seen) == [-1, 3, 4, 5]


@pytest.mark.parametrize("jobs", [1, 2])
def test_store_is_read_and_written_in_the_caller(tmp_path, jobs):
    store = ContentStore(root=tmp_path)
    cold = run_cells(CELLS, jobs, store)
    assert store.stats.stores == 3 and store.stats.hits == 0
    assert len(list((tmp_path / "squares").rglob("*.json"))) == 3

    warm = run_cells(CELLS, jobs, store)
    assert [o.hit for o in warm] == [True, False, True, True]
    assert [o.result for o in warm] == [o.result for o in cold]
    assert all(o.attempts == 0 for o in warm if o.hit)
    assert store.stats.hits == 3 and store.stats.stores == 3


def test_results_or_raise_names_every_failed_cell():
    with pytest.raises(RuntimeError, match="1/4 cells failed") as info:
        results_or_raise(run_cells(CELLS))
    assert "- sq-1: Traceback" in str(info.value)
    assert "negative -1" in str(info.value)
    assert results_or_raise(run_cells([Square(2), Square(3)])) == [4, 9]


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError, match="jobs"):
        run_cells(CELLS, jobs=0)
    with pytest.raises(ValueError, match="retries"):
        run_cells(CELLS, retries=-1)


def test_chaos_serial_pooled_and_cached_are_bit_identical(tmp_path):
    grid = (ExperimentConfig(("squeezenet",) * 2, batch_size=4,
                             requests_scale=0.25),
            ("krisp-i", "mps-default"), ("crash", "storm"))
    serial = run_chaos(*grid, jobs=1, store=None)
    pooled = run_chaos(*grid, jobs=2, store=None)
    store = ContentStore(root=tmp_path)
    cold = run_chaos(*grid, jobs=2, store=store)
    warm = run_chaos(*grid, jobs=2, store=store)
    assert store.stats.stores == 6 and store.stats.hits == 6
    for report in (pooled, cold, warm):
        assert report.cells == serial.cells
        assert report.to_rows() == serial.to_rows()


def test_grid_runners_share_one_options_surface():
    """Every grid runner ends in the keyword tail ``options, jobs, store,
    progress`` with one set of defaults, and no runner keeps a second
    spelling of the store or of the harness options."""
    legacy = {"cache", "use_cache", "cache_store", "faults", "guard"}
    for runner in (run_sweep, run_load_curve, run_chaos, run_fleet):
        params = inspect.signature(runner).parameters
        tail = list(params)[-4:]
        assert tail == ["options", "jobs", "store", "progress"], runner
        assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY
                   for name in tail), runner
        assert [params[name].default for name in tail] \
            == [None, None, default_cache(), None], runner
        assert not legacy & set(params), runner
    params = inspect.signature(cached_run_experiment).parameters
    assert list(params) == ["config", "options", "store"]
    assert params["store"].default is default_cache()


CHAOS_BASE = ExperimentConfig(("squeezenet",), batch_size=4,
                              requests_scale=0.25)


@pytest.mark.parametrize("field", ["tracer", "recorder", "metrics", "audit",
                                   "workload", "faults"])
def test_chaos_rejects_options_it_cannot_honour(field):
    with pytest.raises(ValueError, match=f"run_chaos.*{field}"):
        run_chaos(CHAOS_BASE, ("krisp-i",), ("crash",),
                  options=RunOptions(**{field: object()}), store=None)


def test_chaos_takes_its_guard_from_options():
    guard = SloGuard(admission_depth=4, deadline=0.5)
    report = run_chaos(CHAOS_BASE, ("krisp-i",), ("crash",),
                       options=RunOptions(guard=guard), jobs=1, store=None)
    assert report.guard == guard
    assert report.config == CHAOS_BASE


@pytest.mark.parametrize("field", ["tracer", "recorder", "metrics", "audit",
                                   "workload"])
def test_cached_run_experiment_rejects_observers(field):
    with pytest.raises(ValueError, match=f"cached_run_experiment.*{field}"):
        cached_run_experiment(CHAOS_BASE, RunOptions(**{field: object()}),
                              store=None)
