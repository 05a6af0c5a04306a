"""Tests for the shared cell executor (repro/exp/cells.py) and the chaos
grid that runs on it."""

import hashlib
from dataclasses import dataclass

import pytest

from repro.exp.cache import ContentStore
from repro.exp.cells import results_or_raise, run_cells
from repro.exp.chaos import run_chaos


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
    kwargs = dict(batch_size=4, requests_scale=0.25)
    grid = (("squeezenet",) * 2, ("krisp-i", "mps-default"),
            ("crash", "storm"))
    serial = run_chaos(*grid, jobs=1, use_cache=False, **kwargs)
    pooled = run_chaos(*grid, jobs=2, use_cache=False, **kwargs)
    store = ContentStore(root=tmp_path)
    cold = run_chaos(*grid, jobs=2, cache=store, **kwargs)
    warm = run_chaos(*grid, jobs=2, cache=store, **kwargs)
    assert store.stats.stores == 6 and store.stats.hits == 6
    for report in (pooled, cold, warm):
        assert report.cells == serial.cells
        assert report.to_rows() == serial.to_rows()
