"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Heavy
sweeps (the Fig. 13 co-location grid) run once per session and are shared
by the benchmarks that consume them; each benchmark writes its rendered
table/series to ``benchmarks/results/<name>.txt`` and prints it, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the full evaluation.

The numbers will not match the authors' testbed in absolute terms (the
substrate is a simulator); the assertions pin the *shape* — who wins, by
roughly what factor, where crossovers fall.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Persist profiling caches inside the repo so repeated benchmark runs are
# fast and hermetic.
os.environ.setdefault(
    "REPRO_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".cache")
)

from repro.exp.cells import cached_run_experiment  # noqa: E402
from repro.exp.sweep import Sweep, run_sweep  # noqa: E402
from repro.models.zoo import MODEL_NAMES  # noqa: E402
from repro.server.experiment import (  # noqa: E402
    ExperimentConfig,
    isolated_baseline,
    normalized_rps,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Policies in the paper's plotting order.
POLICIES = ("mps-default", "static-equal", "model-rightsize",
            "krisp-o", "krisp-i")

WORKER_COUNTS = (1, 2, 4)


def write_result(name: str, text: str) -> None:
    """Print a rendered table/series and persist it under results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}")


class ColocationGrid:
    """Lazily computed grid of co-location cells for one batch size.

    :meth:`prefetch` fills many cells at once through the parallel sweep
    orchestrator (``REPRO_JOBS`` workers, on-disk result cache); single
    misses fall back to an in-process cached run.
    """

    def __init__(self, batch_size: int, requests_scale: float = 1.0) -> None:
        self.batch_size = batch_size
        self.requests_scale = requests_scale
        self._cells: dict = {}

    def _config(self, model: str, policy: str,
                workers: int) -> ExperimentConfig:
        return ExperimentConfig(
            model_names=(model,) * workers,
            policy=policy,
            batch_size=self.batch_size,
            requests_scale=self.requests_scale,
        )

    def prefetch(self, models=MODEL_NAMES, policies=POLICIES,
                 worker_counts=WORKER_COUNTS) -> "ColocationGrid":
        """Compute every missing cell of a sub-grid in one parallel sweep."""
        keys = [(model, policy, workers)
                for model in models for policy in policies
                for workers in worker_counts]
        missing = [key for key in keys if key not in self._cells]
        if missing:
            sweep = Sweep(self._config(*key) for key in missing)
            report = run_sweep(sweep)
            report.raise_failures()
            for key in missing:
                self._cells[key] = report.results[self._config(*key)]
        return self

    def cell(self, model: str, policy: str, workers: int):
        """Experiment result for one (model, policy, workers) cell."""
        key = (model, policy, workers)
        if key not in self._cells:
            self._cells[key] = cached_run_experiment(self._config(*key))
        return self._cells[key]

    def normalized(self, model: str, policy: str, workers: int) -> float:
        """Fig. 13a y-axis: RPS normalised to the isolated worker."""
        return normalized_rps(self.cell(model, policy, workers))

    def baseline(self, model: str):
        """The isolated 1-worker reference cell."""
        return isolated_baseline(model, self.batch_size)


@pytest.fixture(scope="session")
def grid32() -> ColocationGrid:
    """The batch-32 co-location grid behind Fig. 13 and Table IV."""
    return ColocationGrid(32)


@pytest.fixture(scope="session")
def grid16() -> ColocationGrid:
    """Batch-16 grid (Fig. 14a); slightly shortened windows."""
    return ColocationGrid(16, requests_scale=0.75)


@pytest.fixture(scope="session")
def grid8() -> ColocationGrid:
    """Batch-8 grid (Fig. 14b); slightly shortened windows."""
    return ColocationGrid(8, requests_scale=0.75)
