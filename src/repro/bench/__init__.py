"""Microbenchmark harness for the simulator core (``krisp-repro bench``).

Pinned, deterministic scenarios (:mod:`repro.bench.scenarios`) timed by
:mod:`repro.bench.runner`, reporting wall time, events/second, and each
run's result hash so performance claims are always paired with a
bit-identity proof.
"""

from repro.bench.runner import (
    BENCH_SCHEMA,
    BenchError,
    BenchRow,
    baseline_deltas,
    check_report,
    default_baseline_path,
    run_bench,
    run_scenario,
    write_report,
)
from repro.bench.scenarios import SCENARIOS, Scenario, ScenarioRun

__all__ = [
    "BENCH_SCHEMA",
    "BenchError",
    "BenchRow",
    "SCENARIOS",
    "Scenario",
    "ScenarioRun",
    "baseline_deltas",
    "check_report",
    "default_baseline_path",
    "run_bench",
    "run_scenario",
    "write_report",
]
