"""Smoke test for the perf microbenchmark harness (CI's bench gate).

Runs the smallest pinned scenario in both recompute modes, asserts the
report schema, the cross-mode bit-identity, and the wall-time regression
gate against the committed ``baseline.json``.  Kept under
``benchmarks/perf/`` (outside the tier-1 ``tests/`` path) because it is
timing-sensitive by design.
"""

from __future__ import annotations

import json
from pathlib import Path

BASELINE = Path(__file__).with_name("baseline.json")


def test_colo4_compare_and_regression_gate():
    from repro.bench import BENCH_SCHEMA, check_report, run_bench

    report = run_bench(["colo4"], compare=True, repeats=2)

    assert report["schema"] == BENCH_SCHEMA
    rows = {row["mode"]: row for row in report["rows"]}
    assert set(rows) == {"incremental", "full"}
    for row in rows.values():
        assert row["scenario"] == "colo4"
        assert row["wall_s"] > 0
        assert row["events"] > 0
        assert row["events_per_s"] > 0
        # Schema 2: equal-timestamp batching honesty — instants visited
        # alongside events executed, never more of the former.
        assert 0 < row["batches"] <= row["events"]
        assert row["batches_per_s"] > 0
        assert "queue" not in row  # one event queue: no column
        assert len(row["result_hash"]) == 64
    # Bit-identity across recompute modes (run_bench also enforces this).
    assert rows["incremental"]["result_hash"] == rows["full"]["result_hash"]
    assert "colo4" in report["speedups"]
    assert report["recommended_modes"]["colo4"] in ("incremental", "full")

    baseline = json.loads(BASELINE.read_text())
    failures = check_report(report, baseline, max_regression=0.30)
    assert not failures, "\n".join(failures)


def test_maskgen_is_deterministic():
    from repro.bench import run_scenario

    first = run_scenario("maskgen")
    second = run_scenario("maskgen")
    assert first.result_hash == second.result_hash
    assert first.events == second.events == 60_000


def test_default_baseline_discovery_and_deltas(tmp_path):
    import os

    from repro.bench import baseline_deltas, default_baseline_path

    # Discovery: newest-mtime BENCH_*.json wins; empty dir -> None.
    assert default_baseline_path(tmp_path) is None
    old = tmp_path / "BENCH_aaaaaaa.json"
    new = tmp_path / "BENCH_bbbbbbb.json"
    old.write_text("{}")
    new.write_text("{}")
    os.utime(old, (1, 1))
    os.utime(new, (2, 2))
    assert default_baseline_path(tmp_path) == new

    # The repo root carries at least one committed baseline.
    committed = default_baseline_path()
    assert committed is not None and committed.name.startswith("BENCH_")

    # Deltas are per-(scenario, mode) events/s ratios; one-sided rows
    # are skipped (works across schema versions).
    report = {"rows": [
        {"scenario": "dense", "mode": "incremental", "events_per_s": 150.0},
        {"scenario": "chaos", "mode": "full", "events_per_s": 80.0},
    ]}
    baseline = {"rows": [
        {"scenario": "dense", "mode": "incremental", "events_per_s": 100.0},
        {"scenario": "colo4", "mode": "full", "events_per_s": 5.0},
    ]}
    assert baseline_deltas(report, baseline) == {"dense/incremental": 1.5}
