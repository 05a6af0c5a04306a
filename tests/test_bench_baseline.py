"""Baseline discovery and comparison edge cases (repro.bench.runner).

The bug class: ``default_baseline_path`` used to pick the "newest"
``BENCH_*.json`` by directory order/mtime, which is nondeterministic in
fresh clones and CI checkouts — and ``bench --compare`` crashed with a
KeyError against a legacy schema-1 baseline whose rows predate the
``batches``/``queue`` keys.  Discovery is now ranked by the embedded
``rev``'s position in the repo's first-parent history (content, never
mtime), and every comparison degrades to the keys both sides share.
"""

import json
import os

from repro.bench.runner import (
    baseline_deltas,
    check_report,
    default_baseline_path,
)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def _row(scenario="colo4", mode="auto", wall=1.0, eps=1000.0, **extra):
    return {"scenario": scenario, "mode": mode, "wall_s": wall,
            "events_per_s": eps, **extra}


def test_newer_schema_beats_older_mtime(tmp_path):
    # No .git in tmp_path: ranking must fall back to (schema, name),
    # never to mtime — the schema-1 file gets the *newer* mtime on
    # purpose (the failing-before arrangement).
    old = _write(tmp_path / "BENCH_aaaaaaa.json",
                 {"schema": 1, "rev": "aaaaaaa", "rows": [_row()]})
    new = _write(tmp_path / "BENCH_bbbbbbb.json",
                 {"schema": 2, "rev": "bbbbbbb", "rows": [_row()]})
    os.utime(new, (1_000_000, 1_000_000))
    os.utime(old, (2_000_000, 2_000_000))
    assert default_baseline_path(tmp_path) == new


def test_history_position_beats_schema_and_name(tmp_path, monkeypatch):
    # A rev inside the (stubbed) first-parent history outranks any rev
    # outside it, regardless of schema or filename order.
    import repro.bench.runner as runner

    monkeypatch.setattr(runner, "_history_positions",
                        lambda root: {"0123456789ab": 0, "fedcba987654": 1})
    older = _write(tmp_path / "BENCH_0123456.json",
                   {"schema": 2, "rev": "0123456", "rows": []})
    newest = _write(tmp_path / "BENCH_fedcba9.json",
                    {"schema": 1, "rev": "fedcba9", "rows": []})
    _write(tmp_path / "BENCH_zzzzzzz.json",
           {"schema": 2, "rev": "zzzzzzz", "rows": []})
    assert default_baseline_path(tmp_path) == newest
    newest.unlink()
    assert default_baseline_path(tmp_path) == older


def test_repo_root_baseline_is_the_committed_schema2_file():
    # The real repo root holds a schema-1 file from a rev outside the
    # first-parent history and schema-2 files from committed revs; the
    # newest committed one must always win (this was mtime-dependent
    # before).
    path = default_baseline_path()
    assert path is not None
    assert path.name == "BENCH_818f9d0.json"


def test_corrupt_baselines_rank_last_without_crashing(tmp_path):
    good = _write(tmp_path / "BENCH_aaaaaaa.json",
                  {"schema": 1, "rev": "aaaaaaa", "rows": []})
    (tmp_path / "BENCH_zzzzzzz.json").write_text("{not json")
    assert default_baseline_path(tmp_path) == good


def test_no_baselines_returns_none(tmp_path):
    assert default_baseline_path(tmp_path) is None


def test_deltas_tolerate_legacy_schema1_rows():
    report = {"schema": 2, "rows": [
        _row(eps=2000.0, batches=10, queue="auto"),
        _row(scenario="dense", eps=500.0, batches=5, queue="auto"),
    ]}
    # Schema-1 rows: no batches/queue keys, plus outright junk rows.
    baseline = {"schema": 1, "rows": [
        _row(eps=1000.0),
        {"scenario": "dense", "mode": "auto"},  # no events_per_s
        "junk",
        {"events_per_s": 100.0},  # no scenario/mode
    ]}
    deltas = baseline_deltas(report, baseline)
    assert deltas == {"colo4/auto": 2.0}


def test_deltas_tolerate_empty_documents():
    assert baseline_deltas({}, {}) == {}
    assert baseline_deltas({"rows": [_row()]}, {}) == {}


def test_check_report_schema_mismatch_fails_early():
    failures = check_report({"schema": 2, "rows": [_row()]},
                            {"schema": 1, "rows": [_row()]})
    assert len(failures) == 1
    assert "schema mismatch" in failures[0]


def test_check_report_skips_rows_missing_wall():
    report = {"schema": 2, "rows": [_row(wall=10.0)]}
    baseline = {"schema": 2, "rows": [
        {"scenario": "colo4", "mode": "auto"},  # no wall_s: skipped
    ]}
    assert check_report(report, baseline) == []


def test_check_report_still_catches_regressions():
    report = {"schema": 2, "rows": [_row(wall=2.0)]}
    baseline = {"schema": 2, "rows": [_row(wall=1.0)]}
    failures = check_report(report, baseline, max_regression=0.3)
    assert len(failures) == 1
    assert "colo4/auto" in failures[0]
