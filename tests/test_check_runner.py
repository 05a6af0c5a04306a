"""Tests for the check runner, its report shape, and the CLI wiring."""

import json
from dataclasses import replace

import pytest

from repro.check import (
    CHECK_SCHEMA,
    CheckReport,
    CheckResult,
    DEFAULT_SCENARIOS,
    available_checks,
    run_checks,
)
from repro.check.differential import check_recompute_oracle
from repro.check.mutate import MUTATIONS
from repro.check.scenarios import SCENARIOS
from repro.cli import main


def test_available_checks_cover_globals_and_scenarios():
    names = available_checks(include_all=True)
    for expected in ("mask-laws", "device-audit", "emulation-correction",
                     "mask-growth", "overlap-limit-law",
                     "attribution-conservation"):
        assert expected in names
    # Every scenario gets a differential replay; only the cheap cells
    # get the pool/cache/audited-run treatment.
    for scenario in DEFAULT_SCENARIOS:
        assert f"modes:{scenario}" in names
        assert f"pool:{scenario}" in names
        assert f"cache:{scenario}" in names
        assert f"invariants:{scenario}" in names
    assert "modes:dense" in names
    assert "pool:dense" not in names
    assert "modes:maskgen" in names


def test_run_checks_cheap_scope_passes(tmp_path):
    seen = []
    report = run_checks(scenarios=["maskgen"], progress=seen.append)
    assert report.ok
    assert seen == [result.name for result in report.results]
    assert "modes:maskgen" in seen
    assert not any(name.startswith(("pool:", "cache:")) for name in seen)

    payload = report.to_dict()
    assert payload["schema"] == CHECK_SCHEMA
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert payload["checks"] == len(seen)
    json.dumps(payload)  # serialisable as-is

    lines = report.summary_lines()
    assert lines[-1].endswith("0 failed, 0 violations")


def test_modes_check_holds_both_recompute_modes_to_the_pin(monkeypatch):
    pin = SCENARIOS["chaos"].pin
    assert check_recompute_oracle("chaos") == (
        [], {"pin": pin, "incremental": pin, "full": pin})

    wrong = "0" * 64
    monkeypatch.setitem(SCENARIOS, "chaos",
                        replace(SCENARIOS["chaos"], pin=wrong))
    violations, details = check_recompute_oracle("chaos")
    # The modes still agree with each other; only the pin is violated.
    assert details == {"pin": wrong, "incremental": pin, "full": pin}
    assert len(violations) == 2
    assert all(f"!= pinned hash {wrong}" in v for v in violations)


def test_run_checks_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenarios"):
        run_checks(scenarios=["no-such-scenario"])


def test_report_collects_prefixed_violations():
    report = CheckReport()
    report.add(CheckResult(name="good", passed=True))
    report.add(CheckResult(name="bad", passed=False,
                           violations=("first", "second")))
    assert not report.ok
    assert report.violations == ["bad: first", "bad: second"]
    assert report.to_dict()["failed"] == 1
    assert any("FAIL" in line for line in report.summary_lines())


def test_cli_check_list(capsys):
    assert main(["check", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mask-laws" in out
    for mutation in MUTATIONS:
        assert f"mutate:{mutation.name}" in out


def test_cli_check_unknown_scenario_exits_2(capsys):
    assert main(["check", "--scenario", "no-such-scenario"]) == 2
    assert "unknown scenarios" in capsys.readouterr().err


def test_cli_mutate_smoke_exits_1_with_self_test_ok(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    assert main(["check", "--mutate-smoke", "--json-out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["schema"] == CHECK_SCHEMA
    assert payload["self_test_ok"] is True
    # Every seeded fault was caught, so every result "passed".
    assert payload["ok"] is True
    assert {r["name"] for r in payload["results"]} == {
        f"mutate:{m.name}" for m in MUTATIONS}
    assert all(r["details"]["caught"] for r in payload["results"])
