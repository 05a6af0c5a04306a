"""Tests for the krisp-repro command-line interface."""

import pytest

from repro.check.scenarios import SCENARIOS
from repro.cli import build_parser, main


def test_profile_command(capsys):
    assert main(["profile", "squeezenet"]) == 0
    out = capsys.readouterr().out
    assert "right-size" in out
    assert "kernels/pass" in out


def test_colocate_command(capsys):
    assert main(["colocate", "squeezenet", "-n", "2", "-p", "krisp-i"]) == 0
    out = capsys.readouterr().out
    assert "normalized system throughput" in out
    assert "meets SLO" in out


def test_colocate_mixed_models(capsys):
    assert main(["colocate", "squeezenet", "shufflenet"]) == 0
    out = capsys.readouterr().out
    assert "squeezenet" in out and "shufflenet" in out


def test_rate_command_exit_codes(capsys):
    ok = main(["rate", "squeezenet", "--rps", "500", "--duration", "0.5"])
    assert ok == 0
    saturated = main(["rate", "squeezenet", "--rps", "50000",
                      "--duration", "0.5"])
    assert saturated == 1


#: ``rate_result_hash`` of the rate CLI at its defaults (2 workers,
#: krisp-i, 2.0 s, seed 0) at 200 rps, batch 4.
RATE_CLI_PIN = (
    "72ed9e859964a79bfc7a39b9c80e99b7a9b653533dcaf4d24fd9517d4f1ec960")


def test_rate_command_prints_the_pinned_hash(capsys):
    assert main(["rate", "squeezenet", "--rps", "200", "--batch", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"result hash {RATE_CLI_PIN}" in lines


def test_trace_command(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    assert main(["colocate", "squeezenet", "-n", "2", "--scale", "0.1",
                 "--trace-out", str(out), "--metrics-out", str(metrics)]) == 0
    printed = capsys.readouterr().out
    assert "trace events" in printed
    assert "mask decisions" in printed
    assert "peak CU occupancy" in printed

    trace = json.loads(out.read_text())
    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    assert all("ph" in e and "pid" in e for e in events)
    phases = {e["ph"] for e in events}
    # Spans, metadata, instants, counters, and flow arrows all present.
    assert {"X", "M", "i", "C", "s", "f"} <= phases
    procs = {e["args"]["name"] for e in events
             if e.get("name") == "process_name"}
    assert {"server", "gpu", "counters"} <= procs

    prom = metrics.read_text()
    assert "# TYPE krisp_cu_occupancy gauge" in prom
    assert "krisp_samples_total" in prom


def test_chaos_command(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rows = tmp_path / "chaos.json"
    trace = tmp_path / "chaos-trace.json"
    assert main(["chaos", "squeezenet", "-n", "2", "-p", "krisp-i",
                 "-s", "crash", "--scale", "0.25",
                 "--json-out", str(rows), "--trace-out", str(trace)]) == 0
    printed = capsys.readouterr().out
    assert "scenario" in printed and "goodput" in printed
    assert "guard:" in printed

    payload = json.loads(rows.read_text())
    assert payload[0]["scenario"] == "crash"
    assert payload[0]["crashes"] == 1
    assert payload[0]["baseline_goodput_rps"] > 0

    events = json.loads(trace.read_text())["traceEvents"]
    procs = {e["args"]["name"] for e in events
             if e.get("name") == "process_name"}
    assert "faults" in procs


@pytest.mark.parametrize("argv, pin", [
    (["squeezenet", "-n", "2", "--scale", "0.5"],
     "586c866e8d4b92e20d04807e15adf3e875a658afdd5b75efc7161732ebb6ee5f"),
    (["squeezenet", "-n", "4", "--batch", "8", "--scale", "0.25"],
     SCENARIOS["colo4"].pin),
    # Attached observers never move the hash.
    (["squeezenet", "-n", "4", "--batch", "8", "--scale", "0.25",
      "--faults", "mixed", "--deadline", "250", "--admission", "8",
      "--retries", "2", "--json-out", "{tmp}/report.json",
      "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/m.prom"],
     SCENARIOS["chaos"].pin),
], ids=["fig13a", "colo4", "chaos"])
def test_colocate_prints_pinned_result_hash(argv, pin, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(["colocate", *argv]) == 0
    hashes = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("result hash ")]
    assert hashes == [f"result hash {pin}"]


@pytest.mark.parametrize("command", ["trace", "report"])
def test_folded_cell_commands_exit_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "squeezenet"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["profile", "gpt4"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_alloc_command(tmp_path, capsys):
    import json

    out = tmp_path / "alloc.json"
    assert main(["alloc", "--iterations", "400", "--scale", "0.1",
                 "--batch", "4", "--json-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mask-law churn" in printed and "serving cells" in printed
    for allocation in ("krisp", "pooled", "pooled-contention"):
        assert allocation in printed

    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert [row["allocation"] for row in payload["law_audit"]] == \
        ["krisp", "pooled", "pooled-contention"]
    assert all(row["violations"] == 0 for row in payload["law_audit"])
    assert all(len(row["result_hash"]) == 64 for row in payload["cells"])
    assert payload["chaos"] == []  # not requested
    # Pool statistics only exist for the pooled policies.
    assert "pool" not in payload["law_audit"][0]
    assert payload["law_audit"][1]["pool"]["pool_hits"] > 0


def test_alloc_command_rejects_unknown_model(capsys):
    assert main(["alloc", "gpt4", "--iterations", "50"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_chaos_command_accepts_allocation(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["chaos", "squeezenet", "-n", "2", "-p", "krisp-i",
                 "-s", "dropout", "--scale", "0.1", "--batch", "4",
                 "--allocation", "pooled", "--sizing", "predictive"]) == 0
