"""The attribution report of ``krisp-repro colocate --json-out/--md-out``,
``load`` attribution/metrics flags, and per-model queue sampling.

The acceptance contract: two uncached report runs of the same pinned
scenario emit byte-identical JSON, and the payload's own conservation
audit is clean.
"""

import json

import pytest

from repro.cli import main
from repro.server.options import RunOptions

SPEC_YAML = """\
arrivals:
  kind: poisson
  rate: 50.0
batch_size: 4
kind: homogeneous
model: squeezenet
"""

MIX_YAML = """\
arrivals:
  kind: poisson
  rate: 100.0
classes:
- batch_size: 4
  model: squeezenet
  weight: 3.0
- batch_size: 4
  model: mobilenet
  weight: 1.0
kind: heterogeneous
"""


def test_report_runs_twice_byte_identical(tmp_path, capsys):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    base = ["colocate", "squeezenet", "-n", "2", "--scale", "0.25"]
    assert main(base + ["--json-out", str(first)]) == 0
    assert main(base + ["--json-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    payload = json.loads(first.read_text())
    assert payload["schema"] == 1
    assert payload["conservation"]["exact"] is True
    assert payload["conservation"]["requests"] > 0
    assert payload["attribution"]["components"][0] == "queue_wait"
    assert payload["slo"]["objective"] == 0.95
    assert "squeezenet" in payload["slo"]["models"]

    out = capsys.readouterr().out
    assert "Latency attribution report" in out
    assert "conservation audit: exact" in out


def test_report_markdown_and_faulted_run(tmp_path, capsys):
    md = tmp_path / "report.md"
    code = main(["colocate", "squeezenet", "-n", "4", "--batch", "8",
                 "--scale", "0.25", "--faults", "mixed",
                 "--deadline", "250", "--admission", "8",
                 "--retries", "2", "--md-out", str(md)])
    assert code == 0
    text = md.read_text()
    assert "## What the tail is made of" in text
    assert "burn rate" in text
    out = capsys.readouterr().out
    assert "conservation audit: exact" in out


def test_load_attribute_and_metrics_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = tmp_path / "poisson.yaml"
    spec.write_text(SPEC_YAML)
    metrics = tmp_path / "metrics.prom"
    curve = tmp_path / "curve.json"
    code = main(["load", str(spec), "--scales", "0.5", "1.0",
                 "--duration", "0.5", "--no-cache", "--attribute",
                 "--metrics-out", str(metrics),
                 "--json-out", str(curve)])
    assert code == 0
    out = capsys.readouterr().out
    assert "knee diagnosis:" in out

    rows = json.loads(curve.read_text())["rows"]
    assert len(rows) == 2
    for row in rows:
        assert {"goodput_rps", "shed", "shed_admission", "shed_deadline",
                "retried"} <= row.keys()
        assert row["diagnosis"] in {"queueing-dominated",
                                    "contention-dominated",
                                    "service-dominated"}
        assert row["attribution"]["requests"] > 0

    prom = metrics.read_text()
    assert "# TYPE krisp_attribution_seconds histogram" in prom
    assert 'component="queue_wait"' in prom
    assert 'krisp_queue_depth{queue="shared"}' in prom


def test_sampler_covers_per_model_workload_queues():
    from repro.obs.metrics import MetricsRegistry
    from repro.server.experiment import ExperimentConfig
    from repro.server.rate_experiment import run_rate_experiment
    from repro.workload import workload_from_yaml

    spec = workload_from_yaml(MIX_YAML)
    config = ExperimentConfig(("squeezenet", "mobilenet"),
                              policy="krisp-i", batch_size=4)
    registry = MetricsRegistry()
    run_rate_experiment(config, duration=0.25,
                        options=RunOptions(workload=spec,
                                           metrics=registry))
    prom = registry.to_prometheus()
    # The wl-{model} queues are created *after* the sampler starts; the
    # live queue view + lazy gauge registration still samples them.
    assert 'krisp_queue_depth{queue="wl-squeezenet"}' in prom
    assert 'krisp_queue_depth{queue="wl-mobilenet"}' in prom


def test_report_parser_rejects_unknown_fault():
    with pytest.raises(SystemExit):
        main(["colocate", "squeezenet", "--faults", "earthquake"])
