"""Checks of the benchmark itself: ``pytest benchmarks/e2e``.

Needs ``src`` on ``PYTHONPATH``.  The traced and end-to-end checks run
in subprocesses, because the tracer rewires the program for the life of
its process.
"""

from __future__ import annotations

import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import run
import workloads
from layertrace import LAYERS, layer_of
from repro.server.experiment import ExperimentConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

TINY_TRACE = """
import json, sys
import workloads
from layertrace import LayerTracer
from repro.server.experiment import ExperimentConfig

prepared = workloads._closed_loop_setup(ExperimentConfig(
    ("squeezenet",) * 2, policy="krisp-i", batch_size=8,
    requests_scale=0.25))
plain = workloads._closed_loop_run(prepared)
tracer = LayerTracer(sys.argv[1]).install(harness_modules=[workloads])
tracer.begin()
traced = workloads._closed_loop_run(prepared).result_hash
print(json.dumps({"plain": plain.result_hash, "counters": plain.counters,
                  "traced": traced, "phase": tracer.end()}))
"""


def _env(cache: Path) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory) -> dict:
    scratch = tmp_path_factory.mktemp("trace")
    done = subprocess.run(
        [sys.executable, "-c", TINY_TRACE, str(scratch)], env=_env(scratch),
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_layer_self_times_sum_to_the_root_span(tiny_trace):
    phase = tiny_trace["phase"]
    self_s = phase["self_s"]
    assert set(self_s) <= set(LAYERS)
    assert all(seconds >= 0 for seconds in self_s.values())
    assert sum(self_s.values()) == pytest.approx(phase["root_s"], rel=0.01)
    # The cell really was traced: the engine and device carry its time.
    assert self_s["sim"] > 0 and self_s["gpu.device"] > 0


def test_traced_hash_equals_untraced_hash(tiny_trace):
    assert tiny_trace["traced"] == tiny_trace["plain"]


def test_traced_engine_counters_equal_untraced(tiny_trace):
    counters = tiny_trace["phase"]["counters"]
    assert counters == tiny_trace["counters"]
    assert counters["sim.events"] > counters["gpu.device.kernels"] > 0


def test_every_repro_module_maps_to_a_layer():
    names = ["repro", *(info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro."))]
    assert len(names) > 50
    assert {name: layer_of(name) for name in names
            if layer_of(name) not in LAYERS} == {}


def test_closed_loop_path_reproduces_the_bench_colo4_pin(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    bench = json.loads((ROOT / "BENCH_7fecf69.json").read_text())
    pin = next(row["result_hash"] for row in bench["rows"]
               if row["scenario"] == "colo4")
    assert pin.startswith("279249b4567c")
    config = ExperimentConfig(("squeezenet",) * 4, policy="krisp-i",
                              batch_size=8, requests_scale=0.25)
    outcome = workloads._closed_loop_run(
        workloads._closed_loop_setup(config))
    assert outcome.result_hash == pin
    assert outcome.kernels == outcome.counters["gpu.device.kernels"] > 0


def _run(args: list[str], root: Path, out: Path) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(root / "benchmarks/e2e/run.py"), *args,
         "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    line = json.loads(done.stdout.splitlines()[-1])
    assert line == json.loads(out.read_text())["result"]
    return done.returncode, json.loads(out.read_text())


def test_tampered_pin_fails_the_run(tmp_path):
    copy = tmp_path / "benchmarks/e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "__pycache__", "results"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    source = (copy / "workloads.py").read_text()
    pin = workloads.PINS["colo"]
    (copy / "workloads.py").write_text(source.replace(pin, "0" * 64))

    status, document = _run(["--workload", "colo", "--runs", "1"], tmp_path,
                            tmp_path / "out.json")
    assert status != 0
    assert document["result"]["correct"] is False
    assert document["result"]["failed"] == 1
    (record,) = document["records"]
    assert record["result_hash"] == pin
    assert any("seed-0 pin" in failure for failure in record["failures"])


def test_other_seed_changes_the_hash_and_repeats(tmp_path):
    status, document = _run(["--workload", "colo", "--seed", "1",
                             "--runs", "2"], ROOT, tmp_path / "out.json")
    assert status == 0
    hashes = {record["result_hash"] for record in document["records"]}
    assert len(hashes) == 1 and workloads.PINS["colo"] not in hashes
    assert set(document["result"]["metrics"]) == {
        name for name, _unit in run.END_TO_END}


def test_compare_verdicts():
    from compare import verdict

    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert verdict(base, base, "lower", 0.1) == "unchanged"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "worse"
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "better"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.1) == "worse"
    # Five pairs cannot show a gain, however clean.
    assert verdict(base[:5], [x * 0.8 for x in base[:5]], "lower",
                   0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(noisy, [9.0] * 5, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [4.0] * 5, "lower", 0.1) == "unchanged"


def test_benchmark_json_lists_what_run_py_reports():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in benchmark["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
