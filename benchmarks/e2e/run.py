"""End-to-end simulator benchmark: host time of five pinned workloads.

Run from the repository root::

    python benchmarks/e2e/run.py [--seed S] [--runs N] [--workloads W ...]
                                 [--out F] [--trace]

Every repetition is a fresh ``cell.py`` process with an empty
``REPRO_CACHE_DIR``, so setup is always the cold perf-DB build and no
run inherits another's heap.  Workloads run round-robin, ``--runs``
times each (default 5).  ``--seconds S`` replaces ``--runs`` with a time
budget per workload: another repetition starts while the time used plus
the last repetition's length stays within ``S`` (at least one runs).

The table printed gives every metric by name and unit with its median,
quartiles and sample count; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run
fails if it raises, if its result hash differs from the seed-0 pin (or,
on another seed, from the other runs), or if a workload's own check
fails; any failure makes the exit status non-zero.

``--trace`` runs each workload once untraced and once under the
per-layer tracer (``layertrace.py``) and reports the per-layer metrics
instead, whatever ``--runs`` or ``--seconds`` say; every workload is
sized so that the pair fits in the 20 s of ``BENCHMARK.json``'s
``run_seconds`` on a 2-core VM.  ``--trace 0`` / ``--trace 1`` are
accepted too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CELL = HERE / "cell.py"
#: Scratch space for per-run caches and trace dumps (gitignored).
WORK = ROOT / ".e2e-work"

WORKLOAD_NAMES = ("colo", "dense20", "openloop", "fleet16", "grid")

#: (name, unit) of each end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
              ("kernels_per_s", "kernels/s"),
              ("requests_per_s", "requests/s"), ("peak_rss_mb", "MB"))

#: Layers every workload runs in.
RUN_LAYERS = ("sim", "gpu.device", "gpu.dispatch", "runtime", "core",
              "server")

#: Per-layer metrics of the JSON result line (BENCHMARK.json's
#: ``per_layer``): those every workload reports nonzero.  Run-phase self
#: time and cross-layer entries of ``RUN_LAYERS``, set-up self time of
#: the profiling path, the engine counters of the traced run, the
#: queue's peak depth, and the tracing overhead.  The table and ``--out``
#: carry every layer and counter.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in RUN_LAYERS),
    *((f"setup.{layer}.self_s", "s") for layer in (
        "profiling", "models", "gpu.device", "sim")),
    *((f"{layer}.calls", "count") for layer in RUN_LAYERS),
    ("sim.events", "count"), ("sim.batches", "count"),
    ("sim.events_per_kernel", "events/kernel"),
    ("sim.peak_pending", "count"), ("trace_overhead", "ratio"),
)

#: A run of ``--seconds`` mode ends within this many seconds.
DEADLINE_S = 170.0
#: Layer self times must sum to the root spans within this share.
SUM_TOLERANCE = 0.01

sys.path.insert(0, str(HERE))


def _kill(process: subprocess.Popen) -> None:
    """Kill a repetition and its pool workers, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


class Runner:
    """Starts ``cell.py`` processes and keeps every record they print."""

    def __init__(self, deadline: Optional[float]) -> None:
        self.deadline = deadline
        self.records: list[dict] = []

    def cell(self, workload: str, seed: int, *, trace: bool = False) -> dict:
        """One repetition; a crash or timeout gives a failed record."""
        WORK.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        dump = scratch / "dump"
        dump.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["REPRO_CACHE_DIR"] = str(scratch / "cache")
        # Results never depend on string hashing, but host time does (set
        # iteration order); a fixed seed takes that noise out.
        env["PYTHONHASHSEED"] = "0"
        command = [sys.executable, str(CELL), "--workload", workload,
                   "--seed", str(seed)]
        if trace:
            command += ["--trace", "--dump-dir", str(dump)]
        timeout = 170.0 if self.deadline is None \
            else max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        process = subprocess.Popen(command, env=env, cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE,
                                   start_new_session=True)
        try:
            stdout, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill(process)
            stdout, stderr = "", f"timed out after {timeout:.0f} s"
        except BaseException:
            _kill(process)
            raise
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        record = {"workload": workload, "seed": seed, "traced": trace}
        lines = stdout.strip().splitlines()
        if process.returncode == 0 and lines:
            record = json.loads(lines[-1])
        else:
            record["failures"] = [
                f"exit {process.returncode}: "
                + " | ".join(stderr.strip().splitlines()[-3:])]
        record["elapsed_s"] = time.monotonic() - started
        self.records.append(record)
        return record


def _check_hashes(records: list[dict]) -> None:
    """Fail any run whose hash differs from the first of its workload and
    seed (``cell.py`` checks the seed-0 pins itself)."""
    reference: dict[tuple[str, int], str] = {}
    for record in records:
        digest = record.get("result_hash")
        if digest is None:
            continue
        expected = reference.setdefault(
            (record["workload"], record["seed"]), digest)
        if digest != expected:
            record.setdefault("failures", []).append(
                f"result hash {digest[:12]} != {expected[:12]}")


def _failed(record: dict) -> bool:
    return bool(record.get("failures"))


def describe(values: list[float]) -> dict[str, float]:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _end_to_end(records: list[dict]) -> dict[str, dict]:
    """Per-metric statistics over one workload's successful runs."""
    runs = [r for r in records if not _failed(r)]
    samples = {
        "setup_s": [r["setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "kernels_per_s": [r["kernels"] / r["wall_s"] for r in runs],
        "requests_per_s": [r["requests"] / r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {name: {**describe(samples[name]), "unit": unit,
                   "samples": samples[name]}
            for name, unit in END_TO_END if samples[name]}


def _per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one untraced/traced pair, and failed checks."""
    from layertrace import LAYERS

    problems = []
    metrics: dict[str, tuple[float, str]] = {}
    for phase_name, prefix in (("run", ""), ("setup", "setup.")):
        phase = traced["layers"][phase_name]
        unknown = sorted(set(phase["self_s"]) - set(LAYERS))
        if unknown:
            problems.append(f"{phase_name}: spans outside the layer map "
                            f"{unknown}")
        total = sum(phase["self_s"].values())
        if abs(total - phase["root_s"]) > SUM_TOLERANCE * phase["root_s"]:
            problems.append(f"{phase_name}: layers sum to {total:.4f} s, "
                            f"root spans to {phase['root_s']:.4f} s")
        if any(seconds < 0 for seconds in phase["self_s"].values()):
            problems.append(f"{phase_name}: negative self time")
        for layer in LAYERS:
            metrics[f"{prefix}{layer}.self_s"] = (
                phase["self_s"].get(layer, 0.0), "s")
        if phase_name == "run":
            entries = dict.fromkeys(LAYERS, 0)
            for _caller, callee, count, _seconds in phase["calls"]:
                entries[callee] = entries.get(callee, 0) + count
            for layer in LAYERS:
                metrics[f"{layer}.calls"] = (entries[layer], "count")
            metrics["sim.peak_pending"] = (phase["peak_pending"], "count")
            metrics["trace.root_s"] = (phase["root_s"], "s")
    # The traced run sees the engines of every process; where the
    # untraced run sees them too, the two counts must agree.
    engine = traced["layers"]["run"]["counters"]
    for name, count in plain["counters"].items():
        if engine.get(name, count) != count:
            problems.append(f"{name}: {engine[name]} traced, {count} "
                            f"untraced")
    for name, count in {**plain["counters"], **engine}.items():
        metrics[name] = (count, "count")
    metrics["sim.events_per_kernel"] = (
        engine["sim.events"] / engine["gpu.device.kernels"], "events/kernel")
    metrics["trace_overhead"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    return metrics, problems


def _result_line(records: list[dict], metrics: dict[str, dict]) -> dict:
    """The JSON summary line; every process started counts as attempted."""
    failed = sum(map(_failed, records))
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def _print_table(workload: str, rows: dict[str, dict]) -> None:
    print(f"\n{workload}")
    print(f"  {'metric':<28} {'unit':<14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}")
    for name, row in rows.items():
        print(f"  {name:<28} {row['unit']:<14} {row['median']:>14.6g} "
              f"{row['q1']:>14.6g} {row['q3']:>14.6g} {row['n']:>3}")


def measure(runner: Runner, names: list[str], seed: int,
            runs: Optional[int], seconds: Optional[float]) -> dict:
    """End-to-end mode: repeat every workload, return per-workload stats."""
    if runs is not None:
        for _ in range(runs):
            for name in names:
                runner.cell(name, seed)
    else:
        for name in names:
            started = time.monotonic()
            while True:
                last = runner.cell(name, seed)
                used = time.monotonic() - started
                if used + last["elapsed_s"] > seconds:
                    break
    _check_hashes(runner.records)
    report = {}
    for name in names:
        records = [r for r in runner.records if r["workload"] == name]
        rows = _end_to_end(records)
        rows["fail_rate"] = {
            **describe([sum(map(_failed, records)) / len(records)]),
            "unit": "share"}
        _print_table(name, rows)
        for record in records:
            for failure in record.get("failures", []):
                print(f"  FAILED {name} seed {record['seed']}: {failure}")
        report[name] = {"metrics": rows}
    return report


def trace(runner: Runner, names: list[str], seed: int) -> dict:
    """Trace mode: one untraced and one traced run per workload."""
    report = {}
    for name in names:
        plain = runner.cell(name, seed)
        traced = runner.cell(name, seed, trace=True)
        _check_hashes([plain, traced])
        metrics: dict = {}
        if not _failed(plain) and not _failed(traced):
            values, problems = _per_layer(plain, traced)
            if problems:
                traced.setdefault("failures", []).extend(problems)
            metrics = {k: {"median": v, "q1": v, "q3": v, "n": 1, "unit": u}
                       for k, (v, u) in values.items()}
            _print_table(name, metrics)
        for record in (plain, traced):
            for failure in record.get("failures", []):
                print(f"  FAILED {name} traced={record['traced']}: {failure}")
        report[name] = {"metrics": metrics}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end simulator benchmark.")
    parser.add_argument("--workloads", "--workload", nargs="+",
                        choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--runs", type=int,
                        help="repetitions per workload (default 5)")
    budget.add_argument("--seconds", type=float,
                        help="time budget per workload instead of --runs")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="write every record and statistic as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.runs is None and args.seconds is None:
        args.runs = 5

    deadline = time.monotonic() + DEADLINE_S \
        if args.seconds is not None else None
    runner = Runner(deadline)
    try:
        if args.trace:
            report = trace(runner, args.workloads, args.seed)
            wanted = PER_LAYER
        else:
            report = measure(runner, args.workloads, args.seed, args.runs,
                             args.seconds)
            wanted = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for name in args.workloads:
        rows = report[name]["metrics"]
        for metric, unit in wanted:
            if metric in rows:
                key = metric if len(args.workloads) == 1 \
                    else f"{name}/{metric}"
                metrics[key] = {"value": rows[metric]["median"],
                                "unit": unit}
    line = _result_line(runner.records, metrics)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed,
            "trace": bool(args.trace),
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "workloads": report,
            "records": runner.records,
            "result": line,
        }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
