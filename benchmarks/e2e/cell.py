"""One repetition of one workload, in the fresh process it needs.

``run.py`` starts this script once per repetition, with an empty
``REPRO_CACHE_DIR`` and ``src`` on ``PYTHONPATH``, and reads the JSON
record it prints as its last line::

    python cell.py --workload colo --seed 0 [--trace --dump-dir D]

``setup_s`` runs from the start of this script, so it covers the
imports and the workload's cold profiling calls.  ``wall_s`` covers the
measured run only.  With ``--trace`` the per-layer tracer is installed
after the imports and records the setup and run phases separately.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump-dir", type=Path)
    args = parser.parse_args(argv)

    import workloads

    tracer = None
    if args.trace:
        from layertrace import LayerTracer
        tracer = LayerTracer(args.dump_dir).install(
            harness_modules=[workloads])
        tracer.begin()
    workload = workloads.WORKLOADS[args.workload]
    prepared = workload.setup(args.seed)
    setup_s = time.perf_counter() - STARTED
    layers = {"setup": tracer.end()} if tracer is not None else None

    if tracer is not None:
        tracer.begin()
    start = time.perf_counter()
    outcome = workload.run(prepared)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        layers["run"] = tracer.end()
    failures = list(outcome.failures)
    pin = workloads.PINS[args.workload]
    if args.seed == 0 and outcome.result_hash != pin:
        failures.append(f"result hash {outcome.result_hash[:12]} != seed-0 "
                        f"pin {pin[:12]}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "kernels": outcome.kernels,
        "requests": outcome.requests,
        "peak_rss_mb": _peak_rss_mb(),
        "result_hash": outcome.result_hash,
        "counters": outcome.counters,
        "failures": failures,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
