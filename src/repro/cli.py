"""Command-line interface: ``krisp-repro``.

Subcommands wrap the library's main entry points so the reproduction can
be explored without writing code:

* ``profile MODEL`` — Fig. 3/Fig. 4 views of one model: the CU-restriction
  sensitivity curve and the per-kernel minimum-CU trace.
* ``colocate MODEL [MODEL...]`` — one co-location cell: throughput,
  p95 vs SLO, and energy per inference under a chosen policy.
* ``table3`` — regenerate the Table III workload characterisation.
* ``rate MODEL --rps N`` — open-loop serving at a fixed request rate.
* ``load SPEC.yaml`` — a latency-vs-offered-rate curve over a workload
  spec (Poisson/bursty/diurnal/trace arrivals, LLM phases), cached and
  parallelisable point-by-point.
* ``sweep [MODEL...]`` — a whole co-location grid (models x policies x
  worker counts) fanned out over a process pool with result caching.
* ``trace MODEL [MODEL...]`` — run one cell with full tracing and write
  a Perfetto-loadable Chrome trace plus a metrics summary.
* ``chaos MODEL [MODEL...]`` — a policy × fault-scenario resilience grid
  with SLO guard rails, reporting goodput and p95 deltas vs fault-free.
* ``report MODEL [MODEL...]`` — run one cell under the flight recorder
  and emit a latency-attribution + SLO burn-rate report (deterministic
  JSON and human-readable markdown), with an exact conservation audit.
* ``fleet SPEC.yaml`` — a simulated multi-GPU fleet: devices × router
  policy × offered-rate grid with per-model pool autoscaling, optional
  node-crash injection, and per-device utilization/goodput accounting.
* ``alloc MODEL [MODEL...]`` — compare mask-allocation policies (per-
  kernel Algorithm 1 vs the pooled/contention-aware allocators): a
  mask-law churn audit with wall times and pool statistics, a serving
  cell per policy, and an optional mixed-chaos cell.

The recurring flags — ``--jobs``, ``--no-cache``, ``--json-out``,
``--duration`` — are defined once on shared parent parsers, so they
spell and mean the same thing on every subcommand that takes them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.series import ascii_curve
from repro.analysis.tables import format_table
from repro.models.zoo import ALL_MODEL_NAMES, MODEL_NAMES, TABLE_III, get_model
from repro.profiling.model_profiler import kernel_mincu_trace, profile_model
from repro.server.experiment import (
    ExperimentConfig,
    isolated_baseline,
    normalized_rps,
    run_experiment,
    slo_target,
)
from repro.server.options import RunOptions
from repro.server.policies import POLICY_NAMES
from repro.server.rate_experiment import run_rate_experiment

__all__ = ["main"]


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _shared_parents() -> dict[str, argparse.ArgumentParser]:
    """Parent parsers for the flags every grid/report subcommand shares.

    Defining ``--jobs``/``--no-cache``/``--json-out``/``--duration``
    once keeps their spelling, type, default, and help text identical
    across subcommands (a parity test pins this).
    """
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", "-j", type=_positive_int, default=None,
                      help="process-pool size (default: REPRO_JOBS or "
                           "cpu_count - 1; 1 = serial)")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache entirely")
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json-out", default=None,
                          help="write the deterministic JSON document here")
    duration = argparse.ArgumentParser(add_help=False)
    duration.add_argument("--duration", type=float, default=None,
                          help="sim seconds per run (default: "
                               "subcommand-specific)")
    return {"jobs": jobs, "cache": cache, "json_out": json_out,
            "duration": duration}


def _grid_progress(done: int, total: int, outcome) -> None:
    """The one stderr progress line of every grid command (``sweep``,
    ``load``, ``chaos``, ``fleet``), fed by the cell executor."""
    state = "hit" if outcome.hit else "miss" if outcome.ok else "FAILED"
    print(f"\r[{done}/{total}] {outcome.cell.label:<40} {state:<6} "
          f"{outcome.seconds:6.2f}s attempt {outcome.attempts}",
          end="", file=sys.stderr, flush=True)


def _cmd_profile(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    sensitivity = profile_model(model, batch_size=args.batch,
                                cu_counts=range(4, 61, 4))
    print(ascii_curve(
        sensitivity.cu_counts,
        [lat * 1e3 for lat in sensitivity.latencies],
        width=40,
        label=f"{model.name} latency (ms) vs active CUs (batch {args.batch})",
    ))
    print(f"\nmodel-wise right-size: {sensitivity.right_size} CUs"
          + (f" (paper: {TABLE_III[model.name][1]})"
             if model.name in TABLE_III else ""))
    mins = kernel_mincu_trace(model, batch_size=args.batch)
    small = sum(1 for m in mins if m <= 15)
    print(f"kernel-wise: {len(mins)} kernels/pass, {small} need <=15 CUs, "
          f"{sum(1 for m in mins if m >= 50)} need >=50 CUs")
    return 0


def _cmd_colocate(args: argparse.Namespace) -> int:
    names = tuple(args.models) * args.workers if len(args.models) == 1 \
        else tuple(args.models)
    result = run_experiment(ExperimentConfig(
        model_names=names, policy=args.policy, batch_size=args.batch))
    rows = []
    for worker in result.workers:
        slo = slo_target(worker.model_name, args.batch) * 1e3
        rows.append([worker.model_name, worker.rps,
                     worker.latency.p95 * 1e3, slo,
                     worker.latency.p95 * 1e3 <= slo])
    print(format_table(
        ["model", "rps", "p95 (ms)", "SLO (ms)", "meets SLO"], rows,
        title=f"{len(names)} workers under {args.policy} "
              f"(batch {args.batch})"))
    print(f"\nnormalized system throughput: {normalized_rps(result):.2f}x")
    print(f"energy per inference: {result.energy_per_request:.2f} J")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    rows = []
    for name, (paper_k, paper_rs, paper_p95) in TABLE_III.items():
        model = get_model(name)
        sens = profile_model(model, cu_counts=range(2, 61))
        p95 = isolated_baseline(name).max_p95() * 1e3
        rows.append([name, model.kernel_count, paper_k, sens.right_size,
                     paper_rs, p95, paper_p95])
    print(format_table(
        ["model", "#kernels", "(paper)", "right-size", "(paper)",
         "p95 ms", "(paper)"],
        rows, title="Table III (measured vs paper)"))
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        model_names=(args.model,) * args.workers, policy=args.policy,
        batch_size=args.batch)
    duration = args.duration if args.duration is not None else 2.0
    result = run_rate_experiment(config, offered_rps=args.rps,
                                 duration=duration)
    print(f"offered {result.offered_rps:.0f} rps -> achieved "
          f"{result.achieved_rps:.0f} rps")
    print(f"p95 latency (incl. queueing): {result.latency.p95 * 1e3:.2f} ms")
    print(f"saturated: {'yes' if result.saturated else 'no'} "
          f"(queue residue {result.queue_residue})")
    return 1 if result.saturated else 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.exp.load import run_load_curve
    from repro.exp.sweep import default_jobs
    from repro.server.slo import SloGuard
    from repro.workload import load_workload

    spec = load_workload(args.spec)
    models = tuple(spec.models())
    names = models * args.workers if len(models) == 1 \
        else tuple(m for m in models for _ in range(args.workers))
    config = ExperimentConfig(
        model_names=names, policy=args.policy,
        batch_size=spec.request_batch_size(), seed=args.seed)

    guard = None
    if args.deadline is not None or args.admission is not None:
        guard = SloGuard(
            deadline=(args.deadline * 1e-3 if args.deadline is not None
                      else None),
            admission_depth=args.admission)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    report = run_load_curve(
        config, spec,
        rates=tuple(args.rates) if args.rates else None,
        scales=tuple(args.scales),
        duration=args.duration, options=RunOptions(guard=guard), jobs=jobs,
        use_cache=not args.no_cache, progress=_grid_progress,
        attribute=args.attribute)
    print(file=sys.stderr)

    print(report.to_text())
    knee = report.knee_rps()
    print(f"\nspec rate {spec.offered_rps():.0f} rps over "
          f"{'+'.join(models)} ({args.workers} worker(s)/model, "
          f"batch {config.batch_size})")
    print("knee (p95 within 3x of lightest point): "
          + (f"{knee:.0f} rps" if knee is not None else "below first point"))
    if report.cache_hits:
        print(f"cache: {report.cache_hits}/{len(report.points)} points "
              "served from the rate store")

    if args.metrics_out:
        from pathlib import Path

        from repro.obs.attribution import export_attribution_metrics
        from repro.obs.flight import FlightRecorder
        from repro.obs.metrics import MetricsRegistry

        probe_rate = args.metrics_rate if args.metrics_rate is not None \
            else report.points[-1].offered_rps
        registry = MetricsRegistry()
        recorder = FlightRecorder()
        run_rate_experiment(
            config, probe_rate, report.duration,
            options=RunOptions(workload=spec.at_rate(probe_rate),
                               guard=guard, metrics=registry,
                               recorder=recorder))
        exported = export_attribution_metrics(recorder.flights(), registry)
        Path(args.metrics_out).write_text(registry.to_prometheus())
        print(f"wrote {len(registry)} metric series "
              f"({exported} attribution series) for the "
              f"{probe_rate:.0f} rps point to {args.metrics_out}")

    if args.json_out:
        import json
        from pathlib import Path

        from repro.exp.cache import fingerprint

        payload = {
            "schema": 1,
            "config": {"model_names": list(config.model_names),
                       "policy": config.policy,
                       "batch_size": config.batch_size,
                       "seed": config.seed},
            "constants": fingerprint(),
            "duration": report.duration,
            "workload": spec.to_dict(),
            "rows": report.to_rows(),
        }
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {len(report.points)} points to {args.json_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exp.sweep import Sweep, default_jobs, run_sweep

    models = tuple(args.models) if args.models else tuple(MODEL_NAMES)
    sweep = Sweep().add_grid(
        models, tuple(args.policies), tuple(args.workers),
        batch_size=args.batch)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    report = run_sweep(sweep, jobs=jobs, cache=not args.no_cache,
                       retries=args.retries, progress=_grid_progress)
    print(file=sys.stderr)

    rows = []
    json_rows = []
    for config in report.cells:
        label = "+".join(dict.fromkeys(config.model_names)) \
            if len(set(config.model_names)) > 1 else config.model_names[0]
        try:
            result = report.result(config)
        except RuntimeError:
            rows.append([label, config.policy, len(config.model_names),
                         "FAILED", "-", "-"])
            json_rows.append({"models": list(config.model_names),
                              "policy": config.policy, "failed": True})
            continue
        rows.append([label, config.policy, len(config.model_names),
                     f"{result.total_rps:.0f}",
                     f"{result.max_p95() * 1e3:.1f}",
                     f"{result.energy_per_request:.2f}"])
        json_rows.append({
            "models": list(config.model_names),
            "policy": config.policy,
            "workers": len(config.model_names),
            "total_rps": result.total_rps,
            "max_p95_ms": result.max_p95() * 1e3,
            "energy_per_request_j": result.energy_per_request,
            "failed": False,
        })
    print(format_table(
        ["model", "policy", "workers", "rps", "max p95 (ms)", "J/req"],
        rows, title=f"sweep over {len(report.cells)} cells "
                    f"(batch {args.batch})"))
    print(f"\n{report.summary()}")

    if args.json_out:
        import json
        from pathlib import Path

        from repro.exp.cache import fingerprint

        payload = {"schema": 1, "constants": fingerprint(),
                   "batch_size": args.batch, "rows": json_rows}
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {len(json_rows)} cells to {args.json_out}")
    if report.failed:
        for failure in report.failed:
            print(f"\nFAILED {'+'.join(failure.config.model_names)}/"
                  f"{failure.config.policy} "
                  f"after {failure.attempts} attempts:\n{failure.traceback}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    names = tuple(args.models) * args.workers if len(args.models) == 1 \
        else tuple(args.models)
    tracer = Tracer()
    registry = MetricsRegistry()
    result = run_experiment(
        ExperimentConfig(
            model_names=names, policy=args.policy, batch_size=args.batch,
            emulated=args.emulated, requests_scale=args.scale,
        ),
        options=RunOptions(tracer=tracer, metrics=registry,
                           sample_interval=args.sample_interval),
    )
    events = tracer.write_chrome_trace(args.out)
    counts = tracer.counts()
    print(f"wrote {events} trace events to {args.out} "
          f"({counts['span']} spans, {counts['instant']} instants, "
          f"{counts['counter']} counter samples, {counts['flow']} flow "
          f"events)")
    print(f"requests: {tracer.requests_traced}  "
          f"kernels: {tracer.kernels_traced}  "
          f"mask decisions: {tracer.mask_decisions}  "
          f"barriers: {tracer.barriers}")
    print(f"peak CU occupancy: {result.peak_cu_occupancy}  "
          f"total rps: {result.total_rps:.0f}")
    if args.metrics_out:
        from pathlib import Path
        Path(args.metrics_out).write_text(registry.to_prometheus())
        print(f"wrote {len(registry)} metric series to {args.metrics_out}")
    print("\nmetrics summary:")
    for line in registry.summary_lines():
        print(f"  {line}")
    print("\nopen the trace at https://ui.perfetto.dev (or "
          "chrome://tracing)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.exp.chaos import CHAOS_SCENARIOS, build_scenario, run_chaos
    from repro.exp.sweep import default_jobs

    names = tuple(args.models) * args.workers if len(args.models) == 1 \
        else tuple(args.models)
    scenarios = tuple(args.scenarios) if args.scenarios \
        else CHAOS_SCENARIOS

    jobs = args.jobs if args.jobs is not None else default_jobs()
    report = run_chaos(
        names, tuple(args.policies), scenarios,
        batch_size=args.batch, seed=args.seed,
        requests_scale=args.scale, emulated=args.emulated,
        use_cache=not args.no_cache, jobs=jobs, progress=_grid_progress,
        allocation=args.allocation, sizing=args.sizing,
    )
    print(file=sys.stderr)
    print(report.to_text())
    guard = report.guard
    print(f"\nguard: admission depth {guard.admission_depth}, deadline "
          f"{guard.deadline * 1e3:.1f} ms, {guard.max_retries} retries")

    if args.json_out:
        import json
        from pathlib import Path
        Path(args.json_out).write_text(
            json.dumps(report.to_rows(), indent=2, sort_keys=True))
        print(f"wrote {len(report.cells)} cells to {args.json_out}")

    if args.trace_out:
        from repro.obs.tracer import Tracer

        policy = args.policies[0]
        scenario = scenarios[-1]
        config = ExperimentConfig(
            model_names=names, policy=policy, batch_size=args.batch,
            seed=args.seed, emulated=args.emulated,
            requests_scale=args.scale,
            allocation=args.allocation, sizing=args.sizing)
        tracer = Tracer()
        run_experiment(config, options=RunOptions(
            tracer=tracer, faults=build_scenario(scenario, config),
            guard=report.guard))
        events = tracer.write_chrome_trace(args.trace_out)
        print(f"wrote {events} trace events for {policy}/{scenario} to "
              f"{args.trace_out} ({tracer.faults_traced} faults, "
              f"{tracer.requests_shed} shed)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json
    from fractions import Fraction
    from pathlib import Path

    from repro.exp.cache import fingerprint
    from repro.obs.attribution import (
        decompose,
        render_markdown_report,
        summarize,
    )
    from repro.obs.flight import FlightRecorder
    from repro.obs.slo_report import build_slo_report
    from repro.server.experiment import measurement_window
    from repro.server.slo import SloGuard

    names = tuple(args.models) * args.workers if len(args.models) == 1 \
        else tuple(args.models)
    config = ExperimentConfig(
        model_names=names, policy=args.policy, batch_size=args.batch,
        seed=args.seed, requests_scale=args.scale)

    guard = None
    if (args.deadline is not None or args.admission is not None
            or args.retries is not None):
        kwargs = {}
        if args.deadline is not None:
            kwargs["deadline"] = args.deadline * 1e-3
        if args.admission is not None:
            kwargs["admission_depth"] = args.admission
        if args.retries is not None:
            kwargs["max_retries"] = args.retries
        guard = SloGuard(**kwargs)

    faults = None
    if args.faults:
        from repro.exp.chaos import build_scenario
        faults = build_scenario(args.faults, config)

    recorder = FlightRecorder()
    result = run_experiment(config, options=RunOptions(
        recorder=recorder, faults=faults, guard=guard))

    warmup, end = measurement_window(config)
    flights = recorder.flights()
    attribution = summarize(flights, window=(warmup, end))
    slo = build_slo_report(flights, objective=args.objective,
                           span=(warmup, end), window_count=8)

    # Conservation audit: every completed flight must decompose into
    # components that sum *exactly* (Fraction arithmetic, no tolerance)
    # to its end-to-end latency.
    audited = 0
    exact = True
    for flight in flights:
        if not flight.completed:
            continue
        try:
            parts = decompose(flight)
        except ValueError:
            exact = False
            continue
        audited += 1
        total = sum(parts.values(), Fraction(0))
        if total != (Fraction(flight.completion_time)
                     - Fraction(flight.arrival_time)):
            exact = False

    payload = {
        "schema": 1,
        "config": {"model_names": list(names),
                   "policy": config.policy,
                   "batch_size": config.batch_size,
                   "seed": config.seed,
                   "requests_scale": config.requests_scale},
        "constants": fingerprint(),
        "faults": args.faults,
        "result": {
            "total_rps": result.total_rps,
            "goodput_rps": result.goodput_rps,
            "max_p95_ms": result.max_p95() * 1e3,
            "energy_per_request_j": result.energy_per_request,
            "window_s": result.window,
        },
        "attribution": attribution,
        "slo": slo,
        "conservation": {"requests": audited, "exact": exact},
    }

    markdown = render_markdown_report(payload)
    print(markdown)

    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote report JSON to {args.json_out}")
    if args.md_out:
        Path(args.md_out).write_text(markdown + "\n")
        print(f"wrote report markdown to {args.md_out}")

    if not exact:
        print("CONSERVATION VIOLATED: attribution components do not sum "
              "to end-to-end latency", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.check import available_checks, run_checks, run_mutate_smoke

    if args.list:
        from repro.check.mutate import MUTATIONS

        for name in available_checks(include_all=True):
            print(name)
        for mutation in MUTATIONS:
            print(f"mutate:{mutation.name}")
        return 0

    def progress(name: str) -> None:
        print(f".. {name}", file=sys.stderr)

    if args.mutate_smoke:
        report, all_caught = run_mutate_smoke(progress=progress)
        for line in report.summary_lines():
            print(line)
        if args.json_out:
            payload = report.to_dict()
            payload["self_test_ok"] = all_caught
            Path(args.json_out).write_text(json.dumps(payload, indent=2))
            print(f"wrote mutate-smoke report to {args.json_out}")
        if all_caught:
            print("mutate-smoke: every seeded fault was caught "
                  "(exit 1 — violations are expected here)")
            return 1
        print("mutate-smoke: AUDIT LAYER FAILED — a seeded fault "
              "produced no violations", file=sys.stderr)
        return 2

    try:
        report = run_checks(scenarios=args.scenario,
                            include_all=args.all, progress=progress,
                            allocation=args.allocation, sizing=args.sizing)
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2))
        print(f"wrote check report to {args.json_out}")
    return 0 if report.ok else 1


#: Allocation/sizing policy rosters, duplicated as literals so parser
#: construction stays import-light; a parity test pins them against
#: :mod:`repro.core.pools`.
_ALLOCATION_CHOICES = ("krisp", "pooled", "pooled-contention")
_SIZING_CHOICES = ("static", "predictive")


def _cmd_alloc(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from repro.check.invariants import run_mask_program, run_pool_program
    from repro.exp.cache import fingerprint, result_hash

    models = tuple(args.models) if args.models else ("squeezenet",)
    unknown = sorted(set(models) - set(ALL_MODEL_NAMES))
    if unknown:
        print(f"unknown model(s) {unknown}; choose from "
              f"{sorted(ALL_MODEL_NAMES)}", file=sys.stderr)
        return 2
    names = models * args.workers if len(models) == 1 else models
    allocations = tuple(dict.fromkeys(args.allocations))
    total_violations = 0

    # Phase 1: the mask-law churn audit.  Every allocation policy serves
    # the identical seeded request stream under the L1-L4 checker; the
    # wall column is the allocator-overhead comparison (stdout only —
    # the JSON document stays deterministic).
    law_rows = []
    print(f"-- mask-law churn ({args.iterations} masks/policy, "
          f"seed {args.seed}) --")
    for allocation in allocations:
        stats: dict = {}
        start = time.perf_counter()
        if allocation == "krisp":
            violations = run_mask_program(
                seed=args.seed, iterations=args.iterations)
        else:
            violations = run_pool_program(
                seed=args.seed, iterations=args.iterations,
                contention=allocation == "pooled-contention",
                stats_out=stats)
        wall = time.perf_counter() - start
        total_violations += len(violations)
        pool_note = ""
        if stats:
            pool_note = (f"  hits {stats.get('pool_hits', 0)} "
                         f"repacks {stats.get('repacks', 0)} "
                         f"fallbacks {stats.get('fallbacks', 0)}")
        print(f"{allocation:<18} wall {wall:>7.3f}s  "
              f"violations {len(violations)}{pool_note}")
        for violation in violations[:5]:
            print(f"  VIOLATION: {violation}", file=sys.stderr)
        row = {"allocation": allocation, "masks": args.iterations,
               "violations": len(violations)}
        if stats:
            row["pool"] = stats
        law_rows.append(row)

    # Phase 2: one serving cell per allocation policy (same workload,
    # same sizing), hashed so grids are comparable bit-for-bit.
    cell_rows = []
    print(f"\n-- serving cells ({'+'.join(dict.fromkeys(names))}, "
          f"{len(names)} workers, {args.policy}, sizing {args.sizing}) --")
    for allocation in allocations:
        config = ExperimentConfig(
            model_names=names, policy=args.policy, batch_size=args.batch,
            seed=args.seed, requests_scale=args.scale,
            allocation=allocation, sizing=args.sizing)
        result = run_experiment(config)
        cell_hash = result_hash(result)
        print(f"{allocation:<18} rps {result.total_rps:>9.2f}  "
              f"p95 {result.max_p95() * 1e3:>7.2f}ms  "
              f"hash {cell_hash[:16]}")
        cell_rows.append({
            "allocation": allocation,
            "sizing": args.sizing,
            "result_hash": cell_hash,
            "total_rps": result.total_rps,
            "max_p95_ms": result.max_p95() * 1e3,
        })

    # Phase 3 (optional): the mixed-fault chaos cell per policy, with
    # the standard guard rails — resilience under the new allocators.
    chaos_rows = []
    if args.chaos:
        from repro.exp.chaos import build_scenario, default_guard

        print("\n-- mixed-chaos cells (guarded) --")
        for allocation in allocations:
            config = ExperimentConfig(
                model_names=names, policy=args.policy,
                batch_size=args.batch, seed=args.seed,
                requests_scale=args.scale,
                allocation=allocation, sizing=args.sizing)
            result = run_experiment(config, RunOptions(
                faults=build_scenario("mixed", config),
                guard=default_guard(config)))
            cell_hash = result_hash(result)
            res = result.resilience
            print(f"{allocation:<18} goodput {result.goodput_rps:>9.2f}  "
                  f"shed {res.shed if res else 0:>4} "
                  f"degraded {res.degraded if res else 0:>4}  "
                  f"hash {cell_hash[:16]}")
            chaos_rows.append({
                "allocation": allocation,
                "sizing": args.sizing,
                "result_hash": cell_hash,
                "goodput_rps": result.goodput_rps,
                "shed": res.shed if res else 0,
                "degraded": res.degraded if res else 0,
            })

    if args.json_out:
        payload = {
            "schema": 1,
            "config": {"model_names": list(names),
                       "policy": args.policy,
                       "batch_size": args.batch,
                       "seed": args.seed,
                       "requests_scale": args.scale,
                       "sizing": args.sizing},
            "constants": fingerprint(),
            "law_audit": law_rows,
            "cells": cell_rows,
            "chaos": chaos_rows,
        }
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nwrote {len(allocations)}-policy comparison to "
              f"{args.json_out}")

    if total_violations:
        print(f"\nLAW VIOLATIONS: {total_violations} across the churn "
              "audit", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.cluster import AutoscalerConfig, ClusterConfig, run_fleet
    from repro.exp.sweep import default_jobs
    from repro.workload import load_workload

    spec = load_workload(args.spec)
    models = tuple(spec.models())
    base = ClusterConfig(
        devices=args.devices[0], model_names=models, policy=args.policy,
        batch_size=spec.request_batch_size(), seed=args.seed,
        router=args.router, pool_size=args.pool, pool_min=args.pool_min)

    guard = None
    if args.deadline is not None or args.admission is not None:
        from repro.server.slo import SloGuard
        guard = SloGuard(
            deadline=(args.deadline * 1e-3 if args.deadline is not None
                      else None),
            admission_depth=args.admission)

    faults = None
    if args.crash_node is not None:
        from repro.faults.schedule import FaultSchedule, NodeCrash
        faults = FaultSchedule(
            (NodeCrash(time=args.crash_time, node=args.crash_node),))

    native = spec.offered_rps()
    scales = tuple(args.scales)
    if args.rates:
        scales = tuple(rate / native for rate in args.rates)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    report = run_fleet(
        base, spec,
        devices=tuple(args.devices),
        routers=tuple(args.routers) if args.routers else None,
        scales=scales,
        duration=args.duration,
        autoscaler=None if args.no_autoscaler else AutoscalerConfig(),
        faults=faults, guard=guard,
        jobs=jobs, use_cache=not args.no_cache, progress=_grid_progress)
    print(file=sys.stderr)

    print(report.to_text())
    print(f"\nspec rate {native:.0f} rps over {'+'.join(models)} "
          f"(pool {base.pool_min}..{base.pool_size} per model per device)")
    if report.cache_hits:
        print(f"cache: {report.cache_hits}/{len(report.cells)} cells "
              "served from the cluster store")
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
        print(f"wrote {len(report.cells)} cells to {args.json_out}")
    violated = [c for c in report.cells if not c.result.conservation_ok]
    if violated:
        print(f"CONSERVATION VIOLATED in {len(violated)} cell(s)",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``krisp-repro`` argument parser."""
    from repro.cluster.config import ROUTER_POLICIES

    parser = argparse.ArgumentParser(
        prog="krisp-repro",
        description="KRISP (HPCA 2023) reproduction on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parents = _shared_parents()

    profile = sub.add_parser("profile", help="model sensitivity + kernel trace")
    profile.add_argument("model", choices=ALL_MODEL_NAMES)
    profile.add_argument("--batch", type=int, default=32)
    profile.set_defaults(func=_cmd_profile)

    colocate = sub.add_parser("colocate", help="run one co-location cell")
    colocate.add_argument("models", nargs="+", choices=ALL_MODEL_NAMES)
    colocate.add_argument("--workers", "-n", type=int, default=2,
                          help="replicas when a single model is given")
    colocate.add_argument("--policy", "-p", choices=POLICY_NAMES,
                          default="krisp-i")
    colocate.add_argument("--batch", type=int, default=32)
    colocate.set_defaults(func=_cmd_colocate)

    table3 = sub.add_parser("table3", help="regenerate Table III")
    table3.set_defaults(func=_cmd_table3)

    rate = sub.add_parser("rate", parents=[parents["duration"]],
                          help="open-loop serving at a fixed rate")
    rate.add_argument("model", choices=ALL_MODEL_NAMES)
    rate.add_argument("--rps", type=float, required=True)
    rate.add_argument("--workers", "-n", type=int, default=2)
    rate.add_argument("--policy", "-p", choices=POLICY_NAMES,
                      default="krisp-i")
    rate.add_argument("--batch", type=int, default=32)
    rate.set_defaults(func=_cmd_rate)

    load = sub.add_parser(
        "load",
        parents=[parents["jobs"], parents["cache"], parents["json_out"],
                 parents["duration"]],
        help="latency-vs-rate curve over a YAML workload spec")
    load.add_argument("spec", help="workload spec path (.yaml or .json)")
    load.add_argument("--workers", "-n", type=int, default=2,
                      help="workers per distinct model in the spec")
    load.add_argument("--policy", "-p", choices=POLICY_NAMES,
                      default="krisp-i")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--scales", nargs="+", type=float,
                      default=[0.25, 0.5, 0.75, 1.0, 1.25, 1.5],
                      help="offered-rate multiples of the spec's native "
                           "rate")
    load.add_argument("--rates", nargs="+", type=float, default=None,
                      help="absolute offered rates in rps (overrides "
                           "--scales)")
    load.add_argument("--deadline", type=float, default=None,
                      help="SLO deadline in ms (enables shedding + "
                           "goodput accounting)")
    load.add_argument("--admission", type=int, default=None,
                      help="bound each queue to this depth")
    load.add_argument("--attribute", action="store_true",
                      help="attach a latency-attribution summary to every "
                           "point (runs points live, serially)")
    load.add_argument("--metrics-out", default=None,
                      help="re-run one rate point under the sampler + "
                           "flight recorder and write Prometheus text "
                           "metrics here")
    load.add_argument("--metrics-rate", type=float, default=None,
                      help="offered rate for --metrics-out (default: the "
                           "heaviest point)")
    load.set_defaults(func=_cmd_load)

    sweep = sub.add_parser(
        "sweep",
        parents=[parents["jobs"], parents["cache"], parents["json_out"]],
        help="run a co-location grid in parallel with caching")
    sweep.add_argument("models", nargs="*", choices=ALL_MODEL_NAMES,
                       help="models to sweep (default: the Table III zoo)")
    sweep.add_argument("--policies", "-p", nargs="+", choices=POLICY_NAMES,
                       default=list(POLICY_NAMES))
    sweep.add_argument("--workers", "-n", nargs="+", type=int,
                       default=[1, 2, 4],
                       help="worker counts (each model co-located with "
                            "itself)")
    sweep.add_argument("--batch", type=int, default=32)
    sweep.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failing cell")
    sweep.set_defaults(func=_cmd_sweep)

    trace = sub.add_parser(
        "trace", help="trace one co-location cell into a Perfetto JSON")
    trace.add_argument("models", nargs="+", choices=ALL_MODEL_NAMES)
    trace.add_argument("--workers", "-n", type=int, default=2,
                       help="replicas when a single model is given")
    trace.add_argument("--policy", "-p", choices=POLICY_NAMES,
                       default="krisp-i")
    trace.add_argument("--batch", type=int, default=32)
    trace.add_argument("--emulated", action="store_true",
                       help="route launches through the barrier-packet "
                            "emulation path")
    trace.add_argument("--scale", type=float, default=1.0,
                       help="measurement-window scale (requests_scale)")
    trace.add_argument("--out", "-o", default="trace.json",
                       help="Chrome trace output path")
    trace.add_argument("--metrics-out", default=None,
                       help="also write Prometheus text metrics here")
    trace.add_argument("--sample-interval", type=float, default=250e-6,
                       help="sim-time metrics sampling period in seconds")
    trace.set_defaults(func=_cmd_trace)

    chaos = sub.add_parser(
        "chaos",
        parents=[parents["jobs"], parents["cache"], parents["json_out"]],
        help="policy x fault-scenario resilience grid")
    chaos.add_argument("models", nargs="+", choices=ALL_MODEL_NAMES)
    chaos.add_argument("--workers", "-n", type=int, default=2,
                       help="replicas when a single model is given")
    chaos.add_argument("--policies", "-p", nargs="+", choices=POLICY_NAMES,
                       default=["krisp-i", "mps-default"])
    chaos.add_argument("--scenarios", "-s", nargs="+",
                       choices=["crash", "straggler", "bandwidth", "storm",
                                "dropout", "mixed"],
                       default=None,
                       help="fault scenarios (default: all)")
    chaos.add_argument("--batch", type=int, default=32)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--scale", type=float, default=1.0,
                       help="measurement-window scale (requests_scale)")
    chaos.add_argument("--emulated", action="store_true",
                       help="route launches through the barrier-packet "
                            "emulation path")
    chaos.add_argument("--trace-out", default=None,
                       help="re-run one fault-injected cell under the "
                            "tracer and write a Chrome trace here")
    chaos.add_argument("--allocation", choices=_ALLOCATION_CHOICES,
                       default="krisp",
                       help="mask-allocation policy for the KRISP cells")
    chaos.add_argument("--sizing", choices=_SIZING_CHOICES,
                       default="static",
                       help="kernel right-sizing policy for the KRISP "
                            "cells")
    chaos.set_defaults(func=_cmd_chaos)

    report = sub.add_parser(
        "report", parents=[parents["json_out"]],
        help="latency-attribution + SLO burn-rate report for one cell")
    report.add_argument("models", nargs="+", choices=ALL_MODEL_NAMES)
    report.add_argument("--workers", "-n", type=int, default=2,
                        help="replicas when a single model is given")
    report.add_argument("--policy", "-p", choices=POLICY_NAMES,
                        default="krisp-i")
    report.add_argument("--batch", type=int, default=32)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--scale", type=float, default=1.0,
                        help="measurement-window scale (requests_scale)")
    report.add_argument("--faults", choices=["crash", "straggler",
                                             "bandwidth", "storm",
                                             "dropout", "mixed"],
                        default=None,
                        help="inject a chaos fault scenario during the run")
    report.add_argument("--deadline", type=float, default=None,
                        help="SLO guard deadline in ms (enables shedding)")
    report.add_argument("--admission", type=int, default=None,
                        help="bound each queue to this depth")
    report.add_argument("--retries", type=int, default=None,
                        help="crash-retry budget per request")
    report.add_argument("--objective", type=float, default=0.95,
                        help="SLO attainment objective for burn-rate "
                             "accounting (default 0.95)")
    report.add_argument("--md-out", default=None,
                        help="write the markdown report here")
    report.set_defaults(func=_cmd_report)

    check = sub.add_parser(
        "check", parents=[parents["json_out"]],
        help="audit the simulator's conservation laws")
    check.add_argument("--scenario", "-s", nargs="+", default=None,
                       help="restrict differential replays to these pinned "
                            "scenarios (default: colo4 chaos)")
    check.add_argument("--all", action="store_true",
                       help="replay every pinned scenario, including the "
                            "slow dense cell")
    check.add_argument("--mutate-smoke", action="store_true",
                       help="self-test: seed deliberate faults and assert "
                            "the checkers catch them (exits 1 when all are "
                            "caught, 2 when one escapes)")
    check.add_argument("--list", action="store_true",
                       help="list every check and mutation, then exit")
    check.add_argument("--allocation", choices=_ALLOCATION_CHOICES,
                       default="krisp",
                       help="audit the scenario replays under this mask-"
                            "allocation policy (non-default swaps in the "
                            "alloc-* differential checks)")
    check.add_argument("--sizing", choices=_SIZING_CHOICES,
                       default="static",
                       help="kernel right-sizing policy for the scenario "
                            "replays")
    check.set_defaults(func=_cmd_check)

    alloc = sub.add_parser(
        "alloc", parents=[parents["json_out"]],
        help="compare mask-allocation policies: law churn audit + "
             "serving cells")
    # No ``choices=`` here: argparse rejects an empty nargs="*" match
    # against a choices list, which would break the bare default.
    alloc.add_argument("models", nargs="*", metavar="MODEL",
                       help="models for the serving cells (default: "
                            "squeezenet)")
    alloc.add_argument("--workers", "-n", type=int, default=4,
                       help="replicas when a single model is given")
    alloc.add_argument("--policy", "-p", choices=POLICY_NAMES,
                       default="krisp-i")
    alloc.add_argument("--allocations", "-a", nargs="+",
                       choices=_ALLOCATION_CHOICES,
                       default=list(_ALLOCATION_CHOICES),
                       help="allocation policies to compare (default: all)")
    alloc.add_argument("--sizing", choices=_SIZING_CHOICES,
                       default="static",
                       help="kernel right-sizing policy for the cells")
    alloc.add_argument("--batch", type=int, default=8)
    alloc.add_argument("--seed", type=int, default=0)
    alloc.add_argument("--scale", type=float, default=0.25,
                       help="measurement-window scale (requests_scale)")
    alloc.add_argument("--iterations", type=int, default=3000,
                       help="masks per policy in the law churn audit")
    alloc.add_argument("--chaos", action="store_true",
                       help="also run the guarded mixed-fault cell per "
                            "policy")
    alloc.set_defaults(func=_cmd_alloc)

    fleet = sub.add_parser(
        "fleet",
        parents=[parents["jobs"], parents["cache"], parents["json_out"],
                 parents["duration"]],
        help="devices x router-policy x rate grid over a simulated fleet")
    fleet.add_argument("spec", help="workload spec path (.yaml or .json)")
    fleet.add_argument("--devices", "-d", nargs="+", type=_positive_int,
                       default=[1, 2, 4],
                       help="fleet sizes (device counts) to sweep")
    fleet.add_argument("--routers", nargs="+", choices=ROUTER_POLICIES,
                       default=None,
                       help="router placement policies to compare "
                            "(default: just --router)")
    fleet.add_argument("--router", choices=ROUTER_POLICIES,
                       default="least-loaded",
                       help="request placement policy")
    fleet.add_argument("--policy", "-p", choices=POLICY_NAMES,
                       default="krisp-i",
                       help="per-device partition policy")
    fleet.add_argument("--pool", type=_positive_int, default=2,
                       help="worker slots per model per device")
    fleet.add_argument("--pool-min", type=_positive_int, default=1,
                       help="always-active slots per model per device")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--scales", nargs="+", type=float,
                       default=[0.5, 1.0, 1.5],
                       help="offered-rate multiples of the spec's native "
                            "rate")
    fleet.add_argument("--rates", nargs="+", type=float, default=None,
                       help="absolute offered rates in rps (overrides "
                            "--scales)")
    fleet.add_argument("--deadline", type=float, default=None,
                       help="SLO deadline in ms (enables shedding + "
                            "goodput accounting)")
    fleet.add_argument("--admission", type=int, default=None,
                       help="bound each queue to this depth")
    fleet.add_argument("--crash-node", type=int, default=None,
                       help="crash this node (whole device) mid-run")
    fleet.add_argument("--crash-time", type=float, default=0.5,
                       help="sim time of --crash-node in seconds")
    fleet.add_argument("--no-autoscaler", action="store_true",
                       help="freeze pools at --pool-min (no autoscaling)")
    fleet.set_defaults(func=_cmd_fleet)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
