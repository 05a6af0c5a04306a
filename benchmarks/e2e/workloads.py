"""The benchmark's workloads, defined inline against public entry points.

Every config and workload spec lives here rather than in ``examples/``
or :mod:`repro.bench.scenarios`, so edits to those cannot move the
benchmark.  A workload is two calls:

* ``setup(seed)`` does the workload's cold profiling (perf-DB build,
  model right-size sweep, isolated baselines) and returns the prepared
  inputs.  It is timed together with the imports as ``setup_s``.
* ``run(prepared)`` is the measured run.  It returns an :class:`Outcome`
  carrying the result hash, the simulated work done, the exact counters
  it can read from public attributes, and any failed correctness check.

The seed enters the configs only.  ``PINS`` holds the seed-0 result
hashes; a run on seed 0 that does not reproduce its pin has failed.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from repro.cluster.config import AutoscalerConfig, ClusterConfig
from repro.cluster.experiment import (
    cluster_result_hash,
    run_cluster_experiment,
)
from repro.cluster.setup import ClusterSetup
from repro.exp.cache import default_cache, rate_result_hash, result_hash
from repro.exp.sweep import run_sweep
from repro.gpu.topology import GpuTopology
from repro.models.zoo import get_model
from repro.obs.attribution import decompose, summarize
from repro.obs.flight import FlightRecorder
from repro.obs.slo_report import build_slo_report
from repro.server.experiment import (
    ExperimentConfig,
    measurement_window,
    run_experiment,
)
from repro.server.options import RunOptions
from repro.server.profiles import model_database, model_right_size
from repro.server.rate_experiment import (
    default_rate_duration,
    run_rate_experiment,
)
from repro.workload.arrivals import OnOffArrivals, PoissonArrivals
from repro.workload.spec import (
    HeterogeneousWorkloadSpec,
    HomogeneousWorkloadSpec,
    RequestClass,
)

__all__ = ["Outcome", "PINS", "WORKLOADS", "Workload"]

#: Seed-0 result hashes.  ``openloop`` is a ``rate_result_hash``,
#: ``fleet16`` a ``cluster_result_hash``, ``grid`` the sha256 over the
#: sorted cell ``result_hash``es joined by newlines.
PINS = {
    "colo": "8eedb8b62859a3235e7ada930b0175b849628f4ee1aa26250961ee4aeaea7a5f",
    "dense20":
        "1cd4db2e2575972777ce0782ef7902287f52928d9c2069c72acfc0b01a17110f",
    "openloop":
        "ed154d98dd7e7f630a926b332bbddfa7a9717a77d633dfac6eb44136187ffeb3",
    "fleet16":
        "2b4ce6db586e55dfa09fba1f78b58a46b1b7dec2acf5096d38a86ecbed318514",
    "grid": "587a0820eb965b1c8c717f4a03a8d0258c98305c9395ef8f1fdcf6f44911994e",
}


@dataclass
class Outcome:
    """What one measured run did, and whether it was correct."""

    result_hash: str
    #: Simulated kernels and requests completed in the measured run.
    kernels: int
    requests: int
    #: Exact counters of the layers the run can observe; one it cannot
    #: see (``grid``'s engines run in pool workers) is left out.
    counters: dict[str, int] = field(default_factory=dict)
    #: One line per failed correctness check (empty when correct).
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Any]
    run: Callable[[Any], Outcome]


def _warm(model_names, batch_size: int) -> None:
    """Cold perf-DB build and right-size sweep for every served model."""
    for name in dict.fromkeys(model_names):
        model_right_size(name, batch_size)
        model_database(name, batch_size)


def _counters(sims, devices, **extra) -> dict[str, int]:
    """Engine and device counters, plus the workload's own."""
    return {"sim.events": sum(sim.events_executed for sim in sims),
            "sim.batches": sum(sim.batches_drained for sim in sims),
            "gpu.device.kernels": sum(d.kernels_completed for d in devices),
            **extra}


def _completed(workers) -> int:
    return sum(1 for worker in workers for request in worker.stats.completed
               if request.completion_time is not None)


# -- closed loop: colo, dense20 -------------------------------------------

def _closed_loop_setup(config: ExperimentConfig) -> ExperimentConfig:
    _warm(config.model_names, config.batch_size)
    measurement_window(config)
    return config


def _closed_loop_run(config: ExperimentConfig) -> Outcome:
    built = []
    result = run_experiment(config, RunOptions(
        audit=lambda setup, injector: built.append(setup)))
    setup = built[0]
    return Outcome(
        result_hash=result_hash(result),
        kernels=setup.device.kernels_completed,
        requests=_completed(setup.workers),
        counters=_counters([setup.sim], [setup.device]),
    )


def _colo_config(seed: int) -> ExperimentConfig:
    # A fig13a cell with few co-resident kernels: the per-kernel callback
    # chain dominates and rate recompute is cheap.
    return ExperimentConfig(("squeezenet",) * 4, policy="krisp-i",
                            batch_size=8, seed=seed, requests_scale=4.0)


def _dense20_config(seed: int) -> ExperimentConfig:
    # ~20 resident kernels, so every launch or retire dirties many rates.
    # Most of the simulated time is warmup (2 * base * workers); it is
    # measured on purpose, since the simulator does the same work there.
    # Host time grows with the square of the worker count; 20 keeps the
    # traced run and its untraced twin within one run's budget.
    return ExperimentConfig(("squeezenet",) * 20, policy="krisp-i",
                            batch_size=1, seed=seed,
                            requests_scale=1 / 20)


# -- open loop with the flight recorder on --------------------------------

#: The bursty ON/OFF mix (squeezenet:mobilenet 3:1), inlined.
BURSTY_MIX = HeterogeneousWorkloadSpec(
    classes=(RequestClass("squeezenet", batch_size=4, weight=3.0),
             RequestClass("mobilenet", batch_size=4, weight=1.0)),
    arrivals=OnOffArrivals(on_rate=80.0, on_duration=0.2,
                           off_duration=0.1, off_rate=10.0),
)
OPENLOOP_RPS = 3 * BURSTY_MIX.offered_rps()
OPENLOOP_DURATION = 2.5


def _openloop_setup(seed: int):
    config = ExperimentConfig(
        ("squeezenet", "squeezenet", "mobilenet", "mobilenet"),
        policy="krisp-i", batch_size=4, seed=seed)
    _warm(config.model_names, config.batch_size)
    # Warms the isolated baselines behind the SLO thresholds.
    default_rate_duration(config)
    return config, BURSTY_MIX.at_rate(OPENLOOP_RPS)


def _openloop_run(prepared) -> Outcome:
    config, spec = prepared
    recorder = FlightRecorder()
    built = []
    result = run_rate_experiment(
        config, duration=OPENLOOP_DURATION, options=RunOptions(
            workload=spec, recorder=recorder,
            audit=lambda setup, injector: built.append(setup)))
    # The `report` post-processing: attribution, SLO burn, and an exact
    # decomposition audit of every completed flight.
    flights = recorder.flights()
    summarize(flights, window=(0.0, OPENLOOP_DURATION))
    build_slo_report(flights, span=(0.0, OPENLOOP_DURATION))
    inexact = 0
    for flight in flights:
        if not flight.completed:
            continue
        try:
            parts = decompose(flight)
        except ValueError:
            inexact += 1
            continue
        if sum(parts.values(), Fraction(0)) != (
                Fraction(flight.completion_time)
                - Fraction(flight.arrival_time)):
            inexact += 1
    setup = built[0]
    return Outcome(
        result_hash=rate_result_hash(result),
        kernels=setup.device.kernels_completed,
        requests=_completed(setup.workers),
        counters=_counters([setup.sim], [setup.device],
                           **{"obs.flights": len(flights)}),
        failures=[f"{inexact} flight decompositions inexact"]
        if inexact else [],
    )


# -- fleet ------------------------------------------------------------------

@contextmanager
def _captured_cluster_builds():
    """Record every :class:`ClusterSetup` built inside the block."""
    original = ClusterSetup.__dict__["build"]
    built: list[ClusterSetup] = []

    def build(cls, *args, **kwargs):
        cluster = original.__get__(None, cls)(*args, **kwargs)
        built.append(cluster)
        return cluster

    ClusterSetup.build = classmethod(build)
    try:
        yield built
    finally:
        ClusterSetup.build = original


def _fleet16_setup(seed: int):
    config = ClusterConfig(devices=16, model_names=("squeezenet",),
                           policy="krisp-i", batch_size=4, seed=seed,
                           router="least-loaded", pool_size=2, pool_min=1)
    _warm(config.model_names, config.batch_size)
    spec = HomogeneousWorkloadSpec("squeezenet", PoissonArrivals(rate=400.0),
                                   batch_size=4)
    return config, spec


FLEET_DURATION = 1.5


def _fleet16_run(prepared) -> Outcome:
    config, spec = prepared
    with _captured_cluster_builds() as built:
        result = run_cluster_experiment(
            config, spec, duration=FLEET_DURATION,
            autoscaler=AutoscalerConfig())
    cluster = built[0]
    devices = [node.setup.device for node in cluster.nodes]
    return Outcome(
        result_hash=cluster_result_hash(result),
        kernels=sum(d.kernels_completed for d in devices),
        requests=result.completed,
        counters=_counters([cluster.sim], devices, **{
            "cluster.scale_actions": len(result.scale_events)}),
        failures=[] if result.conservation_ok
        else ["fleet conservation violated"],
    )


# -- grid through the process-pool executor -------------------------------

GRID_POLICIES = (("mps-default", False), ("model-rightsize", False),
                 ("krisp-i", False), ("krisp-i", True))


def _cache_counts() -> dict[str, int]:
    """The result store's running hit/miss/store counts."""
    stats = default_cache().stats
    return {"exp.cache_hits": stats.hits, "exp.cache_misses": stats.misses,
            "exp.cache_stores": stats.stores}


def _grid_setup(seed: int):
    cells = [ExperimentConfig(("squeezenet",) * workers, policy=policy,
                              batch_size=8, seed=seed, emulated=emulated,
                              requests_scale=1.0)
             for policy, emulated in GRID_POLICIES for workers in (2, 4)]
    _warm(("squeezenet",), 8)
    for cell in cells:
        measurement_window(cell)
    topology = GpuTopology.mi50()
    kernels_per_request = sum(
        len(burst) for burst, _gap in get_model("squeezenet").segments(
            8, topology))
    return cells, kernels_per_request


def _grid_run(prepared) -> Outcome:
    cells, kernels_per_request = prepared
    before = _cache_counts()
    report = run_sweep(cells, jobs=2)
    after = _cache_counts()
    hashes = sorted(result_hash(result) for result in report.results.values())
    # The cells ran in pool workers; only their results come back, so the
    # simulated work is what the measurement windows completed, and the
    # engine and device counters are out of sight.
    requests = sum(worker.requests_completed
                   for result in report.results.values()
                   for worker in result.workers)
    return Outcome(
        result_hash=hashlib.sha256("\n".join(hashes).encode()).hexdigest(),
        kernels=requests * kernels_per_request,
        requests=requests,
        counters={name: after[name] - before[name] for name in after},
        failures=[f"cell {f.config} failed: {f.error}" for f in report.failed],
    )


WORKLOADS: dict[str, Workload] = {
    "colo": Workload(lambda seed: _closed_loop_setup(_colo_config(seed)),
                     _closed_loop_run),
    "dense20": Workload(
        lambda seed: _closed_loop_setup(_dense20_config(seed)),
        _closed_loop_run),
    "openloop": Workload(_openloop_setup, _openloop_run),
    "fleet16": Workload(_fleet16_setup, _fleet16_run),
    "grid": Workload(_grid_setup, _grid_run),
}
