"""Tests for the shared ServingSetup builder (repro.server.setup).

The refactor's contract: extracting the harness wiring into one builder
changed *nothing* observable — fault-free results are bit-identical to
the pre-builder harness (pinned via the cell's stable cache key and
strict run-to-run equality), and both harnesses now accept the same
observability keyword surface.
"""

import dataclasses

import pytest

from repro.core.allocation import ResourceMaskGenerator
from repro.exp.cache import cache_key, result_hash, result_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.server.experiment import (
    ExperimentConfig,
    measurement_window,
    run_experiment,
)
from repro.server.rate_experiment import run_rate_experiment
from repro.server.options import RunOptions
from repro.server.setup import ServingSetup
from repro.server.slo import SloGuard
from repro.workload import HomogeneousWorkloadSpec, PoissonArrivals

FAST = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                        batch_size=4, requests_scale=0.25)

#: Key of the fig13a pin cell under the seed constants.  The refactor
#: must not move fault-free cells to new cache addresses — a change here
#: invalidates every previously cached result.
FIG13A = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=32, seed=0, requests_scale=0.5)
FIG13A_KEY = "a0b294025055a22ab3ac059aab1a18bd43d622b614cfbc23f37b96a86cdaa9ca"

#: Content hash of the fig13a pin cell's full result payload, captured
#: on main before the incremental-recompute refactor.  Both recompute
#: paths must keep reproducing it float-for-float.
FIG13A_RESULT_SHA = (
    "586c866e8d4b92e20d04807e15adf3e875a658afdd5b75efc7161732ebb6ee5f")


def test_fault_free_cache_key_is_unchanged():
    assert cache_key(FIG13A) == FIG13A_KEY


def test_fig13a_result_hash_pin_incremental(monkeypatch):
    monkeypatch.delenv("REPRO_FULL_RECOMPUTE", raising=False)
    assert result_hash(run_experiment(FIG13A)) == FIG13A_RESULT_SHA


def test_fig13a_result_hash_pin_full_recompute(monkeypatch):
    monkeypatch.setenv("REPRO_FULL_RECOMPUTE", "1")
    assert result_hash(run_experiment(FIG13A)) == FIG13A_RESULT_SHA


def test_builder_harness_is_run_to_run_identical(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    a = run_experiment(FAST)
    b = run_experiment(FAST)
    assert result_to_dict(a) == result_to_dict(b)
    # Fault-free payloads stay schema-2 shaped: no resilience block.
    assert a.resilience is None
    assert "resilience" not in result_to_dict(a)


def test_build_replicates_historical_wiring(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    setup = ServingSetup.build(
        FAST, rng_label=f"{'-'.join(FAST.model_names)}/{FAST.policy}"
                        f"/{FAST.batch_size}")
    assert len(setup.plans) == len(FAST.model_names)
    assert len(setup.streams) == len(setup.plans)
    assert setup.guard is None and not setup.queues and not setup.workers

    _, end = measurement_window(FAST)
    for i in range(len(setup.plans)):
        setup.add_closed_loop_worker(i, stop_time=end)
    assert [w.name for w in setup.workers] == ["worker-0", "worker-1"]
    assert [q.name for q in setup.queues] == ["q0", "q1"]
    setup.sim.run(until=end)
    assert all(w.stats.completed for w in setup.workers)


def test_open_loop_shares_one_queue(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    setup = ServingSetup.build(FAST, rng_label="rate/100.0")
    setup.add_workload(HomogeneousWorkloadSpec(
        "squeezenet", PoissonArrivals(rate=25.0), batch_size=4),
        stop_time=0.5)
    assert len(setup.queues) == 1
    assert len(setup.workers) == len(FAST.model_names)
    assert all(w.queue is setup.queues[0] for w in setup.workers)


def test_rate_experiment_accepts_observability_kwargs(monkeypatch, tmp_path):
    """``run_rate_experiment`` takes the same tracer/metrics options
    as ``run_experiment`` (API alignment)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_rate_experiment(
        FAST, offered_rps=100.0, duration=0.5,
        options=RunOptions(tracer=tracer, metrics=metrics))
    assert result.achieved_rps > 0
    assert tracer.requests_traced > 0
    assert len(metrics) > 0

    plain = run_rate_experiment(FAST, offered_rps=100.0, duration=0.5)
    traced = run_rate_experiment(
        FAST, offered_rps=100.0, duration=0.5,
        options=RunOptions(tracer=Tracer(), metrics=MetricsRegistry()))
    # Observability is pure observation: results are unchanged by it.
    assert traced.achieved_rps == plain.achieved_rps
    assert traced.latency == plain.latency
    assert traced.queue_residue == plain.queue_residue


@pytest.mark.parametrize("emulated", (False, True),
                         ids=("native", "emulated"))
def test_allocator_fallbacks_reach_resilience_degraded(monkeypatch,
                                                       emulated):
    """A failing mask generator degrades every launch to the full device,
    and a guarded cell reports each of those fallbacks as degraded."""
    def broken(self, num_cus, counters, descriptor=None):
        raise RuntimeError("mask generator down")

    monkeypatch.setattr(ResourceMaskGenerator, "generate", broken)
    allocators = []

    def audit(setup, injector):
        allocators.extend({id(s.runtime.command_processor.allocator):
                           s.runtime.command_processor.allocator
                           for s in setup.streams}.values())

    result = run_experiment(
        dataclasses.replace(FAST, emulated=emulated),
        RunOptions(guard=SloGuard(deadline=0.25), audit=audit))
    (allocator,) = allocators
    assert allocator.degraded == allocator.allocations > 0
    assert result.resilience.degraded == allocator.degraded
