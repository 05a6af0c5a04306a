"""Tests for the fault-injection layer (repro.faults + SLO guard rails).

The layer's core promises:

* a fault-injected cell is exactly as deterministic and cacheable as a
  fault-free one — serial, pooled, and cache-served runs are
  bit-identical;
* every fault kind degrades gracefully: crashes restart, missing perf-DB
  entries fall back to the model-wise right-size, bursts shed instead of
  queueing unboundedly — all without unhandled exceptions, all counted.
"""

import dataclasses

import pytest

from repro.core.perfdb import PerfDatabase
from repro.exp.sweep import run_sweep
from repro.faults import (
    BandwidthSpike,
    FaultSchedule,
    KernelStraggler,
    PerfDbDropout,
    ReloadCostModel,
    RequestStorm,
    WorkerCrash,
)
from repro.gpu.kernel import KernelDescriptor
from repro.server.experiment import (
    ExperimentConfig,
    measurement_window,
    run_experiment,
)
from repro.server.slo import ResilienceStats, SloGuard
from repro.server.options import RunOptions

#: Small, fast cell reused by every integration test here.
CONFIG = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=4, requests_scale=0.25)
GUARD = SloGuard(admission_depth=8, deadline=0.05, max_retries=2)


def _mixed_schedule(config: ExperimentConfig) -> FaultSchedule:
    warmup, end = measurement_window(config)
    span = end - warmup
    return FaultSchedule(events=(
        WorkerCrash(time=warmup + 0.30 * span, worker=0),
        KernelStraggler(start=warmup + 0.20 * span, duration=0.30 * span,
                        multiplier=4.0),
        BandwidthSpike(start=warmup + 0.20 * span, duration=0.30 * span,
                       demand=1.5),
        RequestStorm(start=warmup + 0.25 * span, duration=0.20 * span,
                     count=16),
        PerfDbDropout(time=warmup + 0.10 * span, fraction=0.25),
    ), seed=config.seed)


# -- schedules as data --------------------------------------------------------

def test_schedule_roundtrips_through_dict():
    schedule = _mixed_schedule(CONFIG)
    clone = FaultSchedule.from_dict(schedule.to_dict())
    assert clone == schedule
    assert clone.to_dict() == schedule.to_dict()


def test_schedule_generate_is_seed_deterministic():
    a = FaultSchedule.generate(7, 0.1, 1.0, workers=2, storms=1,
                               dropout_fraction=0.2)
    b = FaultSchedule.generate(7, 0.1, 1.0, workers=2, storms=1,
                               dropout_fraction=0.2)
    assert a == b
    assert a != FaultSchedule.generate(8, 0.1, 1.0, workers=2, storms=1,
                                       dropout_fraction=0.2)


def test_schedule_rejects_invalid_events():
    with pytest.raises(ValueError):
        KernelStraggler(start=0.1, duration=0.1, multiplier=1.0)
    with pytest.raises(ValueError):
        PerfDbDropout(time=0.1, fraction=0.0)
    with pytest.raises(ValueError):
        ReloadCostModel(base=-1.0)


def test_drop_fraction_is_deterministic_and_order_independent():
    def build(order):
        db = PerfDatabase()
        for i in order:
            db.record(KernelDescriptor(name=f"k{i}", workgroups=i + 1,
                                       bytes_in=64 * (i + 1)), 8)
        return db

    forward, backward = build(range(12)), build(reversed(range(12)))
    assert forward.drop_fraction(0.25, seed=3) == 3
    assert backward.drop_fraction(0.25, seed=3) == 3
    assert sorted(k.encode() for k, _ in forward.entries()) \
        == sorted(k.encode() for k, _ in backward.entries())


# -- determinism across execution paths ---------------------------------------

def test_fault_injected_runs_are_bit_identical(monkeypatch, tmp_path):
    """Serial, pooled, and cache-served fault runs agree field-for-field."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    schedule = _mixed_schedule(CONFIG)

    serial = run_experiment(CONFIG,
                            RunOptions(faults=schedule, guard=GUARD))
    pooled = run_sweep([CONFIG], jobs=2,
                       options=RunOptions(faults=schedule, guard=GUARD))
    assert pooled.ok and pooled.ran == 1
    warm = run_sweep([CONFIG], jobs=2,
                     options=RunOptions(faults=schedule, guard=GUARD))
    assert warm.ok and warm.cached == 1 and warm.ran == 0

    for report in (pooled, warm):
        other = report.result(CONFIG)
        assert other.workers == serial.workers
        assert other.total_rps == serial.total_rps
        assert other.energy_joules == serial.energy_joules
        assert other.resilience == serial.resilience
    assert serial.resilience.faults_injected == len(schedule)


def test_fault_key_is_disjoint_from_fault_free_key(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.exp.cache import cache_key
    schedule = _mixed_schedule(CONFIG)
    plain = cache_key(CONFIG)
    assert cache_key(CONFIG, faults=schedule) != plain
    assert cache_key(CONFIG, guard=GUARD) != plain
    assert cache_key(CONFIG, faults=schedule, guard=GUARD) \
        != cache_key(CONFIG, faults=schedule)


# -- graceful degradation ------------------------------------------------------

def test_crash_and_dropout_complete_with_counters(monkeypatch, tmp_path):
    """A crash plus a perf-DB dropout finishes the run — no exception —
    while the result reports what happened."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    warmup, end = measurement_window(CONFIG)
    span = end - warmup
    schedule = FaultSchedule(events=(
        WorkerCrash(time=warmup + 0.3 * span, worker=0),
        PerfDbDropout(time=warmup + 0.1 * span, fraction=0.5),
    ), seed=0)
    result = run_experiment(CONFIG,
                            RunOptions(faults=schedule, guard=GUARD))
    res = result.resilience
    assert res is not None
    assert res.crashes == 1 and res.restarts == 1
    assert res.degraded > 0  # dropped entries served via fallback
    assert res.faults_injected == 2
    assert result.total_rps > 0


def test_straggler_and_spike_perturb_the_timeline(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    warmup, end = measurement_window(CONFIG)
    span = end - warmup
    base = run_experiment(CONFIG)
    straggle = run_experiment(CONFIG, RunOptions(
        faults=FaultSchedule(events=(
            KernelStraggler(start=warmup + 0.2 * span, duration=0.3 * span,
                            multiplier=4.0),)),
        guard=GUARD))
    spike = run_experiment(CONFIG, RunOptions(
        faults=FaultSchedule(events=(
            BandwidthSpike(start=warmup + 0.2 * span, duration=0.3 * span,
                           demand=1.5),)),
        guard=GUARD))
    assert straggle.max_p95() > base.max_p95()
    assert spike.max_p95() > base.max_p95()


def test_shed_requests_skip_latency_but_are_counted(monkeypatch, tmp_path):
    """An aggressive deadline sheds work: shed requests never enter the
    latency distribution, yet the resilience block accounts for them and
    goodput only credits deadline-met completions."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    warmup, end = measurement_window(CONFIG)
    span = end - warmup
    tight = SloGuard(admission_depth=1, deadline=2e-3, max_retries=1)
    storm = FaultSchedule(events=(
        RequestStorm(start=warmup + 0.1 * span, duration=0.5 * span,
                     count=64),))
    result = run_experiment(CONFIG,
                            RunOptions(faults=storm, guard=tight))
    res = result.resilience
    assert res is not None
    assert res.shed > 0
    assert res.shed == res.shed_admission + res.shed_deadline \
        + res.shed_retries
    # Latency stats cover only genuinely served requests.
    for worker in result.workers:
        assert worker.latency.count == worker.requests_completed
    # Goodput never exceeds raw throughput and reflects the deadline.
    assert 0.0 <= res.goodput_rps <= result.total_rps


def test_guard_alone_reports_resilience(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result = run_experiment(CONFIG, RunOptions(guard=GUARD))
    res = result.resilience
    assert res is not None
    assert res.shed == res.retried == res.crashes == 0
    assert res.goodput_rps == pytest.approx(result.total_rps)


def test_resilience_stats_roundtrip():
    stats = ResilienceStats(shed_admission=3, shed_deadline=1,
                            shed_retries=2, retried=4, degraded=7,
                            crashes=1, restarts=1, faults_injected=5,
                            goodput_rps=123.5)
    assert ResilienceStats.from_dict(stats.to_dict()) == stats
    assert stats.shed == 6
    assert dataclasses.asdict(stats) == stats.to_dict()


def test_from_dict_ignores_unknown_keys():
    """Payloads from newer writers (extra fields) still load: both
    serialisable guard-rail types filter to their known fields."""
    guard = SloGuard(admission_depth=8, deadline=0.25, max_retries=2)
    payload = guard.to_dict()
    payload["future_knob"] = 42
    payload["another"] = {"nested": True}
    assert SloGuard.from_dict(payload) == guard

    stats = ResilienceStats(shed_admission=3, retried=4, goodput_rps=9.5)
    stats_payload = stats.to_dict()
    stats_payload["not_a_field"] = "ignored"
    assert ResilienceStats.from_dict(stats_payload) == stats
