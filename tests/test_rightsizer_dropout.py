"""Right-sizer recovery from perf-DB dropout windows.

The bug class: the right-sizer memoised fallback (degraded) answers in
the same cache as real database hits, so once a chaos dropout emptied
the database, the stale full-device answer could shadow a recovered
entry after the outage ended.  Fallback answers now live in their own
generation-invalidated memo whose replays keep the miss accounting
(``lookups``/``misses``/``degraded``) identical to an unmemoised
lookup — so memoisation is observationally invisible, and a restore
(generation bump) brings the database answer back.
"""

import pytest

from repro.core.perfdb import PerfDatabase
from repro.core.rightsizing import KernelRightSizer
from repro.faults.schedule import FaultSchedule, PerfDbDropout
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.topology import GpuTopology
from repro.server.experiment import (
    ExperimentConfig,
    measurement_window,
    run_experiment,
)
from repro.server.options import RunOptions
from repro.server.slo import SloGuard

TOPO = GpuTopology.mi50()


def _desc(name="gemm"):
    return KernelDescriptor(name=name, workgroups=60, occupancy=1,
                            wg_duration=1e-3)


def _db(*names, min_cus=20):
    db = PerfDatabase()
    for name in names:
        db.record(_desc(name), min_cus)
    return db


# -- take/restore primitives -------------------------------------------------
def test_take_fraction_returns_the_dropped_entries():
    db = _db("a", "b", "c", "d")
    gen = db.generation
    taken = db.take_fraction(0.5)
    assert len(taken) == 2
    assert len(db) == 2
    assert db.generation == gen + 1
    # drop_fraction is take_fraction's count, same victims.
    twin = _db("a", "b", "c", "d")
    assert twin.drop_fraction(0.5) == 2
    assert dict(twin.entries()).keys() == dict(db.entries()).keys()


def test_restore_reinstates_and_bumps_generation():
    db = _db("a", "b", "c", "d")
    taken = db.take_fraction(1.0)
    assert len(db) == 0
    gen = db.generation
    db.restore(taken)
    assert len(db) == 4
    assert db.generation == gen + 1
    db.restore({})  # no-op: no phantom invalidation
    assert db.generation == gen + 1


# -- the fallback-memo regression --------------------------------------------
def test_fallback_memo_is_observationally_invisible():
    db = _db("gemm")
    sizer = KernelRightSizer(db, TOPO)
    assert sizer(_desc()) == 20

    db.take_fraction(1.0)  # the dropout
    first = sizer(_desc())
    assert first == TOPO.total_cus
    lookups, misses, degraded = db.lookups, db.misses, sizer.degraded
    # Memoised fallback replay: identical answer AND identical
    # accounting deltas to a real miss (this is what feeds the chaos
    # result hashes through ResilienceStats.degraded).
    second = sizer(_desc())
    assert second == first
    assert (db.lookups, db.misses, sizer.degraded) == (
        lookups + 1, misses + 1, degraded + 1)


def test_rightsizer_recovers_database_answer_after_restore():
    db = _db("gemm")
    sizer = KernelRightSizer(db, TOPO)
    assert sizer(_desc()) == 20
    taken = db.take_fraction(1.0)
    assert sizer(_desc()) == TOPO.total_cus  # degraded while dropped
    assert sizer(_desc()) == TOPO.total_cus  # memoised, still degraded
    db.restore(taken)
    # The failing-before assertion: a stale fallback memo must not
    # shadow the recovered entry once the generation moves.
    assert sizer(_desc()) == 20


def test_fallback_cus_path_memoises_separately_too():
    db = _db()
    sizer = KernelRightSizer(db, TOPO, fallback_cus=12)
    assert sizer(_desc()) == 12
    assert sizer(_desc()) == 12
    db.record(_desc(), 20)  # offline profiling fills the gap
    assert sizer(_desc()) == 20


# -- the schedule event ------------------------------------------------------
def test_dropout_duration_is_validated():
    with pytest.raises(ValueError):
        PerfDbDropout(time=0.1, duration=-0.1)


def test_permanent_dropout_serialises_as_before_duration_existed():
    schedule = FaultSchedule((PerfDbDropout(time=0.1, fraction=0.5),))
    (entry,) = schedule.to_dict()["events"]
    assert "duration" not in entry


def test_bounded_dropout_round_trips():
    schedule = FaultSchedule(
        (PerfDbDropout(time=0.1, fraction=0.5, duration=0.2),))
    (entry,) = schedule.to_dict()["events"]
    assert entry["duration"] == 0.2
    restored = FaultSchedule.from_dict(schedule.to_dict())
    assert restored.events == schedule.events


# -- end-to-end: the chaos regression ----------------------------------------
def test_bounded_dropout_restores_database_in_a_live_cell():
    config = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                              batch_size=4, requests_scale=0.1)
    warmup, end = measurement_window(config)
    span = end - warmup
    faults = FaultSchedule((PerfDbDropout(
        time=warmup + 0.2 * span, fraction=0.5, duration=0.3 * span),))
    sizes: dict = {}

    def audit(setup, injector):
        for stream in setup.streams:
            db = stream.rightsizer.database
            sizes[id(db)] = len(db)

    result = run_experiment(config, RunOptions(
        faults=faults, guard=SloGuard(deadline=0.25, admission_depth=8),
        audit=audit))
    # The window closed before end of run: every database is whole
    # again, yet the outage itself left degraded-lookup evidence.
    assert sizes and all(size > 0 for size in sizes.values())
    assert result.resilience is not None
    assert result.resilience.degraded > 0
    assert result.resilience.faults_injected == 1


def test_permanent_dropout_stays_degraded_for_the_whole_run():
    config = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                              batch_size=4, requests_scale=0.1)
    warmup, end = measurement_window(config)
    bounded = FaultSchedule((PerfDbDropout(
        time=warmup + 0.2 * (end - warmup), fraction=0.5,
        duration=0.3 * (end - warmup)),))
    permanent = FaultSchedule((PerfDbDropout(
        time=warmup + 0.2 * (end - warmup), fraction=0.5),))
    guard = SloGuard(deadline=0.25, admission_depth=8)
    with_recovery = run_experiment(
        config, RunOptions(faults=bounded, guard=guard))
    without = run_experiment(
        config, RunOptions(faults=permanent, guard=guard))
    # Recovery strictly reduces degraded lookups vs the permanent loss.
    assert with_recovery.resilience.degraded \
        < without.resilience.degraded
