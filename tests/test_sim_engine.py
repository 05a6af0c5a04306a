"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_priority_then_insertion():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("late"), priority=5)
    sim.schedule(1.0, lambda: order.append("early"), priority=0)
    sim.schedule(1.0, lambda: order.append("late2"), priority=5)
    sim.run()
    assert order == ["early", "late", "late2"]


def test_schedule_in_is_relative():
    sim = Simulator()
    times = []
    sim.schedule_in(1.0, lambda: times.append(sim.now))
    sim.schedule_in(1.0, lambda: sim.schedule_in(0.5, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0, 1.5]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_in(-0.1, lambda: None)


def test_nan_times_are_rejected():
    # NaN compares false with everything, so a plain ``time < now``
    # guard would let it in and leave the clock at NaN.
    sim = Simulator()
    nan = float("nan")
    with pytest.raises(SimulationError):
        sim.schedule(nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_in(nan, lambda: None)
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=nan)
    assert sim.pending() == 1
    assert sim.run() == 1.0


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    seq = sim.schedule(1.0, lambda: ran.append(1))
    sim.cancel(seq)
    sim.run()
    assert ran == []
    assert sim.events_executed == 0


def test_run_until_advances_clock_even_if_heap_drains():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_run_until_leaves_future_events_pending():
    sim = Simulator()
    ran = []
    sim.schedule(10.0, lambda: ran.append(1))
    sim.run(until=5.0)
    assert ran == []
    assert sim.pending() == 1
    sim.run()
    assert ran == [1]


def test_stop_halts_the_loop():
    sim = Simulator()
    ran = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, lambda: ran.append(1))
    sim.run()
    assert ran == []
    assert sim.now == 1.0


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=3)
    assert sim.events_executed == 3


def test_max_events_zero_runs_nothing_and_negative_raises():
    sim = Simulator()
    ran = []
    for i in range(3):
        sim.schedule(float(i), lambda i=i: ran.append(i))
    sim.run(max_events=0)
    assert ran == []
    assert sim.events_executed == 0
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=-5)
    assert ran == []
    # The rejected call left the engine usable.
    sim.run()
    assert ran == [0, 1, 2]


def test_cancelled_head_is_skipped():
    sim = Simulator()
    ran = []
    first = sim.schedule(1.0, lambda: ran.append(1.0))
    sim.schedule(2.0, lambda: ran.append(2.0))
    sim.schedule(3.0, lambda: ran.append(3.0))
    sim.cancel(first)
    sim.run(max_events=1)
    assert ran == [2.0]
    assert sim.now == 2.0
    assert sim.events_executed == 1


# -- live-event accounting and heap compaction ---------------------------

def test_pending_counter_matches_heap_scan():
    sim = Simulator()
    seqs = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
    assert sim.pending() == sim._pending_scan() == 50
    for seq in seqs[::3]:
        sim.cancel(seq)
    assert sim.pending() == sim._pending_scan() == 33
    sim.run(max_events=10)
    assert sim.pending() == sim._pending_scan() == 23
    # Double-cancel must not double-count.
    sim.cancel(seqs[-1])
    sim.cancel(seqs[-1])
    assert sim.pending() == sim._pending_scan() == 22


def test_cancel_after_execution_does_not_corrupt_the_counter():
    sim = Simulator()
    seq = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    sim.cancel(seq)
    assert sim.pending() == sim._pending_scan() == 1


def test_compaction_drops_dead_entries_and_preserves_order():
    sim = Simulator()
    order = []
    seqs = []
    for i in range(Simulator.COMPACT_MIN + 200):
        seqs.append(
            sim.schedule(float(i + 1), lambda i=i: order.append(i)))
    live = []
    for i, seq in enumerate(seqs):
        if i % 4 == 0:
            live.append(i)
        else:
            sim.cancel(seq)
    # Cancelled entries now outnumber live ones; the next schedule()
    # compacts the heap down to the survivors (plus the new event).
    sentinel = sim.schedule(1e9, lambda: order.append(-1))
    assert len(sim._heap) == len(live) + 1
    assert sim.pending() == sim._pending_scan() == len(live) + 1
    sim.cancel(sentinel)
    sim.run()
    assert order == live


def test_small_heaps_are_never_compacted():
    sim = Simulator()
    for seq in [sim.schedule(float(i + 1), lambda: None)
                for i in range(20)]:
        sim.cancel(seq)
    sim.schedule(100.0, lambda: None)
    # Below COMPACT_MIN the dead entries stay (lazy deletion only).
    assert len(sim._heap) == 21
    assert sim.pending() == sim._pending_scan() == 1


def test_compaction_inside_a_running_loop_keeps_order():
    # A callback that cancels most of a large heap and schedules again
    # compacts the heap the loop is popping from.
    sim = Simulator()
    order = []
    seqs = []

    def churn():
        for i, seq in enumerate(seqs):
            if i % 4:
                sim.cancel(seq)
        sim.schedule(0.5, lambda: order.append("new"))

    sim.schedule(0.0, churn)
    seqs.extend(sim.schedule(float(i + 1), lambda i=i: order.append(i))
                for i in range(Simulator.COMPACT_MIN + 200))
    sim.run()
    assert len(sim._heap) == sim.pending() == 0
    assert order == ["new"] + list(range(0, Simulator.COMPACT_MIN + 200, 4))
