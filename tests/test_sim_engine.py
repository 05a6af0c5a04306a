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


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    event = sim.schedule(1.0, lambda: ran.append(1))
    event.cancel()
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


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=3)
    assert sim.events_executed == 3


def test_peek_skips_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert sim.peek() == 2.0


# -- live-event accounting and heap compaction ---------------------------

def test_pending_counter_matches_heap_scan():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
    assert sim.pending() == sim._pending_scan() == 50
    for event in events[::3]:
        event.cancel()
    assert sim.pending() == sim._pending_scan()
    sim.run(max_events=10)
    assert sim.pending() == sim._pending_scan()
    # Double-cancel must not double-count.
    events[0].cancel()
    events[0].cancel()
    assert sim.pending() == sim._pending_scan()


def test_cancel_after_execution_does_not_corrupt_the_counter():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    event.cancel()
    assert sim._cancelled_in_heap == 0
    assert sim.pending() == sim._pending_scan() == 0


def test_compaction_drops_dead_entries_and_preserves_order():
    sim = Simulator()
    order = []
    events = []
    for i in range(Simulator.COMPACT_MIN + 200):
        events.append(
            sim.schedule(float(i + 1), lambda i=i: order.append(i)))
    live = []
    for i, event in enumerate(events):
        if i % 4 == 0:
            live.append(i)
        else:
            event.cancel()
    # Cancelled entries now outnumber live ones; the next schedule()
    # compacts the heap down to the survivors (plus the new event).
    sentinel = sim.schedule(1e9, lambda: order.append(-1))
    assert len(sim._heap) == len(live) + 1
    assert sim._cancelled_in_heap == 0
    assert sim.pending() == sim._pending_scan() == len(live) + 1
    sentinel.cancel()
    sim.run()
    assert order == live


def test_small_heaps_are_never_compacted():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
    for event in events:
        event.cancel()
    sim.schedule(100.0, lambda: None)
    # Below COMPACT_MIN the dead entries stay (lazy deletion only).
    assert len(sim._heap) == 21
    assert sim.pending() == sim._pending_scan() == 1
