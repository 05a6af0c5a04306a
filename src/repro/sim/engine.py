"""Event loop for the discrete-event simulator.

The engine is deliberately minimal: events are ``(time, priority, seq)``
ordered callbacks in a priority queue.  Components schedule callbacks with
:meth:`Simulator.schedule` (absolute time) or :meth:`Simulator.schedule_in`
(relative delay) and may cancel them.  Simulated time is a float in
*seconds*.

Determinism: ties in time are broken first by an explicit integer
``priority`` (lower runs first) and then by insertion order, so a run is a
pure function of its inputs and seeds.

The queue is one binary heap.  Cancelled events are lazily deleted (they
stay in the heap until popped), which is O(1) per cancel but lets a
cancel-heavy workload — the device reschedules every affected kernel
completion on every rate change — bloat the heap with dead entries.  The
engine therefore keeps an exact count of live entries (making
:meth:`Simulator.pending` O(1)) and compacts the heap whenever cancelled
entries outnumber live ones.  Compaction only rebuilds the heap layout;
pop order is the total order ``(time, priority, seq)``, so it is
observationally invisible.

Instants: :meth:`Simulator.run` executes events one instant at a time —
all events sharing the current timestamp are drained (in priority/seq
order) before any *flush hook* runs.  A hook registered with
:meth:`Simulator.add_flush_hook` is called when the batch at the current
instant is exhausted, re-draining if it scheduled more work at the same
instant, and always before :meth:`run` returns.  ``batches_drained``
counts the instants visited — alongside ``events_executed`` it keeps
throughput reporting honest when many events share a timestamp.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Callable, Optional

from repro.obs.tracer import NULL_TRACER

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)`` so the queue pops them in
    deterministic order.  ``cancelled`` events stay queued but are
    skipped when popped (lazy deletion).

    A hand-written ``__slots__`` class rather than a dataclass: the
    constructor runs once per scheduled event — the simulator's single
    hottest allocation — and folding the owning-simulator / in-queue
    bookkeeping into ``__init__`` saves two attribute stores per event
    over the dataclass-plus-assignments shape.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "_sim", "_in_heap")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None],
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        # Owning simulator and queue-membership flag, so a cancel can
        # keep the engine's live-event count exact without a queue scan.
        self._sim = sim
        self._in_heap = sim is not None

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, cancelled={self.cancelled!r})")

    def _order(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._order() < other._order()

    def __le__(self, other: "Event") -> bool:
        return self._order() <= other._order()

    def __gt__(self, other: "Event") -> bool:
        return self._order() > other._order()

    def __ge__(self, other: "Event") -> bool:
        return self._order() >= other._order()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._order() == other._order()

    def __hash__(self) -> int:
        return hash((self.time, self.priority, self.seq))

    def cancel(self) -> None:
        """Mark the event so the engine skips it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_heap:
            self._sim._cancelled_in_heap += 1


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Typical use::

        sim = Simulator()
        sim.schedule_in(1e-3, lambda: print("1 ms later"))
        sim.run()
    """

    #: Heaps smaller than this are never compacted: below it the extra
    #: sift depth from dead entries costs less than the O(heap) rebuild,
    #: and the reschedule-churn workload would otherwise re-trigger a
    #: rebuild every few dozen cancels.
    COMPACT_MIN = 1024

    def __init__(self, tracer=None) -> None:
        # Heap entries are (time, priority, seq, event) tuples: heapq then
        # orders them with C-level tuple comparison (seq is unique, so the
        # Event element is never compared) instead of a Python __lt__ call
        # per sift step — the engine's hottest constant factor.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._cancelled_in_heap = 0
        self.events_executed = 0
        #: Number of distinct timestamps visited by :meth:`run` — the
        #: denominator that keeps events/s honest under equal-timestamp
        #: batching (many events can share one instant).
        self.batches_drained = 0
        #: Flush hooks run whenever the batch at the current instant is
        #: exhausted (and unconditionally before run() returns); see the
        #: module docstring.
        self._flush_hooks: list[Callable[[], None]] = []
        #: The observability sink instrumented components report into
        #: (``sim.tracer``).  Defaults to the no-op null tracer, so an
        #: untraced run pays one attribute read per hook site.
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)

    def attach_tracer(self, tracer):
        """Bind ``tracer`` to this simulator's clock and install it.

        Every instrumented component reached from this simulator
        (device, command processor, workers, queues) reports into
        ``sim.tracer``; the tracer timestamps records with ``sim.now``.
        Returns the tracer for chaining.
        """
        tracer.bind_clock(lambda: self._now)
        self.tracer = tracer
        return tracer

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to run at every instant boundary in run().

        Hooks may schedule new events (including at the current instant —
        the engine re-drains).  They must be idempotent at a quiescent
        point: the engine also flushes before run() returns.
        """
        self._flush_hooks.append(hook)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, self)
        heap = self._heap
        heapq.heappush(heap, (time, priority, seq, event))
        # Compaction is amortised over schedule() calls: the workload
        # that bloats the heap (cancel + reschedule churn) always pairs a
        # cancel with a new schedule, and checking here keeps cancel()
        # itself a pair of attribute writes.
        if (self._cancelled_in_heap * 2 > len(heap)
                and len(heap) >= self.COMPACT_MIN):
            self._compact()
        return event

    def schedule_in(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` after a relative non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback, priority)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def _peek_entry(self):
        """Live (time, priority, seq, event) at the heap head, or None.

        Pops cancelled entries on the way, keeping accounting exact.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                entry[3]._in_heap = False
                self._cancelled_in_heap -= 1
            else:
                return entry
        return None

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle."""
        entry = self._peek_entry()
        return entry[0] if entry is not None else None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when none remain.

        Single-stepping runs no flush hooks; those belong to :meth:`run`.
        """
        entry = self._peek_entry()
        if entry is None:
            return False
        event = self._pop()
        self._now = event.time
        self.events_executed += 1
        event.callback()
        return True

    def _pop(self) -> Event:
        """Pop the heap top, keeping the live/cancelled accounting exact."""
        event = heapq.heappop(self._heap)[3]
        event._in_heap = False
        if event.cancelled:
            self._cancelled_in_heap -= 1
        return event

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap layout."""
        live = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._in_heap = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled_in_heap = 0

    def _flush(self) -> None:
        """Run every flush hook (instant-boundary commit point)."""
        for hook in self._flush_hooks:
            hook()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the event queue drains, ``until`` passes, or ``stop()``.

        Returns the simulated time at exit.  When ``until`` is given the
        clock is advanced to ``until`` even if the queue drained earlier,
        which keeps time integration (e.g. energy) well defined.  Flush
        hooks have run by the time run() returns, whatever the exit path.

        The loop suspends the cyclic garbage collector while it runs (the
        event/callback object churn otherwise triggers thousands of
        gen-0 collections); reference counting still reclaims the
        transient objects, and the collector is restored on exit.

        ``max_events`` caps the callbacks executed (``0`` runs none); a
        negative cap raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        self._running = True
        self._stopped = False
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_heap(until, max_events)
        finally:
            try:
                self._flush()
            finally:
                self._running = False
                if gc_was_enabled:
                    # Re-enable without an eager full collect: a full
                    # pass over the millions of objects a long run
                    # leaves live costs seconds, and the collector will
                    # catch any surviving cycles on its own schedule.
                    gc.enable()
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def _run_heap(self, until: Optional[float],
                  max_events: Optional[int]) -> None:
        """The hot loop, batching by equal timestamp.

        Equivalent to ``while step(): ...`` plus flush hooks at instant
        boundaries — events still execute strictly in ``(time, priority,
        seq)`` order; only the flush points are new.
        """
        if max_events == 0:
            return
        heap = self._heap
        pop = heapq.heappop
        hooks = self._flush_hooks
        executed = 0
        batches = 0
        try:
            while not self._stopped:
                # Find the live heap head.
                while heap:
                    entry = heap[0]
                    if entry[3].cancelled:
                        pop(heap)
                        entry[3]._in_heap = False
                        self._cancelled_in_heap -= 1
                    else:
                        break
                else:
                    break
                t = entry[0]
                if until is not None and t > until:
                    break
                self._now = t
                batches += 1
                # Drain every live event at t; flush hooks between waves.
                while True:
                    pop(heap)
                    event = entry[3]
                    event._in_heap = False
                    executed += 1
                    event.callback()
                    if self._stopped or (max_events is not None
                                         and executed >= max_events):
                        return
                    while heap:
                        entry = heap[0]
                        if entry[3].cancelled:
                            pop(heap)
                            entry[3]._in_heap = False
                            self._cancelled_in_heap -= 1
                        else:
                            break
                    else:
                        entry = None
                    if entry is not None and entry[0] == t:
                        continue
                    # Instant exhausted: flush; hooks may schedule at t.
                    if hooks:
                        for hook in hooks:
                            hook()
                        entry = self._peek_entry()
                        if entry is not None and entry[0] == t:
                            continue
                    break
        finally:
            # Buffered locally during the loop (nothing reads the
            # counters mid-run).
            self.events_executed += executed
            self.batches_drained += batches

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) - self._cancelled_in_heap

    def _pending_scan(self) -> int:
        """O(queue) reference count of live events (debug cross-check for
        the O(1) counter; tests assert both agree)."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)
