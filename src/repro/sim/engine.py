"""Event loop for the discrete-event simulator.

Events are callbacks ordered by ``(time, priority, seq)``: simulated
time in *seconds*, then an explicit integer ``priority`` (lower runs
first), then insertion order.  A run is therefore a pure function of its
inputs and seeds.  Components schedule callbacks with
:meth:`Simulator.schedule` (absolute time) or :meth:`Simulator.schedule_in`
(relative delay); both return the event's seq, the handle
:meth:`Simulator.cancel` takes.

The queue is one binary heap of ``(time, priority, seq)`` tuples, and one
``seq -> callback`` map holds exactly the live events.  Cancelling drops
the seq from the map; its heap entry stays until it reaches the head,
where the loop skips it (lazy deletion).  A seq that already ran or was
already cancelled is not in the map, so a late or repeated cancel is a
no-op by construction, and :meth:`Simulator.pending` is the map's size.
The device's reschedule-on-contention churn would otherwise bloat the
heap with dead entries, so :meth:`Simulator.schedule` compacts it
whenever dead entries outnumber live ones.  Compaction only rebuilds the
heap layout; pop order is the total order ``(time, priority, seq)``, so
it is observationally invisible.

Instants: :meth:`Simulator.run` is the one pop path.  It executes events
one instant at a time — all events sharing the current timestamp are
drained (in priority/seq order) before any *flush hook* runs.  A hook
registered with :meth:`Simulator.add_flush_hook` is called when the batch
at the current instant is exhausted, re-draining if it scheduled more
work at the same instant, and always before :meth:`run` returns.
``batches_drained`` counts the instants visited — alongside
``events_executed`` it keeps throughput reporting honest when many
events share a timestamp.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Callable, Optional

from repro.obs.tracer import NULL_TRACER

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


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
        # Plain tuples, so heapq orders them with C-level comparison
        # (seq is unique, so no two entries ever tie).
        self._heap: list[tuple[float, int, int]] = []
        #: seq -> callback of every live (scheduled, not yet run or
        #: cancelled) event.
        self._callbacks: dict[int, Callable[[], None]] = {}
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
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
    ) -> int:
        """Schedule ``callback`` at absolute simulated ``time``.

        Returns the event's seq (the handle :meth:`cancel` takes).
        Raises :class:`SimulationError` if ``time`` is in the past or NaN.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = next(self._seq)
        heap = self._heap
        callbacks = self._callbacks
        heapq.heappush(heap, (time, priority, seq))
        callbacks[seq] = callback
        # Compaction is amortised over schedule() calls: the workload
        # that bloats the heap (cancel + reschedule churn) always pairs a
        # cancel with a new schedule, which keeps cancel() one dict pop.
        if len(heap) > 2 * len(callbacks) and len(heap) >= self.COMPACT_MIN:
            self._compact()
        return seq

    def schedule_in(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> int:
        """Schedule ``callback`` after a relative non-negative ``delay``."""
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay {delay}")
        return self.schedule(self._now + delay, callback, priority)

    def cancel(self, seq: int) -> None:
        """Cancel the event ``seq``; a no-op once it ran or was cancelled."""
        self._callbacks.pop(seq, None)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap layout in place
        (the run loop holds a reference to the list)."""
        callbacks = self._callbacks
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] in callbacks]
        heapq.heapify(heap)

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
        callback object churn otherwise triggers thousands of gen-0
        collections); reference counting still reclaims the transient
        objects, and the collector is restored on exit.

        ``max_events`` caps the callbacks executed (``0`` runs none); a
        negative cap or a NaN ``until`` raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        if until is not None and until != until:
            raise SimulationError("run(until=nan)")
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

        Events execute strictly in ``(time, priority, seq)`` order; flush
        hooks run at instant boundaries.
        """
        if max_events == 0:
            return
        heap = self._heap
        callbacks = self._callbacks
        pop = heapq.heappop
        take = callbacks.pop
        hooks = self._flush_hooks
        executed = 0
        batches = 0
        try:
            while not self._stopped:
                # Skip cancelled heads to the next live instant.
                while heap and heap[0][2] not in callbacks:
                    pop(heap)
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    break
                self._now = t
                batches += 1
                # Drain every event at t; flush hooks between waves.
                while True:
                    while heap and heap[0][0] == t:
                        callback = take(pop(heap)[2], None)
                        if callback is None:
                            continue  # cancelled
                        executed += 1
                        callback()
                        if self._stopped or (max_events is not None
                                             and executed >= max_events):
                            return
                    if not hooks:
                        break
                    # Instant exhausted: flush; hooks may schedule at t.
                    for hook in hooks:
                        hook()
                    while heap and heap[0][2] not in callbacks:
                        pop(heap)
                    if not heap or heap[0][0] != t:
                        break
        finally:
            # Buffered locally during the loop (nothing reads the
            # counters mid-run).
            self.events_executed += executed
            self.batches_drained += batches

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._callbacks)

    def _pending_scan(self) -> int:
        """O(queue) count of live heap entries (debug cross-check for
        :meth:`pending`; tests assert both agree)."""
        callbacks = self._callbacks
        return sum(entry[2] in callbacks for entry in self._heap)
