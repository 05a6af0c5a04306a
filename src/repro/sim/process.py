"""Generator-based processes and signals on top of the event engine.

A :class:`Process` wraps a Python generator that ``yield``s either a float
(sleep for that many simulated seconds) or a :class:`Signal` (block until
the signal fires).  This gives sequential-looking code (workers, clients)
without inverting everything into callbacks.

:class:`Signal` mirrors HSA completion signals: one-shot by default, with
``wait()`` used from inside a process and ``on_fire`` callbacks for
callback-style consumers.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Union

from repro.sim.engine import Simulator

__all__ = ["Process", "Signal"]

Yieldable = Union[float, int, "Signal"]


class Signal:
    """A one-shot event other components can wait on.

    Mirrors an HSA signal: it starts unfired, ``fire(value)`` wakes every
    waiter exactly once, and late waiters resume immediately.  Slotted:
    one is allocated per kernel launch.
    """

    __slots__ = ("_sim", "name", "fired", "value", "_waiters")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all current waiters this instant."""
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            # Waiters run as fresh events so firing inside an event handler
            # does not grow the Python stack unboundedly.
            self._sim.schedule(self._sim.now, lambda w=waiter: w(value))

    def on_fire(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when (or if already) fired."""
        if self.fired:
            self._sim.schedule(self._sim.now, lambda: callback(self.value))
        else:
            self._waiters.append(callback)


class Process:
    """Drives a generator as a cooperative simulated process.

    The generator may yield:

    * a non-negative number — sleep that many simulated seconds;
    * a :class:`Signal` — block until it fires; ``signal.value`` is sent
      back into the generator as the result of the ``yield``.

    ``done`` is itself a :class:`Signal`, fired with the generator's return
    value, so processes compose (a process can wait on another's ``done``).
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Yieldable, Any, Any],
        name: str = "",
    ) -> None:
        self._sim = sim
        self._gen = generator
        self.name = name
        self.done = Signal(sim, name=f"{name}.done")
        sim.schedule(sim.now, lambda: self._advance(None))

    def _advance(self, send_value: Any) -> None:
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.done.fire(stop.value)
            return
        if isinstance(yielded, Signal):
            yielded.on_fire(self._advance)
        elif isinstance(yielded, (int, float)):
            self._sim.schedule_in(float(yielded), lambda: self._advance(None))
        else:
            raise TypeError(
                f"process {self.name!r} yielded {yielded!r}; expected a "
                "delay in seconds or a Signal"
            )
