"""Arrival processes: deterministic open-loop traffic generators.

Every process is a frozen dataclass — data, like
:class:`~repro.faults.schedule.FaultSchedule` events — that turns a named
RNG stream (:mod:`repro.sim.rng`) into a stream of inter-arrival *gaps*.
The gaps are drawn lazily, one per arrival, and accumulated on the sim
clock (the engine's ``now + gap`` left-fold) by the one open-loop
client, :class:`~repro.workload.client.WorkloadClient`.  A plain-rate
run is a :class:`PoissonArrivals` stream.

Kinds:

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate;
* :class:`OnOffArrivals` — bursty traffic alternating between an ON
  phase at ``on_rate`` and an OFF phase at ``off_rate`` (an exact
  piecewise-constant-rate Poisson process via memorylessness: a draw
  crossing the phase boundary is redrawn from the boundary);
* :class:`DiurnalArrivals` — a sinusoidally modulated rate (the
  day/night cycle, compressed to sim seconds) sampled exactly by
  Lewis–Shedler thinning against the peak rate;
* :class:`TraceArrivals` — replay of explicit arrival timestamps; the
  client schedules these at their *absolute* times so a replayed trace
  reproduces its input exactly (no float re-accumulation error).

All kinds serialise to JSON-native dicts under a stable ``kind`` tag
(mirroring the fault-event registry) so workload specs embedding them
can round-trip through YAML and join cache keys.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import Any, Iterator, Union

import numpy as np

from repro.server.slo import _known_fields

__all__ = [
    "ArrivalProcess",
    "DiurnalArrivals",
    "OnOffArrivals",
    "PoissonArrivals",
    "TraceArrivals",
    "arrival_from_dict",
    "arrival_kind",
    "arrival_to_dict",
]


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at ``rate`` batches per second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("arrival rate must be > 0")

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        """Inter-arrival gaps, drawn lazily: one ``exponential`` of mean
        ``1 / rate`` per arrival."""
        while True:
            yield float(rng.exponential(1.0 / self.rate))

    def mean_rate(self) -> float:
        """Long-run arrivals per second."""
        return self.rate

    def scaled(self, factor: float) -> "PoissonArrivals":
        """The same process at ``factor`` times the rate."""
        return replace(self, rate=self.rate * factor)


@dataclass(frozen=True)
class OnOffArrivals:
    """Bursty traffic: ``on_duration`` at ``on_rate``, then
    ``off_duration`` at ``off_rate``, repeating from t=0.

    An exact piecewise-constant-rate Poisson process: by memorylessness,
    a candidate gap that crosses the current phase's end is discarded
    and redrawn from the boundary at the next phase's rate.
    """

    on_rate: float
    on_duration: float
    off_duration: float
    off_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.on_rate <= 0:
            raise ValueError("on_rate must be > 0")
        if self.off_rate < 0:
            raise ValueError("off_rate must be >= 0")
        if self.on_duration <= 0 or self.off_duration <= 0:
            raise ValueError("phase durations must be > 0")

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        now = 0.0
        last = 0.0
        on = True
        phase_end = self.on_duration
        while True:
            rate = self.on_rate if on else self.off_rate
            if rate <= 0:
                now = phase_end
            else:
                candidate = now + float(rng.exponential(1.0 / rate))
                if candidate < phase_end:
                    now = candidate
                    yield now - last
                    last = now
                    continue
                now = phase_end
            on = not on
            phase_end += self.on_duration if on else self.off_duration

    def mean_rate(self) -> float:
        cycle = self.on_duration + self.off_duration
        return (self.on_rate * self.on_duration
                + self.off_rate * self.off_duration) / cycle

    def scaled(self, factor: float) -> "OnOffArrivals":
        """Both phase rates scaled; the burst timing is unchanged."""
        return replace(self, on_rate=self.on_rate * factor,
                       off_rate=self.off_rate * factor)


@dataclass(frozen=True)
class DiurnalArrivals:
    """Sinusoidally modulated rate: ``base_rate * (1 + amplitude *
    sin(2*pi*t/period + phase))``, sampled exactly by thinning."""

    base_rate: float
    amplitude: float = 0.5
    period: float = 60.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be > 0")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at sim time ``t``."""
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(
                2.0 * math.pi * t / self.period + self.phase))

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        # Lewis–Shedler thinning: homogeneous candidates at the peak
        # rate, accepted with probability rate(t)/peak.
        peak = self.base_rate * (1.0 + self.amplitude)
        now = 0.0
        last = 0.0
        while True:
            now += float(rng.exponential(1.0 / peak))
            if float(rng.random()) * peak <= self.rate_at(now):
                yield now - last
                last = now

    def mean_rate(self) -> float:
        """The sinusoid integrates to zero over a full period."""
        return self.base_rate

    def scaled(self, factor: float) -> "DiurnalArrivals":
        return replace(self, base_rate=self.base_rate * factor)


@dataclass(frozen=True)
class TraceArrivals:
    """Replay of explicit arrival timestamps (seconds, sorted)."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(self.times))
        if not self.times:
            raise ValueError("trace must contain at least one arrival")
        if any(t < 0 for t in self.times):
            raise ValueError("trace times must be >= 0")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trace times must be sorted")

    def gaps(self, rng: np.random.Generator) -> Iterator[float]:
        """Finite gap view of the trace (no RNG draws).

        Clients replay traces at absolute times instead (see
        :class:`~repro.workload.client.WorkloadClient`) so the input
        timestamps are reproduced exactly; this view exists for code
        that only consumes gap streams.
        """
        last = 0.0
        for t in self.times:
            yield t - last
            last = t

    def mean_rate(self) -> float:
        span = self.times[-1]
        return len(self.times) / span if span > 0 else float(len(self.times))

    def scaled(self, factor: float) -> "TraceArrivals":
        """Rate scaling compresses (or dilates) the timeline."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return replace(self, times=tuple(t / factor for t in self.times))


ArrivalProcess = Union[
    PoissonArrivals, OnOffArrivals, DiurnalArrivals, TraceArrivals
]

#: Stable kind tags for (de)serialisation, in a fixed registry order.
_ARRIVAL_KINDS: dict[str, type] = {
    "poisson": PoissonArrivals,
    "onoff": OnOffArrivals,
    "diurnal": DiurnalArrivals,
    "trace": TraceArrivals,
}
_KIND_OF = {cls: kind for kind, cls in _ARRIVAL_KINDS.items()}


def arrival_kind(process: ArrivalProcess) -> str:
    """Stable kind tag of one process (``poisson``, ``onoff``, ...)."""
    return _KIND_OF[type(process)]


def arrival_to_dict(process: ArrivalProcess) -> dict[str, Any]:
    """JSON-native form under a ``kind`` tag (folded into cache keys)."""
    payload = {"kind": arrival_kind(process),
               **dataclasses.asdict(process)}
    if "times" in payload:
        payload["times"] = list(payload["times"])
    return payload


def arrival_from_dict(payload: dict[str, Any]) -> ArrivalProcess:
    """Inverse of :func:`arrival_to_dict`; unknown keys are ignored
    (the ``SloGuard.from_dict`` forward-compatibility convention)."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in _ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival-process kind {kind!r}")
    cls = _ARRIVAL_KINDS[kind]
    data = _known_fields(cls, data)
    if "times" in data:
        data["times"] = tuple(data["times"])
    return cls(**data)
