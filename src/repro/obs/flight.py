"""Per-request flight recording: the raw material of latency attribution.

A :class:`FlightRecorder` is a tracer-protocol observer (it plugs into
``sim.tracer`` exactly like :class:`~repro.obs.tracer.Tracer`, alone or
fanned out through :class:`TeeTracer`) that captures one
:class:`RequestFlight` per request: every enqueue, every dequeue, the
worker's service-phase boundaries (host pre-processing, each kernel
burst, inter-segment gaps, host post-processing), and the execution
window plus isolated-ideal floor of every kernel the request launched.

The recorder is pure observation — it never schedules events, draws
random numbers, or mutates any simulation object — so a recorded run is
bit-identical to an unrecorded one, and when it is absent the
instrumentation sites cost one ``tracer.enabled`` attribute read
(:data:`~repro.obs.tracer.NULL_TRACER` semantics).

Timestamps are the simulator's own floats, captured once per boundary
and threaded so that consecutive phases share their boundary *bitwise*:
``host_pre.end is burst[0].start`` and so on.  That construction is what
lets :mod:`repro.obs.attribution` decompose end-to-end latency into
components that sum *exactly* (as rationals over the recorded floats —
every float is a dyadic rational, so ``fractions.Fraction`` arithmetic
on them is exact) with no tolerance.

Crash/retry semantics: each dequeue starts a new *attempt*; phase marks
of an aborted attempt are discarded on the next dequeue, and kernels are
bound to the attempt that launched them, so attribution always describes
the attempt that actually completed while ``retry_wait`` absorbs the
aborted time.  A crashed attempt's kernels still queued on its stream
run after the crash (the hardware does not crash); they are bound to no
attempt, even when they reach the device after the restarted worker has
dequeued again.  Like the tracer, this module is standard-library-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.tracer import NullTracer

__all__ = [
    "FlightRecorder",
    "KernelWindow",
    "PhaseMark",
    "RequestFlight",
    "TeeTracer",
    "compose_tracers",
]


@dataclass(frozen=True)
class KernelWindow:
    """One kernel execution window attributed to a request attempt.

    ``floor`` is the kernel's isolated-ideal latency for the mask it was
    actually granted (``KernelRecord.floor_latency``) — the time it
    would have taken with no co-resident contention, no bandwidth
    throttling, and no fault slowdown.
    """

    name: str
    start: float
    end: float
    floor: float
    attempt: int


@dataclass(frozen=True)
class PhaseMark:
    """One worker service phase: ``host_pre``/``burst``/``gap``/
    ``host_post``, with bitwise-shared boundaries."""

    phase: str
    start: float
    end: float


@dataclass
class RequestFlight:
    """The full observed timeline of one inference request."""

    index: int
    model: str
    batch_size: int
    arrival_time: float
    output_tokens: Optional[int] = None
    injected: bool = False
    #: First queue the request entered (``wl-{model}`` under the
    #: workload engine, ``q{i}``/``shared`` on the legacy paths).
    queue: str = ""
    #: ``(time, queue_name)`` per admission (retries re-enqueue).
    enqueues: list = field(default_factory=list)
    #: ``(time, worker_name)`` per dequeue; each one starts an attempt.
    dequeues: list = field(default_factory=list)
    #: Service-phase marks of the *latest* attempt only.
    phases: list = field(default_factory=list)
    #: Kernel windows across every attempt (see ``KernelWindow.attempt``).
    kernels: list = field(default_factory=list)
    completion_time: Optional[float] = None
    shed_reason: Optional[str] = None
    shed_time: Optional[float] = None
    retries: int = 0
    attempts: int = 0

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def latency(self) -> float:
        """End-to-end latency (arrival to completion), in seconds."""
        if self.completion_time is None:
            raise ValueError(f"flight {self.index} did not complete")
        return self.completion_time - self.arrival_time

    def final_kernels(self) -> list:
        """Kernel windows of the attempt that completed."""
        return [k for k in self.kernels if k.attempt == self.attempts]


class FlightRecorder(NullTracer):
    """Tracer-protocol recorder building one flight per request.

    Subclasses :class:`~repro.obs.tracer.NullTracer` so every protocol
    hook exists; only the request/kernel/phase hooks are overridden.
    Attach it as the ``recorder`` keyword of ``run_experiment`` /
    ``run_rate_experiment`` / ``ServingSetup.build`` (composable with a
    :class:`~repro.obs.tracer.Tracer` via :class:`TeeTracer`).
    """

    enabled = True

    def __init__(self) -> None:
        self._clock: Callable[[], float] = lambda: 0.0
        #: request_id -> flight (request ids are process-global; flights
        #: carry their own first-appearance ``index`` instead).
        self._flights: dict[int, RequestFlight] = {}
        self._order: list[RequestFlight] = []
        #: worker name -> in-service flight (for kernel binding).
        self._active: dict[str, RequestFlight] = {}
        #: launch_id -> (flight, attempt) bound at kernel launch.
        self._open: dict[int, tuple[RequestFlight, int]] = {}
        #: worker name -> completion signal of the last kernel a crashed
        #: attempt queued, until that kernel retires.
        self._draining: dict[str, Any] = {}

    # -- clock -------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    # -- flight store ------------------------------------------------------
    def _flight(self, request: Any) -> RequestFlight:
        flight = self._flights.get(request.request_id)
        if flight is None:
            flight = RequestFlight(
                index=len(self._order),
                model=request.model_name,
                batch_size=request.batch_size,
                arrival_time=request.arrival_time,
                output_tokens=request.output_tokens,
                injected=request.injected,
            )
            self._flights[request.request_id] = flight
            self._order.append(flight)
        return flight

    def flights(self) -> list[RequestFlight]:
        """Every observed flight, in first-appearance order."""
        return list(self._order)

    def completed_flights(self) -> list[RequestFlight]:
        """Flights that completed, in first-appearance order."""
        return [f for f in self._order if f.completed]

    def shed_flights(self) -> list[RequestFlight]:
        """Flights dropped by a guard rail, in first-appearance order."""
        return [f for f in self._order if f.shed_reason is not None]

    # -- request lifecycle -------------------------------------------------
    def request_arrival(self, request: Any) -> None:
        self._flight(request)

    def request_enqueued(self, request: Any, queue_name: str) -> None:
        flight = self._flight(request)
        flight.enqueues.append((self.now, queue_name))
        if not flight.queue:
            flight.queue = queue_name

    def request_dequeued(self, request: Any, worker: str) -> None:
        flight = self._flight(request)
        flight.attempts += 1
        flight.dequeues.append((self.now, worker))
        flight.retries = request.retries
        # A fresh attempt invalidates any marks from an aborted one.
        flight.phases = []
        self._active[worker] = flight

    def service_phase(self, request: Any, worker: str, phase: str,
                      start: float, end: float) -> None:
        self._flight(request).phases.append(PhaseMark(phase, start, end))

    def request_completed(self, request: Any, worker: str) -> None:
        flight = self._flight(request)
        flight.completion_time = request.completion_time \
            if request.completion_time is not None else self.now
        active = self._active.get(worker)
        if active is flight:
            del self._active[worker]

    def request_shed(self, request: Any, reason: str) -> None:
        flight = self._flight(request)
        flight.shed_reason = reason
        flight.shed_time = self.now
        flight.retries = request.retries

    def request_requeued(self, request: Any, worker: str) -> None:
        self._flight(request).retries = request.retries

    def worker_crashed(self, worker: str, tail: Any = None) -> None:
        self._active.pop(worker, None)
        # The worker's stream runs in order: until ``tail`` retires,
        # every kernel it launches was queued by the crashed attempt.
        if tail is not None and not tail.fired:
            self._draining[worker] = tail

    # -- kernel execution --------------------------------------------------
    def kernel_launched(self, record: Any) -> None:
        launch = record.launch
        worker = launch.tag or ""
        if worker in self._draining:
            return
        flight = self._active.get(worker)
        if flight is not None:
            self._open[launch.launch_id] = (flight, flight.attempts)

    def kernel_retired(self, record: Any) -> None:
        launch = record.launch
        draining = self._draining
        if draining and draining.get(launch.tag or "") is record.done:
            del draining[launch.tag or ""]
        bound = self._open.pop(launch.launch_id, None)
        if bound is None:
            return
        flight, attempt = bound
        end = record.end_time if record.end_time is not None else self.now
        flight.kernels.append(KernelWindow(
            name=launch.descriptor.name,
            start=record.start_time,
            end=end,
            floor=record.floor_latency,
            attempt=attempt,
        ))


class TeeTracer:
    """Fan one instrumentation stream out to several tracer-protocol
    observers (e.g. a :class:`~repro.obs.tracer.Tracer` *and* a
    :class:`FlightRecorder` on the same run).

    Hook methods are synthesized on first use and cached; each fans the
    call out to every live observer in construction order.
    """

    enabled = True

    def __init__(self, *tracers: Any) -> None:
        self._tracers = tuple(
            t for t in tracers
            if t is not None and getattr(t, "enabled", False))

    def bind_clock(self, clock: Callable[[], float]) -> None:
        for tracer in self._tracers:
            tracer.bind_clock(clock)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        targets = [getattr(tracer, name) for tracer in self._tracers]

        def fan_out(*args: Any, **kwargs: Any) -> None:
            for target in targets:
                target(*args, **kwargs)

        fan_out.__name__ = name
        setattr(self, name, fan_out)
        return fan_out


def compose_tracers(*tracers: Any) -> Optional[Any]:
    """The cheapest tracer covering every live observer.

    ``None`` and disabled tracers are dropped; zero live observers
    composes to ``None`` (the caller keeps :data:`~repro.obs.tracer
    .NULL_TRACER` semantics), one passes through unchanged, several tee.
    """
    live = [t for t in tracers
            if t is not None and getattr(t, "enabled", False)]
    if not live:
        return None
    if len(live) == 1:
        return live[0]
    return TeeTracer(*live)
