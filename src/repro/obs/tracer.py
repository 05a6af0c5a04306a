"""Sim-clock tracer: typed spans, instants, counters, and flow events.

The tracer is the observability substrate the rest of the stack reports
into.  Components never construct trace events themselves — they call
*typed* hooks (``request_dequeued``, ``kernel_retired``,
``mask_decision``, ``barrier_injected``, ...) and the tracer turns those
into :class:`TraceRecord` entries stamped with the simulated clock it is
bound to.  Export produces Chrome Trace Event Format JSON that Perfetto
(or ``chrome://tracing``) loads directly:

* one *process* row group per stack layer (``server``, ``gpu``,
  ``runtime``, ``counters``) with one *thread* row per worker / stream /
  command processor;
* request lifecycle as complete spans (queue wait + service) on the
  worker's server row;
* kernel execution as complete spans on the worker's GPU row;
* command-processor mask-generation decisions and emulation barrier
  injections as instant events;
* **flow arrows** (``ph: s``/``f``) linking each request span to every
  kernel span it launched — the per-kernel visibility KRISP's analysis
  (paper Fig. 1/5, Algorithm 1) is built on.

Disabled tracing is the :data:`NULL_TRACER` singleton: every hook is a
no-op method and ``enabled`` is ``False``, so instrumentation sites guard
their argument construction with ``if tracer.enabled:`` and a disabled
run pays only an attribute read per hook site.

Determinism: exported traces contain no process-global identifiers —
requests and flows are renumbered in first-appearance order — so two
runs of the same seeded experiment serialise to byte-identical JSON
(pinned by ``tests/test_obs_tracer.py``).

This module depends only on the standard library (it is imported by
:mod:`repro.sim.engine`, the bottom of the stack); device, request, and
kernel objects are duck-typed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TraceRecord",
    "Tracer",
]


@dataclass
class TraceRecord:
    """One typed trace entry, timestamped in simulated seconds.

    ``kind`` is ``"span"`` (complete event with ``dur``), ``"instant"``,
    ``"counter"``, or ``"flow"`` (``flow_phase`` ``"s"``/``"f"``, paired
    by ``flow_id``).  ``process``/``thread`` name the timeline row; pids
    and tids are assigned at export time in first-appearance order.
    """

    kind: str
    process: str
    thread: str
    name: str
    ts: float
    dur: float = 0.0
    args: dict = field(default_factory=dict)
    flow_id: int = 0
    flow_phase: str = ""


class NullTracer:
    """Disabled tracing: every hook is a no-op.

    Kept deliberately free of any bookkeeping so the instrumented hot
    paths (kernel launch/retire, queue put/pop) cost one attribute read
    when tracing is off.
    """

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None: ...

    def request_arrival(self, request: Any) -> None: ...

    def request_enqueued(self, request: Any, queue_name: str) -> None: ...

    def request_dequeued(self, request: Any, worker: str) -> None: ...

    def service_phase(self, request: Any, worker: str, phase: str,
                      start: float, end: float) -> None: ...

    def request_completed(self, request: Any, worker: str) -> None: ...

    def kernel_launched(self, record: Any) -> None: ...

    def kernel_retired(self, record: Any) -> None: ...

    def mask_decision(self, launch: Any, mask: Any, device: Any) -> None: ...

    def barrier_injected(self, stream: str, kind: str,
                         kernel_name: str) -> None: ...

    def queue_depth(self, queue_name: str, depth: int) -> None: ...

    def counter_sample(self, name: str, value: float) -> None: ...

    def fault_injected(self, kind: str, args: Any = None) -> None: ...

    def fault_window(self, kind: str, start: float, end: float,
                     args: Any = None) -> None: ...

    def request_shed(self, request: Any, reason: str) -> None: ...

    def request_requeued(self, request: Any, worker: str) -> None: ...

    def worker_crashed(self, worker: str, tail: Any = None) -> None: ...

    def worker_restarted(self, worker: str) -> None: ...


#: The process-wide disabled tracer every :class:`~repro.sim.engine.
#: Simulator` starts with.
NULL_TRACER = NullTracer()


class Tracer:
    """Records typed spans, instants, counters, and request→kernel flows.

    Bind it to a simulator with
    :meth:`repro.sim.engine.Simulator.attach_tracer`; thereafter every
    instrumented component found through ``sim.tracer`` reports into it.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        self.records: list[TraceRecord] = []
        # Stable local renumbering of process-global request ids.
        self._request_local: dict[int, int] = {}
        # worker name -> (local request id, dequeue ts) for flow binding
        # at launch and in-flight span synthesis at export.
        self._active_request: dict[str, tuple[int, float]] = {}
        # launch_id -> (worker tag, local request id or None).
        self._open_kernels: dict[int, tuple[str, Optional[int]]] = {}
        self._next_flow = 0
        self.mask_decisions = 0
        self.barriers = 0
        self.requests_traced = 0
        self.kernels_traced = 0
        self.faults_traced = 0
        self.requests_shed = 0

    # -- clock -------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Read timestamps from ``clock`` (the simulator's ``now``)."""
        self._clock = clock

    @property
    def now(self) -> float:
        """Current trace timestamp in simulated seconds."""
        return self._clock()

    # -- generic recording -------------------------------------------------
    def span(self, process: str, thread: str, name: str, start: float,
             end: float, args: Optional[dict] = None) -> None:
        """Record a complete span on row (``process``, ``thread``)."""
        self.records.append(TraceRecord(
            "span", process, thread, name, start, end - start,
            args or {},
        ))

    def instant(self, process: str, thread: str, name: str,
                args: Optional[dict] = None) -> None:
        """Record an instant event at the current clock."""
        self.records.append(TraceRecord(
            "instant", process, thread, name, self.now, 0.0, args or {},
        ))

    def counter_sample(self, name: str, value: float) -> None:
        """Record one sample of a counter track at the current clock."""
        self.records.append(TraceRecord(
            "counter", "counters", name, name, self.now, 0.0,
            {"value": value},
        ))

    def _flow(self, process: str, thread: str, name: str, ts: float,
              flow_id: int, phase: str) -> None:
        self.records.append(TraceRecord(
            "flow", process, thread, name, ts, 0.0, {}, flow_id, phase,
        ))

    # -- request lifecycle (server layer) ----------------------------------
    def _local_request(self, request: Any) -> int:
        local = self._request_local.get(request.request_id)
        if local is None:
            local = len(self._request_local)
            self._request_local[request.request_id] = local
        return local

    def request_arrival(self, request: Any) -> None:
        """A client enqueued ``request`` (frontend instant)."""
        self.instant("server", "arrivals", request.model_name, {
            "request": self._local_request(request),
            "batch": request.batch_size,
        })

    def request_enqueued(self, request: Any, queue_name: str) -> None:
        """``request`` entered ``queue_name``.

        The Chrome trace already carries arrivals and queue-depth
        counters, so this hook records nothing here — it exists for the
        :class:`~repro.obs.flight.FlightRecorder`, which needs the
        per-request queue identity.  Deliberately a no-op to keep pinned
        trace exports byte-stable.
        """

    def request_dequeued(self, request: Any, worker: str) -> None:
        """``worker`` popped ``request``; emits its queue-wait span."""
        local = self._local_request(request)
        now = self.now
        self.span("server", worker, "queued", request.arrival_time, now,
                  {"request": local})
        self._active_request[worker] = (local, now)

    def service_phase(self, request: Any, worker: str, phase: str,
                      start: float, end: float) -> None:
        """A worker service phase boundary (``host_pre``/``burst``/
        ``gap``/``host_post``).

        No-op here for the same reason as :meth:`request_enqueued`: the
        request span already covers the service window in the Chrome
        view, and the phase decomposition belongs to the
        :class:`~repro.obs.flight.FlightRecorder`.
        """

    def request_completed(self, request: Any, worker: str) -> None:
        """``worker`` finished ``request``; emits its service span."""
        local = self._local_request(request)
        start = request.start_time if request.start_time is not None \
            else request.arrival_time
        self.span("server", worker, request.model_name, start, self.now, {
            "request": local,
            "batch": request.batch_size,
        })
        active = self._active_request.get(worker)
        if active is not None and active[0] == local:
            del self._active_request[worker]
        self.requests_traced += 1

    # -- kernel execution (GPU layer) --------------------------------------
    def kernel_launched(self, record: Any) -> None:
        """The device started executing a kernel (``KernelRecord``)."""
        launch = record.launch
        tag = launch.tag or "untagged"
        active = self._active_request.get(tag)
        self._open_kernels[launch.launch_id] = (
            tag, active[0] if active is not None else None,
        )

    def kernel_retired(self, record: Any) -> None:
        """The device retired a kernel: span + request→kernel flow arrow."""
        launch = record.launch
        tag, request_local = self._open_kernels.pop(
            launch.launch_id, (launch.tag or "untagged", None))
        start = record.start_time
        end = record.end_time if record.end_time is not None else self.now
        desc = launch.descriptor
        args: dict = {
            "cus": record.mask.count(),
            "per_se": list(record.mask.per_se_counts()),
            "workgroups": desc.workgroups,
            "requested_cus": launch.requested_cus,
        }
        if request_local is not None:
            args["request"] = request_local
        self.span("gpu", tag, desc.name, start, end, args)
        self.kernels_traced += 1
        if request_local is not None:
            # Arrow from the request span (worker server row, bound at
            # the kernel's dispatch time, which lies inside the span) to
            # the kernel span (worker GPU row, bound at its start).
            flow_id = self._next_flow
            self._next_flow += 1
            name = f"req{request_local}"
            self._flow("server", tag, name, start, flow_id, "s")
            self._flow("gpu", tag, name, start, flow_id, "f")

    # -- command processor / runtime ---------------------------------------
    def mask_decision(self, launch: Any, mask: Any, device: Any) -> None:
        """Resource-mask generation chose ``mask`` for ``launch``."""
        topology = device.topology
        counters = device.counters
        requested = launch.requested_cus
        if requested is None:
            requested = topology.total_cus
        granted = mask.count()
        self.instant("gpu", "command-processor", "mask-gen", {
            "kernel": launch.descriptor.name,
            "requested_cus": requested,
            "granted_cus": granted,
            "per_se": list(mask.per_se_counts()),
            "se_loads": [counters.se_load(se)
                         for se in range(topology.num_se)],
            "busy_cus": counters.busy_cus(),
            "short": granted < min(requested, topology.total_cus),
        })
        self.mask_decisions += 1

    def barrier_injected(self, stream: str, kind: str,
                         kernel_name: str) -> None:
        """The emulation path injected a barrier packet (``B1``/``B2``)."""
        self.instant("runtime", stream, kind, {"kernel": kernel_name})
        self.barriers += 1

    def queue_depth(self, queue_name: str, depth: int) -> None:
        """The request queue's depth changed (counter track)."""
        self.counter_sample(f"queue:{queue_name}", depth)

    # -- faults and SLO guard rails ------------------------------------------
    def fault_injected(self, kind: str, args: Optional[dict] = None) -> None:
        """A fault-schedule event fired (instant on the ``faults`` row)."""
        self.instant("faults", "injector", kind, args or {})
        self.faults_traced += 1

    def fault_window(self, kind: str, start: float, end: float,
                     args: Optional[dict] = None) -> None:
        """A windowed fault (straggler, spike, storm) as a span."""
        self.span("faults", "injector", kind, start, end, args or {})
        self.faults_traced += 1

    def request_shed(self, request: Any, reason: str) -> None:
        """A guard rail dropped ``request`` (``reason``: admission /
        deadline / retries)."""
        self.instant("server", "shed", reason, {
            "request": self._local_request(request),
            "model": request.model_name,
            "retries": request.retries,
        })
        self.requests_shed += 1

    def request_requeued(self, request: Any, worker: str) -> None:
        """``request`` was re-queued after ``worker`` crashed under it."""
        self.instant("server", worker, "requeued", {
            "request": self._local_request(request),
            "retries": request.retries,
        })

    def worker_crashed(self, worker: str, tail: Any = None) -> None:
        """``worker`` crashed (fault injection); ``tail`` is the
        completion signal of the last kernel its stream enqueued."""
        self.instant("server", worker, "crashed")
        active = self._active_request.get(worker)
        if active is not None:
            del self._active_request[worker]

    def worker_restarted(self, worker: str) -> None:
        """``worker`` finished reloading and is serving again."""
        self.instant("server", worker, "restarted")

    # -- export ------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Record counts by kind (for summaries and tests)."""
        out = {"span": 0, "instant": 0, "counter": 0, "flow": 0}
        for record in self.records:
            out[record.kind] += 1
        return out

    def to_chrome_trace(self) -> dict:
        """The whole trace as a Chrome Trace Event Format object."""
        pid_of: dict[str, int] = {}
        tid_of: dict[tuple[str, str], int] = {}
        events: list[dict] = []

        def row(process: str, thread: str) -> tuple[int, int]:
            pid = pid_of.get(process)
            if pid is None:
                pid = len(pid_of) + 1
                pid_of[process] = pid
                events.append({"name": "process_name", "ph": "M",
                               "pid": pid, "tid": 0,
                               "args": {"name": process}})
            key = (process, thread)
            tid = tid_of.get(key)
            if tid is None:
                tid = sum(1 for p, _t in tid_of if p == process) + 1
                tid_of[key] = tid
                events.append({"name": "thread_name", "ph": "M",
                               "pid": pid, "tid": tid,
                               "args": {"name": thread}})
            return pid, tid

        for record in self.records:
            ts = record.ts * 1e6
            if record.kind == "span":
                pid, tid = row(record.process, record.thread)
                events.append({"name": record.name, "ph": "X", "pid": pid,
                               "tid": tid, "ts": ts,
                               "dur": record.dur * 1e6,
                               "args": record.args})
            elif record.kind == "instant":
                pid, tid = row(record.process, record.thread)
                events.append({"name": record.name, "ph": "i", "s": "t",
                               "pid": pid, "tid": tid, "ts": ts,
                               "args": record.args})
            elif record.kind == "counter":
                pid, _tid = row(record.process, record.thread)
                events.append({"name": record.name, "ph": "C", "pid": pid,
                               "tid": 0, "ts": ts, "args": record.args})
            else:  # flow
                pid, tid = row(record.process, record.thread)
                event = {"name": record.name, "cat": "flow",
                         "ph": record.flow_phase, "id": record.flow_id,
                         "pid": pid, "tid": tid, "ts": ts}
                if record.flow_phase == "f":
                    event["bp"] = "e"
                events.append(event)

        # Requests still being serviced when recording stopped have no
        # completion span yet; synthesize a truncated one so their flow
        # arrows (and queue-wait spans) still have a slice to bind to.
        if self._active_request:
            end = max((r.ts + r.dur for r in self.records), default=0.0)
            for worker in sorted(self._active_request):
                local, start = self._active_request[worker]
                pid, tid = row("server", worker)
                events.append({"name": "in-flight", "ph": "X", "pid": pid,
                               "tid": tid, "ts": start * 1e6,
                               "dur": max(0.0, end - start) * 1e6,
                               "args": {"request": local,
                                        "truncated": True}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        """Write the Perfetto-loadable JSON; returns the event count."""
        payload = self.to_chrome_trace()
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))
        return len(payload["traceEvents"])
