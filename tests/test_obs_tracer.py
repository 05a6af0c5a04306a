"""Tests for the sim-clock tracer: hooks, export, flows, determinism."""

import json

import pytest

from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.server.options import RunOptions
from repro.sim.engine import Simulator

#: One small, fast co-location cell exercising every hook site.
CELL = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                       batch_size=4, requests_scale=0.1)


def _traced_run(config=CELL):
    tracer = Tracer()
    run_experiment(config, RunOptions(tracer=tracer))
    return tracer


# -- disabled tracing --------------------------------------------------------

def test_simulator_defaults_to_null_tracer():
    assert Simulator().tracer is NULL_TRACER
    assert NULL_TRACER.enabled is False


def test_null_tracer_hooks_are_no_ops():
    null = NullTracer()
    null.bind_clock(lambda: 0.0)
    null.request_arrival(object())
    null.request_dequeued(object(), "w")
    null.request_completed(object(), "w")
    null.kernel_launched(object())
    null.kernel_retired(object())
    null.mask_decision(object(), object(), object())
    null.barrier_injected("s", "B1", "k")
    null.queue_depth("q", 3)
    null.counter_sample("c", 1.0)
    assert not hasattr(null, "records")


def test_untraced_run_matches_traced_run():
    plain = run_experiment(CELL)
    traced = run_experiment(CELL, RunOptions(tracer=Tracer()))
    assert plain.workers == traced.workers
    assert plain.total_rps == traced.total_rps
    assert plain.energy_joules == traced.energy_joules


# -- generic recording / export ---------------------------------------------

def test_span_instant_counter_export_shapes():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])
    tracer.span("gpu", "w0", "conv", 1e-3, 3e-3, {"cus": 30})
    clock[0] = 2e-3
    tracer.instant("gpu", "cp", "mask-gen", {"granted_cus": 30})
    tracer.counter_sample("occupancy", 30)
    events = tracer.to_chrome_trace()["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    # process_name for gpu + counters, thread_name for w0/cp/occupancy rows.
    assert {m["name"] for m in metas} == {"process_name", "thread_name"}
    span = next(e for e in events if e["ph"] == "X")
    assert span["ts"] == pytest.approx(1e3)  # microseconds
    assert span["dur"] == pytest.approx(2e3)
    assert span["args"] == {"cus": 30}
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["ts"] == pytest.approx(2e3)
    assert instant["s"] == "t"
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["args"] == {"value": 30}


def test_clock_binding_stamps_instants():
    sim = Simulator()
    tracer = sim.attach_tracer(Tracer())
    sim.schedule(5e-3, lambda: tracer.instant("gpu", "t", "tick"))
    sim.run()
    assert tracer.records[-1].ts == pytest.approx(5e-3)


# -- full experiment traces --------------------------------------------------

def test_flow_events_link_requests_to_kernels():
    tracer = _traced_run()
    trace = tracer.to_chrome_trace()
    events = trace["traceEvents"]
    pid_of = {e["args"]["name"]: e["pid"] for e in events
              if e.get("name") == "process_name"}
    assert {"server", "gpu"} <= set(pid_of)

    starts = [e for e in events if e.get("ph") == "s"]
    finishes = [e for e in events if e.get("ph") == "f"]
    assert starts and len(starts) == len(finishes)
    # Every flow id pairs exactly one start with one finish.
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    assert all(e["bp"] == "e" for e in finishes)
    # One arrow per traced kernel, every kernel bound to a request.
    assert len(starts) == tracer.kernels_traced

    server_spans = [e for e in events
                    if e.get("ph") == "X" and e["pid"] == pid_of["server"]]
    gpu_spans = [e for e in events
                 if e.get("ph") == "X" and e["pid"] == pid_of["gpu"]]
    assert tracer.requests_traced > 0
    assert len(gpu_spans) == tracer.kernels_traced

    def covered(spans, ev):
        return any(s["tid"] == ev["tid"]
                   and s["ts"] <= ev["ts"] <= s["ts"] + s["dur"]
                   for s in spans)

    # Arrow tails sit inside a request span on the worker's server row;
    # arrow heads sit at a kernel span start on the worker's GPU row.
    assert all(e["pid"] == pid_of["server"] and covered(server_spans, e)
               for e in starts)
    assert all(e["pid"] == pid_of["gpu"] and covered(gpu_spans, e)
               for e in finishes)


def test_mask_decisions_recorded_under_krisp():
    tracer = _traced_run()
    assert tracer.mask_decisions > 0
    decisions = [r for r in tracer.records
                 if r.kind == "instant" and r.name == "mask-gen"]
    assert len(decisions) == tracer.mask_decisions
    args = decisions[0].args
    assert {"kernel", "requested_cus", "granted_cus", "per_se",
            "se_loads", "busy_cus", "short"} <= set(args)
    assert sum(args["per_se"]) == args["granted_cus"]


def test_barriers_recorded_on_emulated_path():
    import dataclasses
    tracer = _traced_run(dataclasses.replace(CELL, emulated=True,
                                             requests_scale=0.05))
    assert tracer.barriers > 0
    kinds = {r.name for r in tracer.records
             if r.kind == "instant" and r.process == "runtime"}
    assert kinds == {"B1", "B2"}


def test_queue_depth_counter_track():
    tracer = _traced_run()
    queue_records = [r for r in tracer.records
                     if r.kind == "counter"
                     and r.name.startswith("queue:")]
    assert queue_records
    assert {r.name for r in queue_records} == {"queue:q0", "queue:q1"}


def test_trace_json_is_deterministic_across_runs(tmp_path):
    paths = []
    for i in range(2):
        tracer = _traced_run()
        path = tmp_path / f"t{i}.json"
        count = tracer.write_chrome_trace(path)
        assert count == len(tracer.to_chrome_trace()["traceEvents"])
        paths.append(path)
    # Same seed, fresh tracers: byte-identical despite the process-global
    # request/launch id counters having advanced between the two runs.
    assert paths[0].read_bytes() == paths[1].read_bytes()
    json.loads(paths[0].read_text())  # and it parses
