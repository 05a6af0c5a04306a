"""Flight recorder: purity (bit-identity), capture shape, composition.

The load-bearing contract is the differential one: attaching a
:class:`~repro.obs.flight.FlightRecorder` — alone or tee'd with the
Chrome tracer — must leave the experiment result *and* the tracer's
exported trace byte-identical.  The fig13a result-sha pin is asserted
with the recorder on to prove it.
"""

from fractions import Fraction

from repro.exp.cache import result_hash
from repro.obs.flight import FlightRecorder, TeeTracer, compose_tracers
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.server.options import RunOptions

#: Same pin as tests/test_serving_setup.py / tests/test_workload_load.py.
FIG13A = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                          batch_size=32, seed=0, requests_scale=0.5)
FIG13A_RESULT_SHA = (
    "586c866e8d4b92e20d04807e15adf3e875a658afdd5b75efc7161732ebb6ee5f")

SMALL = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                         batch_size=8, seed=0, requests_scale=0.25)


# -- purity ------------------------------------------------------------------

def test_recorder_leaves_result_hash_byte_identical():
    recorder = FlightRecorder()
    recorded = run_experiment(FIG13A, RunOptions(recorder=recorder))
    assert result_hash(recorded) == FIG13A_RESULT_SHA
    assert recorder.completed_flights()


def test_tee_with_tracer_leaves_trace_bytes_identical(tmp_path):
    alone = Tracer()
    run_experiment(SMALL, RunOptions(tracer=alone))
    alone_path = tmp_path / "alone.json"
    alone.write_chrome_trace(alone_path)

    teed = Tracer()
    recorder = FlightRecorder()
    run_experiment(SMALL, RunOptions(tracer=teed, recorder=recorder))
    teed_path = tmp_path / "teed.json"
    teed.write_chrome_trace(teed_path)

    assert alone_path.read_bytes() == teed_path.read_bytes()
    assert recorder.completed_flights()


# -- capture shape -----------------------------------------------------------

def test_recorder_captures_full_flight_timeline():
    recorder = FlightRecorder()
    run_experiment(SMALL, RunOptions(recorder=recorder))
    flights = recorder.completed_flights()
    assert flights
    for flight in flights:
        assert flight.model == "squeezenet"
        assert flight.batch_size == 8
        assert flight.queue.startswith("q")
        assert flight.attempts == 1 and flight.retries == 0
        assert len(flight.enqueues) == 1 and len(flight.dequeues) == 1
        # Phases tile the service interval with bitwise-shared bounds.
        assert flight.phases[0].phase == "host_pre"
        assert flight.phases[-1].phase == "host_post"
        assert flight.phases[0].start == flight.dequeues[0][0]
        assert flight.phases[-1].end == flight.completion_time
        for left, right in zip(flight.phases, flight.phases[1:]):
            assert left.end == right.start
        # Every final-attempt kernel window sits inside some burst.
        kernels = flight.final_kernels()
        assert kernels
        bursts = [p for p in flight.phases if p.phase == "burst"]
        for kernel in kernels:
            assert any(p.start <= kernel.start and kernel.end <= p.end
                       for p in bursts)
            assert kernel.floor > 0


def test_recorder_tracks_sheds_and_retries_under_chaos():
    from repro.check.scenarios import CHAOS_CONFIG, CHAOS_GUARD, chaos_faults

    recorder = FlightRecorder()
    plain = run_experiment(
        CHAOS_CONFIG, RunOptions(faults=chaos_faults(CHAOS_CONFIG),
                                 guard=CHAOS_GUARD))
    recorded = run_experiment(
        CHAOS_CONFIG, RunOptions(recorder=recorder,
                                 faults=chaos_faults(CHAOS_CONFIG),
                                 guard=CHAOS_GUARD))
    assert result_hash(plain) == result_hash(recorded)

    flights = recorder.flights()
    completed = recorder.completed_flights()
    shed = recorder.shed_flights()
    assert completed and shed
    # Every observed flight is disposed of at most once.
    assert not [f for f in flights if f.completed and f.shed_reason]
    assert {f.shed_reason for f in shed} <= {"admission", "deadline",
                                             "retries"}
    # Resilience accounting and the recorder agree on shed counts.
    assert len(shed) == recorded.resilience.shed
    # Exact conservation holds for every completed flight even here.
    from repro.obs.attribution import decompose
    for flight in completed:
        parts = decompose(flight)
        latency = (Fraction(flight.completion_time)
                   - Fraction(flight.arrival_time))
        assert sum(parts.values(), Fraction(0)) == latency
        assert all(value >= 0 for value in parts.values())


# -- composition -------------------------------------------------------------

def test_compose_tracers_edge_cases():
    recorder = FlightRecorder()
    tracer = Tracer()
    assert compose_tracers() is None
    assert compose_tracers(None, None) is None
    assert compose_tracers(None, recorder) is recorder
    assert compose_tracers(NULL_TRACER, recorder) is recorder
    composed = compose_tracers(tracer, recorder)
    assert isinstance(composed, TeeTracer)
    assert composed.enabled


def test_tee_tracer_fans_out_hooks():
    seen = []

    class Probe:
        enabled = True

        def bind_clock(self, clock):
            seen.append(("bind", clock))

        def queue_depth(self, name, depth):
            seen.append((name, depth))

    first, second = Probe(), Probe()
    tee = TeeTracer(first, second)
    clock = lambda: 1.0  # noqa: E731
    tee.bind_clock(clock)
    tee.queue_depth("q0", 3)
    assert seen == [("bind", clock), ("bind", clock), ("q0", 3), ("q0", 3)]
