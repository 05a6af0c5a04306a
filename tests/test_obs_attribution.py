"""Latency attribution: exact decomposition, cohorts, metrics export.

The centrepiece is the hypothesis property: under random fault-churned
programs (crashes, stragglers, bandwidth spikes, storms, guard rails)
every completed flight decomposes into non-negative components that sum
*exactly* — Fraction arithmetic, zero tolerance — to its end-to-end
latency, and the tail/body cohort partition conserves every component.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.schedule import (
    BandwidthSpike,
    FaultSchedule,
    KernelStraggler,
    RequestStorm,
    WorkerCrash,
)
from repro.obs.attribution import (
    COMPONENTS,
    decompose,
    diagnose,
    exact_cohorts,
    export_attribution_metrics,
    phase_split,
    render_markdown_report,
    summarize,
)
from repro.obs.flight import FlightRecorder, KernelWindow, PhaseMark, \
    RequestFlight
from repro.obs.metrics import MetricsRegistry
from repro.server.options import RunOptions
from repro.server.experiment import ExperimentConfig, measurement_window, \
    run_experiment
from repro.server.slo import SloGuard

SMALL = ExperimentConfig(("squeezenet",) * 2, policy="krisp-i",
                         batch_size=8, seed=0, requests_scale=0.25)


# -- synthetic flights -------------------------------------------------------

def completed_flight():
    """All-dyadic synthetic flight with known component values."""
    flight = RequestFlight(index=0, model="squeezenet", batch_size=4,
                           arrival_time=0.0)
    flight.queue = "shared"
    flight.enqueues = [(0.0, "shared")]
    flight.dequeues = [(0.25, "worker-0")]
    flight.phases = [PhaseMark("host_pre", 0.25, 0.5),
                     PhaseMark("burst", 0.5, 1.0),
                     PhaseMark("host_post", 1.0, 1.25)]
    flight.kernels = [KernelWindow("conv1", 0.5, 0.875, floor=0.25,
                                   attempt=1)]
    flight.attempts = 1
    flight.completion_time = 1.25
    return flight


def shed_flight():
    flight = RequestFlight(index=1, model="squeezenet", batch_size=4,
                           arrival_time=0.5)
    flight.shed_reason = "admission"
    flight.shed_time = 0.5
    return flight


def test_decompose_known_values():
    parts = decompose(completed_flight())
    assert parts == {
        "queue_wait": Fraction(1, 4),
        "retry_wait": Fraction(0),
        "host_pre": Fraction(1, 4),
        "gpu_ideal": Fraction(1, 4),
        "interference": Fraction(1, 8),
        "dispatch_overhead": Fraction(1, 8),
        "phase_gap": Fraction(0),
        "host_post": Fraction(1, 4),
    }
    assert sum(parts.values(), Fraction(0)) == Fraction(5, 4)


def test_decompose_rejects_phase_gap_in_tiling():
    flight = completed_flight()
    flight.phases[1] = PhaseMark("burst", 0.5625, 1.0)  # hole after pre
    with pytest.raises(ValueError):
        decompose(flight)


def test_decompose_rejects_kernels_exceeding_burst():
    flight = completed_flight()
    flight.kernels = [KernelWindow("conv1", 0.5, 1.25, floor=0.25,
                                   attempt=1)]
    with pytest.raises(ValueError):
        decompose(flight)


def test_gpu_ideal_clamped_to_wall_at_ulp_level():
    flight = completed_flight()
    # Floor exceeds the observed wall (the device's float rounding can
    # land a window a few ulps under its floor): ideal is clamped so
    # interference stays exactly zero, never negative.
    flight.kernels = [KernelWindow("conv1", 0.5, 0.875, floor=0.5,
                                   attempt=1)]
    parts = decompose(flight)
    assert parts["gpu_ideal"] == Fraction(3, 8)
    assert parts["interference"] == 0
    assert sum(parts.values(), Fraction(0)) == Fraction(5, 4)


def test_summarize_and_markdown_on_synthetic_population():
    summary = summarize([completed_flight(), shed_flight()])
    assert summary["requests"] == 1
    assert summary["shed"] == {"total": 1, "by_reason": {"admission": 1}}
    assert summary["per_queue"].keys() == {"shared"}
    assert summary["diagnosis"] in {"queueing-dominated",
                                    "contention-dominated",
                                    "service-dominated"}
    shares = summary["population"]["shares"]
    assert shares["queue_wait"] == pytest.approx(0.2)
    markdown = render_markdown_report({"attribution": summary})
    assert "queue_wait" in markdown and "tail" in markdown


def test_diagnose_empty_population():
    assert diagnose([]) == "no-traffic"


# -- golden Prometheus export ------------------------------------------------

def test_attribution_metrics_golden_prometheus(tmp_path):
    registry = MetricsRegistry()
    exported = export_attribution_metrics(
        [completed_flight(), shed_flight()], registry)
    assert exported == 1
    from pathlib import Path
    golden = Path(__file__).parent / "data" / "attribution_golden.prom"
    assert registry.to_prometheus() == golden.read_text()


# -- LLM prefill/decode split ------------------------------------------------

def test_phase_split_partitions_kernel_wall_time():
    from repro.models.zoo import get_model

    model = get_model("llm-tiny")
    prefill = frozenset(k.name for k in model.prefill)
    decode = frozenset(k.name for k in model.decode)
    flight = completed_flight()
    some_prefill = next(iter(sorted(prefill)))
    some_decode = next(iter(sorted(decode)))
    flight.kernels = [
        KernelWindow(some_prefill, 0.5, 0.625, floor=0.125, attempt=1),
        KernelWindow(some_decode, 0.625, 0.8125, floor=0.125, attempt=1),
        KernelWindow("not-an-llm-kernel", 0.8125, 0.875, floor=0.0625,
                     attempt=1),
    ]
    split = phase_split(flight, prefill, decode)
    assert split["prefill"] == Fraction(1, 8)
    assert split["decode"] == Fraction(3, 16)
    assert split["other"] == Fraction(1, 16)
    wall = sum((Fraction(k.end) - Fraction(k.start)
                for k in flight.kernels), Fraction(0))
    assert sum(split.values(), Fraction(0)) == wall


def test_summarize_reports_llm_phase_split():
    from repro.workload import HomogeneousWorkloadSpec, PoissonArrivals
    from repro.server.rate_experiment import run_rate_experiment

    config = ExperimentConfig(("llm-tiny",) * 2, policy="krisp-i",
                              batch_size=1, seed=0)
    spec = HomogeneousWorkloadSpec(
        "llm-tiny", PoissonArrivals(rate=40.0), batch_size=1)
    recorder = FlightRecorder()
    run_rate_experiment(config, 40.0, 0.5,
                        RunOptions(workload=spec, recorder=recorder))
    summary = summarize(recorder.flights())
    assert summary["requests"] > 0
    split = summary["llm_phase_split"]["llm-tiny"]["population"]
    assert split["prefill"] > 0 and split["decode"] > 0


# -- property: conservation under fault churn --------------------------------

fault_plan = st.fixed_dictionaries({
    "crash_worker": st.integers(min_value=0, max_value=1),
    "crash_at": st.floats(min_value=0.1, max_value=0.9),
    "crashes": st.integers(min_value=0, max_value=2),
    "straggler": st.booleans(),
    "multiplier": st.floats(min_value=1.5, max_value=8.0),
    "spike": st.booleans(),
    "storm": st.integers(min_value=0, max_value=12),
    "admission": st.one_of(st.none(),
                           st.integers(min_value=2, max_value=16)),
    "deadline_ms": st.one_of(st.none(),
                             st.floats(min_value=20.0, max_value=400.0)),
    "retries": st.integers(min_value=1, max_value=3),
})


def _crash_plan(crash_at: float, multiplier: float) -> dict:
    """A crash under a straggler: the crashed attempt's queued kernels
    still drain after the restarted worker dequeued the retry."""
    return {"crash_worker": 0, "crash_at": crash_at, "crashes": 1,
            "straggler": True, "multiplier": multiplier, "spike": False,
            "storm": 0, "admission": None, "deadline_ms": None,
            "retries": 1}


@settings(max_examples=10, deadline=None)
@given(fault_plan)
@example(_crash_plan(0.34375, 5.0))
@example(_crash_plan(0.375, 6.0))
def test_components_nonnegative_and_sum_exactly_under_fault_churn(plan):
    warmup, end = measurement_window(SMALL)
    events = []
    for i in range(plan["crashes"]):
        events.append(WorkerCrash(
            time=warmup + plan["crash_at"] * (end - warmup) * (i + 1) / 3,
            worker=plan["crash_worker"]))
    if plan["straggler"]:
        events.append(KernelStraggler(
            start=warmup, duration=(end - warmup) / 2,
            multiplier=plan["multiplier"]))
    if plan["spike"]:
        events.append(BandwidthSpike(
            start=warmup, duration=(end - warmup) / 3, demand=1.0))
    if plan["storm"]:
        events.append(RequestStorm(
            start=warmup, duration=(end - warmup) / 4,
            count=plan["storm"]))
    faults = FaultSchedule(events=tuple(events)) if events else None
    guard = None
    if (plan["admission"] is not None or plan["deadline_ms"] is not None
            or events):
        guard = SloGuard(
            admission_depth=plan["admission"],
            deadline=(plan["deadline_ms"] * 1e-3
                      if plan["deadline_ms"] is not None else None),
            max_retries=plan["retries"], retry_backoff=1e-3)

    recorder = FlightRecorder()
    run_experiment(SMALL, RunOptions(recorder=recorder, faults=faults,
                                     guard=guard))

    decomposed = []
    for flight in recorder.completed_flights():
        parts = decompose(flight)
        assert set(parts) == set(COMPONENTS)
        for name, value in parts.items():
            assert value >= 0, (flight.index, name, float(value))
        latency = (Fraction(flight.completion_time)
                   - Fraction(flight.arrival_time))
        assert sum(parts.values(), Fraction(0)) == latency, flight.index
        decomposed.append((flight, parts))

    # Cohort conservation: body + tail partition the population exactly.
    if decomposed:
        cohorts = exact_cohorts(decomposed)
        assert len(cohorts["body"]) + len(cohorts["tail"]) == len(decomposed)
        for name in COMPONENTS:
            body = sum((p[name] for _f, p in cohorts["body"]), Fraction(0))
            tail = sum((p[name] for _f, p in cohorts["tail"]), Fraction(0))
            total = sum((p[name] for _f, p in decomposed), Fraction(0))
            assert body + tail == total
