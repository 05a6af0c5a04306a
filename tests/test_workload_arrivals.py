"""Property tests for the arrival-process layer (repro.workload.arrivals).

The traffic layer is the foundation every load curve stands on, so its
contract is pinned by properties rather than examples: gaps are always
non-negative and finite, identical seeds give byte-identical streams,
empirical rates converge to the configured ones, and a trace replay
reproduces its input timestamps exactly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workload import (
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceArrivals,
    TraceEntry,
    TraceWorkloadSpec,
    WorkloadClient,
    arrival_from_dict,
    arrival_to_dict,
)

rates = st.floats(min_value=0.5, max_value=500.0,
                  allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=0.01, max_value=5.0,
                      allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _rng(seed, name="arrivals"):
    return RngRegistry(seed).fork("test").stream(name)


def _take_times(process, seed, n):
    """First ``n`` arrival times (cumulative gaps) of ``process``."""
    gaps = process.gaps(_rng(seed))
    now, times = 0.0, []
    for _ in range(n):
        now += next(gaps)
        times.append(now)
    return times


ALL_PROCESSES = [
    PoissonArrivals(rate=40.0),
    OnOffArrivals(on_rate=80.0, on_duration=0.2, off_duration=0.1,
                  off_rate=5.0),
    DiurnalArrivals(base_rate=30.0, amplitude=0.5, period=1.0),
    TraceArrivals(times=(0.0, 0.1, 0.15, 0.4, 1.0)),
]


# -- universal properties ----------------------------------------------------

@pytest.mark.parametrize("process", ALL_PROCESSES,
                         ids=lambda p: type(p).__name__)
def test_gaps_are_nonnegative_and_finite(process):
    gaps = process.gaps(_rng(1))
    for _ in range(200):
        try:
            gap = next(gaps)
        except StopIteration:  # traces are finite
            break
        assert gap >= 0.0
        assert math.isfinite(gap)


@pytest.mark.parametrize("process", ALL_PROCESSES,
                         ids=lambda p: type(p).__name__)
def test_arrival_times_are_sorted(process):
    times = _take_times(process, seed=2, n=min(200, 5))
    assert times == sorted(times)


@given(seed=seeds, rate=rates)
@settings(max_examples=25, deadline=None)
def test_identical_seeds_give_identical_streams(seed, rate):
    a = _take_times(PoissonArrivals(rate=rate), seed, 50)
    b = _take_times(PoissonArrivals(rate=rate), seed, 50)
    assert a == b  # byte-identical floats, not approx


@pytest.mark.parametrize("process", ALL_PROCESSES[:3],
                         ids=lambda p: type(p).__name__)
def test_different_seeds_give_different_streams(process):
    assert _take_times(process, 1, 20) != _take_times(process, 2, 20)


@pytest.mark.parametrize("process", ALL_PROCESSES,
                         ids=lambda p: type(p).__name__)
def test_serialization_round_trip(process):
    assert arrival_from_dict(arrival_to_dict(process)) == process


def test_from_dict_tolerates_unknown_keys():
    payload = arrival_to_dict(PoissonArrivals(rate=10.0))
    payload["future_field"] = "ignored"
    assert arrival_from_dict(payload) == PoissonArrivals(rate=10.0)


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown arrival-process kind"):
        arrival_from_dict({"kind": "fractal", "rate": 1.0})


# -- Poisson -----------------------------------------------------------------

def test_poisson_empirical_rate_matches_configured():
    rate = 200.0
    n = 20_000
    times = _take_times(PoissonArrivals(rate=rate), seed=0, n=n)
    empirical = n / times[-1]
    assert empirical == pytest.approx(rate, rel=0.05)


@given(rate=rates, factor=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_poisson_scaling(rate, factor):
    scaled = PoissonArrivals(rate=rate).scaled(factor)
    assert scaled.rate == pytest.approx(rate * factor)
    assert scaled.mean_rate() == pytest.approx(rate * factor)


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0.0)


# -- ON/OFF ------------------------------------------------------------------

def test_onoff_mean_rate_is_duty_cycle_weighted():
    process = OnOffArrivals(on_rate=100.0, on_duration=0.3,
                            off_duration=0.1, off_rate=20.0)
    expected = (100.0 * 0.3 + 20.0 * 0.1) / 0.4
    assert process.mean_rate() == pytest.approx(expected)


def test_onoff_empirical_rate_matches_mean():
    process = OnOffArrivals(on_rate=400.0, on_duration=0.2,
                            off_duration=0.2, off_rate=40.0)
    horizon = 100.0  # many full periods
    gaps = process.gaps(_rng(3))
    now, count = 0.0, 0
    while True:
        now += next(gaps)
        if now > horizon:
            break
        count += 1
    assert count / horizon == pytest.approx(process.mean_rate(), rel=0.05)


def test_onoff_silent_off_phase_emits_nothing_in_off_windows():
    process = OnOffArrivals(on_rate=200.0, on_duration=0.5,
                            off_duration=0.5, off_rate=0.0)
    times = _take_times(process, seed=4, n=500)
    for t in times:
        assert (t % 1.0) <= 0.5, f"arrival at {t} inside a silent phase"


# -- diurnal -----------------------------------------------------------------

def test_diurnal_rate_at_oscillates_within_bounds():
    process = DiurnalArrivals(base_rate=50.0, amplitude=0.5, period=2.0)
    samples = [process.rate_at(t * 0.01) for t in range(400)]
    assert min(samples) == pytest.approx(25.0, rel=0.01)
    assert max(samples) == pytest.approx(75.0, rel=0.01)


def test_diurnal_empirical_rate_matches_base_over_full_periods():
    process = DiurnalArrivals(base_rate=300.0, amplitude=0.8, period=0.5)
    horizon = 50.0  # 100 full periods: the sinusoid integrates out
    gaps = process.gaps(_rng(5))
    now, count = 0.0, 0
    while True:
        now += next(gaps)
        if now > horizon:
            break
        count += 1
    assert count / horizon == pytest.approx(300.0, rel=0.05)


def test_diurnal_rejects_amplitude_outside_unit_interval():
    with pytest.raises(ValueError):
        DiurnalArrivals(base_rate=10.0, amplitude=1.5)


# -- trace -------------------------------------------------------------------

def test_trace_validates_sorted_nonnegative_times():
    with pytest.raises(ValueError):
        TraceArrivals(times=(0.2, 0.1))
    with pytest.raises(ValueError):
        TraceArrivals(times=(-1.0, 0.1))
    with pytest.raises(ValueError):
        TraceArrivals(times=())


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=25, deadline=None)
def test_trace_gaps_reconstruct_times(raw):
    times = tuple(sorted(raw))
    process = TraceArrivals(times=times)
    gaps = list(process.gaps(_rng(0)))
    now, rebuilt = 0.0, []
    for gap in gaps:
        now += gap
        rebuilt.append(now)
    assert rebuilt == pytest.approx(list(times), abs=1e-9)


def test_trace_replay_through_client_is_exact():
    """A TraceWorkloadSpec injects at *exactly* its input timestamps —
    absolute-time scheduling, not gap re-accumulation."""
    times = (0.0, 0.013, 0.0131, 0.2, 0.45)
    spec = TraceWorkloadSpec(entries=tuple(
        TraceEntry(time=t, model="squeezenet", batch_size=4)
        for t in times))
    sim = Simulator()
    arrivals = []
    client = WorkloadClient(
        sim, spec, lambda request: arrivals.append(request.arrival_time),
        rng=RngRegistry(0).fork("t"), stop_time=1.0)
    sim.run(until=1.0)
    assert arrivals == list(times)  # bit-exact
    assert client.issued == len(times)
