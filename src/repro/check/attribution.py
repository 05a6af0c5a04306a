"""Attribution-conservation audit: recorder purity + exact decomposition.

Two laws, checked on the pinned scenario cells:

*Recorder purity.*  Attaching a :class:`~repro.obs.flight.FlightRecorder`
is pure observation — the experiment's
:func:`~repro.exp.cache.result_hash` must be byte-identical with and
without it, on the fault-free ``colo4`` cell and on the fault-churned,
guarded ``chaos`` cell (crashes, retries, storms, sheds).

*Exact conservation.*  Every completed flight's decomposition
(:func:`~repro.obs.attribution.decompose`) must produce non-negative
components that sum — in :class:`fractions.Fraction` arithmetic, with no
tolerance — to its end-to-end latency, and the tail/body cohort
partition's component totals must sum to the population's exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

__all__ = ["check_attribution_conservation"]


def check_attribution_conservation() -> tuple[list[str], dict[str, Any]]:
    """Recorder purity + exact-conservation laws on the pinned cells."""
    from repro.check.scenarios import (
        CHAOS_CONFIG,
        CHAOS_GUARD,
        COLO4_CONFIG,
        chaos_faults,
    )
    from repro.exp.cache import result_hash
    from repro.obs.attribution import (
        COMPONENTS,
        decompose,
        exact_cohorts,
    )
    from repro.obs.flight import FlightRecorder
    from repro.server.experiment import run_experiment
    from repro.server.options import RunOptions

    violations: list[str] = []
    details: dict[str, Any] = {}
    audited = 0

    cells = (
        ("colo4", COLO4_CONFIG, None, None),
        ("chaos", CHAOS_CONFIG, chaos_faults(CHAOS_CONFIG), CHAOS_GUARD),
    )
    for label, config, faults, guard in cells:
        plain = run_experiment(
            config, RunOptions(faults=faults, guard=guard))
        recorder = FlightRecorder()
        recorded = run_experiment(
            config, RunOptions(recorder=recorder, faults=faults,
                               guard=guard))
        plain_hash = result_hash(plain)
        details[f"{label}_hash"] = plain_hash
        if plain_hash != result_hash(recorded):
            violations.append(
                f"{label}: flight recorder perturbed the result — "
                f"{plain_hash} != {result_hash(recorded)}")

        decomposed: list[tuple[Any, dict]] = []
        for flight in recorder.flights():
            if not flight.completed:
                continue
            try:
                parts = decompose(flight)
            except ValueError as exc:
                violations.append(
                    f"{label} request {flight.index}: decomposition "
                    f"failed: {exc}")
                continue
            audited += 1
            latency = (Fraction(flight.completion_time)
                       - Fraction(flight.arrival_time))
            total = sum(parts.values(), Fraction(0))
            if total != latency:
                violations.append(
                    f"{label} request {flight.index}: components sum to "
                    f"{float(total)!r} != latency {float(latency)!r}")
            negative = sorted(name for name, value in parts.items()
                              if value < 0)
            if negative:
                violations.append(
                    f"{label} request {flight.index}: negative "
                    f"components {negative}")
            decomposed.append((flight, parts))

        if not decomposed:
            violations.append(f"{label}: no completed flights recorded")
            continue
        cohorts = exact_cohorts(decomposed)
        for name in COMPONENTS:
            body = sum((parts[name] for _f, parts in cohorts["body"]),
                       Fraction(0))
            tail = sum((parts[name] for _f, parts in cohorts["tail"]),
                       Fraction(0))
            population = sum((parts[name] for _f, parts in decomposed),
                             Fraction(0))
            if body + tail != population:
                violations.append(
                    f"{label}: cohort totals for {name} do not "
                    f"partition the population "
                    f"({float(body)!r} + {float(tail)!r} != "
                    f"{float(population)!r})")

    details["flights_audited"] = audited
    return violations, details
