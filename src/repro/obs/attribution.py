"""Latency attribution: exact decomposition and tail-cohort analysis.

:func:`decompose` splits one completed :class:`~repro.obs.flight
.RequestFlight`'s end-to-end latency into the conserved components KRISP
argues about:

``queue_wait``
    First dequeue minus arrival — time spent waiting for a worker.
``retry_wait``
    Last dequeue minus first dequeue — crash/retry churn (backoff plus
    any aborted service time); exactly zero for untouched requests.
``host_pre`` / ``host_post``
    The worker's jittered host-side processing phases.
``gpu_ideal``
    Sum of per-kernel isolated-ideal floors (the perf-DB/solo time of
    each kernel on the mask it was actually granted).
``interference``
    Kernel wall time minus ideal — the slowdown co-residents, bandwidth
    throttling, and fault injection actually caused.
``dispatch_overhead``
    Burst span not covered by kernel execution — in-order dispatch,
    barrier packets, and the emulation path's B1/B2 overhead.
``phase_gap``
    The model's inter-segment host gaps (token sampling for LLMs).

All arithmetic is done in :class:`fractions.Fraction` over the recorded
float timestamps.  Floats are dyadic rationals, so this is *exact*: the
components provably sum to ``completion - arrival`` with no tolerance,
and each is provably non-negative (kernel windows are clamped to their
floor at ulp level — see :func:`decompose`).  The float views exported
for JSON are rounded once, at the edge.

On top of the per-request decomposition, :func:`summarize` builds the
cohort analysis ("what is p99 made of"): component totals and shares for
the tail cohort (the top ⌈5 %⌉ of requests by latency) against the body
and the median cohort, per model and per queue, plus a knee diagnosis
labelling the dominant tail component — the queueing-dominated vs
contention-dominated distinction an operator acts on.

Standard-library-only at import time; the LLM prefill/decode split
lazily imports the model zoo only when asked for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "COMPONENTS",
    "SERVICE_COMPONENTS",
    "decompose",
    "diagnose",
    "exact_cohorts",
    "export_attribution_metrics",
    "render_markdown_report",
    "summarize",
]

#: Every latency component, in reporting order.  The values of one
#: decomposition sum exactly to the request's end-to-end latency.
COMPONENTS: tuple[str, ...] = (
    "queue_wait",
    "retry_wait",
    "host_pre",
    "gpu_ideal",
    "interference",
    "dispatch_overhead",
    "phase_gap",
    "host_post",
)

#: The components that tile the service span (everything but queueing).
SERVICE_COMPONENTS: tuple[str, ...] = COMPONENTS[2:]

#: Components attributed to waiting for a worker.
QUEUEING_COMPONENTS: tuple[str, ...] = ("queue_wait", "retry_wait")

#: Components attributed to sharing the GPU (the KRISP story).
CONTENTION_COMPONENTS: tuple[str, ...] = ("interference",
                                          "dispatch_overhead")


def decompose(flight: Any) -> dict[str, Fraction]:
    """Exact component decomposition of one completed flight.

    Returns ``{component: Fraction}`` over :data:`COMPONENTS`.  Each
    value is non-negative and the sum equals
    ``Fraction(completion_time) - Fraction(arrival_time)`` exactly.

    Raises :class:`ValueError` for flights that did not complete or
    whose recording is inconsistent (a conservation violation — the
    audit layer turns this into a check failure).
    """
    if flight.completion_time is None:
        raise ValueError(f"flight {flight.index} did not complete")
    if not flight.dequeues:
        raise ValueError(f"flight {flight.index} completed without a "
                         "recorded dequeue")
    arrival = Fraction(flight.arrival_time)
    completion = Fraction(flight.completion_time)
    first_dequeue = Fraction(flight.dequeues[0][0])
    last_dequeue = Fraction(flight.dequeues[-1][0])

    components = {name: Fraction(0) for name in COMPONENTS}
    components["queue_wait"] = first_dequeue - arrival
    components["retry_wait"] = last_dequeue - first_dequeue

    burst_total = Fraction(0)
    expected = last_dequeue
    for mark in flight.phases:
        start, end = Fraction(mark.start), Fraction(mark.end)
        if start != expected or end < start:
            raise ValueError(
                f"flight {flight.index}: phase {mark.phase} "
                f"[{mark.start}, {mark.end}] does not tile the service "
                f"span (expected start {float(expected)})")
        duration = end - start
        if mark.phase == "host_pre":
            components["host_pre"] += duration
        elif mark.phase == "burst":
            burst_total += duration
        elif mark.phase == "gap":
            components["phase_gap"] += duration
        elif mark.phase == "host_post":
            components["host_post"] += duration
        else:
            raise ValueError(
                f"flight {flight.index}: unknown phase {mark.phase!r}")
        expected = end
    if expected != completion:
        raise ValueError(
            f"flight {flight.index}: phases end at {float(expected)}, "
            f"completion at {flight.completion_time}")

    # Kernel windows of the completing attempt.  Each wall time is
    # clamped to its floor from below at ulp level: the device schedules
    # ``start + floor`` in float arithmetic, so an uncontended window
    # can round a few ulps under the floor; ``min`` keeps both the ideal
    # and the interference provably non-negative without breaking the
    # exact sum (ideal + interference == wall, always).
    gpu_actual = Fraction(0)
    gpu_ideal = Fraction(0)
    for kernel in flight.final_kernels():
        wall = Fraction(kernel.end) - Fraction(kernel.start)
        if wall < 0:
            raise ValueError(
                f"flight {flight.index}: kernel {kernel.name} has "
                f"negative wall time")
        gpu_actual += wall
        gpu_ideal += min(Fraction(kernel.floor), wall)
    if gpu_actual > burst_total:
        raise ValueError(
            f"flight {flight.index}: kernel time {float(gpu_actual)} "
            f"exceeds burst span {float(burst_total)}")
    components["gpu_ideal"] = gpu_ideal
    components["interference"] = gpu_actual - gpu_ideal
    components["dispatch_overhead"] = burst_total - gpu_actual
    return components


def phase_split(flight: Any, prefill_names: Iterable[str],
                decode_names: Iterable[str]) -> dict[str, Fraction]:
    """Prefill/decode wall-time split of one flight's final attempt.

    ``prefill + decode + other`` equals the flight's total kernel wall
    time exactly (it partitions the same windows).
    """
    prefill = frozenset(prefill_names)
    decode = frozenset(decode_names)
    out = {"prefill": Fraction(0), "decode": Fraction(0),
           "other": Fraction(0)}
    for kernel in flight.final_kernels():
        wall = Fraction(kernel.end) - Fraction(kernel.start)
        if kernel.name in prefill:
            out["prefill"] += wall
        elif kernel.name in decode:
            out["decode"] += wall
        else:
            out["other"] += wall
    return out


# -- cohorts ---------------------------------------------------------------
def _sorted_by_latency(decomposed: Sequence[tuple[Any, dict]]) -> list:
    """Ascending by exact latency; flight index breaks ties stably."""
    return sorted(
        decomposed,
        key=lambda pair: (Fraction(pair[0].completion_time)
                          - Fraction(pair[0].arrival_time),
                          pair[0].index))


def exact_cohorts(
    decomposed: Sequence[tuple[Any, dict]],
    tail_fraction: float = 0.05,
) -> dict[str, list]:
    """Partition ``(flight, components)`` pairs into body and tail.

    The tail is the top ``ceil(tail_fraction * n)`` requests by exact
    end-to-end latency (the p95+ cohort at the default fraction); body
    and tail partition the population, so their component totals sum to
    the population's exactly — the cohort conservation law the audit
    layer checks.  The ``median`` cohort (bottom ⌈50 %⌉) is a view into
    the same list, reported for contrast.
    """
    ordered = _sorted_by_latency(decomposed)
    n = len(ordered)
    tail_n = math.ceil(tail_fraction * n) if n else 0
    return {
        "body": ordered[:n - tail_n],
        "tail": ordered[n - tail_n:],
        "median": ordered[:math.ceil(n / 2)] if n else [],
    }


def _cohort_totals(cohort: Sequence[tuple[Any, dict]]
                   ) -> tuple[dict[str, Fraction], Fraction]:
    totals = {name: Fraction(0) for name in COMPONENTS}
    latency = Fraction(0)
    for flight, components in cohort:
        for name in COMPONENTS:
            totals[name] += components[name]
        latency += (Fraction(flight.completion_time)
                    - Fraction(flight.arrival_time))
    return totals, latency


def _cohort_payload(cohort: Sequence[tuple[Any, dict]]) -> dict[str, Any]:
    totals, latency = _cohort_totals(cohort)
    payload: dict[str, Any] = {
        "count": len(cohort),
        "latency_s": float(latency),
        "components_s": {name: float(totals[name]) for name in COMPONENTS},
    }
    if latency > 0:
        payload["shares"] = {name: float(totals[name] / latency)
                             for name in COMPONENTS}
    else:
        payload["shares"] = {name: 0.0 for name in COMPONENTS}
    return payload


def diagnose(decomposed: Sequence[tuple[Any, dict]],
             tail_fraction: float = 0.05) -> str:
    """Label what the latency tail is made of.

    Compares the tail cohort's queueing share (``queue_wait`` +
    ``retry_wait``) against its contention share (``interference`` +
    ``dispatch_overhead``): the knee of a load curve is
    *queueing-dominated* when arrivals outpace service and requests age
    in the queue, *contention-dominated* when spatial sharing itself
    slows kernels down.  ``service-dominated`` means neither — the tail
    is the model's own service time (host jitter, ideal GPU time).
    """
    if not decomposed:
        return "no-traffic"
    tail = exact_cohorts(decomposed, tail_fraction)["tail"]
    totals, latency = _cohort_totals(tail)
    queueing = sum((totals[name] for name in QUEUEING_COMPONENTS),
                   Fraction(0))
    contention = sum((totals[name] for name in CONTENTION_COMPONENTS),
                     Fraction(0))
    service = latency - queueing - contention
    if queueing >= contention and queueing >= service:
        return "queueing-dominated"
    if contention >= queueing and contention >= service:
        return "contention-dominated"
    return "service-dominated"


def _llm_name_sets(model: str) -> Optional[tuple[frozenset, frozenset]]:
    """(prefill, decode) kernel-name sets when ``model`` is LLM-shaped."""
    from repro.models.zoo import LlmModelSpec, get_model
    spec = get_model(model)
    if not isinstance(spec, LlmModelSpec):
        return None
    return (frozenset(s.name for s in spec.prefill),
            frozenset(s.name for s in spec.decode))


def summarize(
    flights: Sequence[Any],
    *,
    window: Optional[tuple[float, float]] = None,
    tail_fraction: float = 0.05,
) -> dict[str, Any]:
    """The attribution summary of a run: JSON-native, deterministic.

    ``flights`` come from a :class:`~repro.obs.flight.FlightRecorder`;
    ``window`` restricts the population to completions (and sheds)
    inside ``[start, end]`` — pass the measurement window to exclude
    warmup.  The output carries population/tail/body/median cohorts
    (overall, per model, and per queue), shed counts by reason, the
    retry tally, and the tail :func:`diagnose` label.
    """
    completed = [f for f in flights if f.completed
                 and (window is None
                      or window[0] <= f.completion_time <= window[1])]
    shed = [f for f in flights if f.shed_reason is not None
            and (window is None
                 or window[0] <= f.shed_time <= window[1])]
    decomposed = [(f, decompose(f)) for f in completed]

    def block(pairs: Sequence[tuple[Any, dict]]) -> dict[str, Any]:
        cohorts = exact_cohorts(pairs, tail_fraction)
        return {
            "population": _cohort_payload(pairs),
            "tail": _cohort_payload(cohorts["tail"]),
            "body": _cohort_payload(cohorts["body"]),
            "median_cohort": _cohort_payload(cohorts["median"]),
            "diagnosis": diagnose(pairs, tail_fraction),
        }

    summary: dict[str, Any] = {
        "components": list(COMPONENTS),
        "tail_fraction": tail_fraction,
        "requests": len(completed),
        "retried": sum(1 for f in completed if f.retries > 0),
        "shed": {
            "total": len(shed),
            "by_reason": {
                reason: sum(1 for f in shed if f.shed_reason == reason)
                for reason in sorted({f.shed_reason for f in shed})
            },
        },
        **block(decomposed),
    }

    by_model: dict[str, list] = {}
    by_queue: dict[str, list] = {}
    for pair in decomposed:
        by_model.setdefault(pair[0].model, []).append(pair)
        by_queue.setdefault(pair[0].queue or "unknown", []).append(pair)
    summary["per_model"] = {model: block(pairs)
                            for model, pairs in sorted(by_model.items())}
    summary["per_queue"] = {queue: block(pairs)
                            for queue, pairs in sorted(by_queue.items())}

    # Prefill/decode split for LLM-shaped models (wall seconds over the
    # tail and the population; partitions kernel wall time exactly).
    llm: dict[str, Any] = {}
    for model, pairs in sorted(by_model.items()):
        names = _llm_name_sets(model)
        if names is None:
            continue
        tail_pairs = exact_cohorts(pairs, tail_fraction)["tail"]

        def split_total(subset: Sequence[tuple[Any, dict]]) -> dict:
            totals = {"prefill": Fraction(0), "decode": Fraction(0),
                      "other": Fraction(0)}
            for flight, _comp in subset:
                for phase, value in phase_split(flight, *names).items():
                    totals[phase] += value
            return {phase: float(value)
                    for phase, value in totals.items()}

        llm[model] = {"population": split_total(pairs),
                      "tail": split_total(tail_pairs)}
    if llm:
        summary["llm_phase_split"] = llm
    return summary


# -- metrics export --------------------------------------------------------
def export_attribution_metrics(flights: Sequence[Any], registry: Any,
                               prefix: str = "krisp") -> int:
    """Record per-request components into ``registry`` histograms.

    One ``{prefix}_attribution_seconds`` histogram series per component
    (labelled ``component=...``), a per-model end-to-end latency
    histogram, and shed/retry counters.  Returns the number of flights
    exported.  Deterministic given the same flights (the golden
    Prometheus test pins the output bytes).
    """
    from repro.obs.metrics import exponential_buckets

    buckets = exponential_buckets(1e-6, 4.0, 12)
    exported = 0
    for flight in flights:
        if flight.shed_reason is not None:
            registry.counter(
                f"{prefix}_attribution_shed_total",
                "requests dropped by guard rails",
                reason=flight.shed_reason).inc()
            continue
        if not flight.completed:
            continue
        components = decompose(flight)
        for name, value in components.items():
            registry.histogram(
                f"{prefix}_attribution_seconds",
                "per-request latency components",
                buckets=buckets, component=name).observe(float(value))
        registry.histogram(
            f"{prefix}_attribution_latency_seconds",
            "end-to-end latency of attributed requests",
            buckets=buckets, model=flight.model).observe(flight.latency)
        if flight.retries > 0:
            registry.counter(
                f"{prefix}_attribution_retried_total",
                "completed requests that were retried").inc()
        exported += 1
    return exported


# -- human-readable rendering ---------------------------------------------
def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def render_markdown_report(payload: dict[str, Any]) -> str:
    """Markdown view of a ``krisp-repro colocate --json-out`` report payload."""
    lines: list[str] = []
    config = payload.get("config", {})
    models = "+".join(config.get("model_names", ())) or "?"
    lines.append(f"# Latency attribution report — {models}")
    lines.append("")
    lines.append(f"- policy: `{config.get('policy', '?')}`, batch "
                 f"{config.get('batch_size', '?')}, seed "
                 f"{config.get('seed', '?')}")
    result = payload.get("result", {})
    if result:
        lines.append(f"- total throughput: {result.get('total_rps', 0):.0f} "
                     f"rps, max p95 {result.get('max_p95_ms', 0):.2f} ms")
    attribution = payload.get("attribution", {})
    lines.append(f"- requests attributed: {attribution.get('requests', 0)} "
                 f"(shed {attribution.get('shed', {}).get('total', 0)}, "
                 f"retried {attribution.get('retried', 0)})")
    lines.append(f"- tail diagnosis: "
                 f"**{attribution.get('diagnosis', 'n/a')}**")
    conservation = payload.get("conservation", {})
    if conservation:
        status = "exact" if conservation.get("exact") else "VIOLATED"
        lines.append(f"- conservation audit: {status} over "
                     f"{conservation.get('requests', 0)} requests")
    lines.append("")

    lines.append("## What the tail is made of")
    lines.append("")
    lines.append("| component | population share | tail (p95+) share | "
                 "median cohort share |")
    lines.append("|---|---|---|---|")
    population = attribution.get("population", {}).get("shares", {})
    tail = attribution.get("tail", {}).get("shares", {})
    median = attribution.get("median_cohort", {}).get("shares", {})
    for name in attribution.get("components", ()):
        lines.append(
            f"| {name} | {population.get(name, 0):.1%} "
            f"| {tail.get(name, 0):.1%} | {median.get(name, 0):.1%} |")
    lines.append("")

    per_model = attribution.get("per_model", {})
    if per_model:
        lines.append("## Per model")
        lines.append("")
        lines.append("| model | requests | mean latency (ms) | "
                     "tail diagnosis |")
        lines.append("|---|---|---|---|")
        for model, entry in per_model.items():
            pop = entry.get("population", {})
            count = pop.get("count", 0)
            mean = pop.get("latency_s", 0.0) / count if count else 0.0
            lines.append(f"| {model} | {count} | {_ms(mean)} "
                         f"| {entry.get('diagnosis', 'n/a')} |")
        lines.append("")

    slo = payload.get("slo", {})
    if slo:
        lines.append("## SLO attainment and burn rate")
        lines.append("")
        lines.append(f"- objective: {slo.get('objective', 0):.0%} within "
                     "the per-model threshold")
        lines.append("")
        lines.append("| model | threshold (ms) | attainment | burn rate | "
                     "budget consumed |")
        lines.append("|---|---|---|---|---|")
        for model, entry in slo.get("models", {}).items():
            attainment = entry.get("attainment")
            burn = entry.get("burn_rate")
            budget = entry.get("budget_consumed")
            lines.append(
                f"| {model} | {_ms(entry.get('threshold_s', 0.0))} "
                f"| {attainment:.1%} "
                f"| {burn:.2f} | {budget:.2f} |"
                if attainment is not None and burn is not None
                and budget is not None else
                f"| {model} | {_ms(entry.get('threshold_s', 0.0))} "
                f"| n/a | n/a | n/a |")
        lines.append("")
    return "\n".join(lines) + "\n"
