"""Workload specs: frozen, hashable, YAML-round-trippable traffic.

A workload spec is the declarative artifact that makes an open-loop
experiment reproducible: it names the request classes (model, batch
size, optional LLM output-length range), their mix, and the arrival
process driving them.  Specs are frozen dataclasses — they hash, they
pickle across the load-curve process pool, and they serialise to
JSON-native dicts under a stable ``kind`` tag so the content-addressed
result cache folds them into its key (a spec'd run is exactly as
cacheable as a closed-loop cell).

Kinds:

* :class:`HomogeneousWorkloadSpec` — one request class;
* :class:`HeterogeneousWorkloadSpec` — weighted per-class mixes
  (requests are routed to per-model queues);
* :class:`TraceWorkloadSpec` — explicit (time, model, batch) entries
  replayed at their absolute timestamps.

The dict/YAML shape follows fmperf's ``HomogeneousWorkloadSpec`` /
``HeterogeneousWorkloadSpec`` convention; ``from_dict`` constructors
tolerate unknown keys exactly like :meth:`SloGuard.from_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.analysis.digest import canonical_digest
from repro.server.slo import _known_fields
from repro.workload.arrivals import (
    ArrivalProcess,
    arrival_from_dict,
    arrival_to_dict,
)

__all__ = [
    "HeterogeneousWorkloadSpec",
    "HomogeneousWorkloadSpec",
    "RequestClass",
    "TraceEntry",
    "TraceWorkloadSpec",
    "WorkloadSpec",
    "check_deployment",
    "load_workload",
    "spec_hash",
    "workload_from_dict",
    "workload_from_yaml",
    "workload_to_yaml",
]


def _tokens_tuple(value: Any) -> Optional[tuple[int, int]]:
    if value is None:
        return None
    lo, hi = value
    return (int(lo), int(hi))


def _validate_tokens(tokens: Optional[tuple[int, int]]) -> None:
    if tokens is None:
        return
    lo, hi = tokens
    if lo < 1 or hi < lo:
        raise ValueError("output_tokens must be (lo, hi) with 1 <= lo <= hi")


@dataclass(frozen=True)
class RequestClass:
    """One request class inside a heterogeneous mix.

    ``output_tokens`` is an inclusive ``(lo, hi)`` decode-length range
    for LLM-phase models; ``None`` keeps the model's default output
    length (and is the only valid setting for non-LLM models).
    """

    model: str
    batch_size: int = 32
    weight: float = 1.0
    output_tokens: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "output_tokens", _tokens_tuple(self.output_tokens))
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.weight <= 0:
            raise ValueError("class weight must be > 0")
        _validate_tokens(self.output_tokens)

    def to_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        if payload["output_tokens"] is not None:
            payload["output_tokens"] = list(payload["output_tokens"])
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RequestClass":
        """Unknown keys are ignored (``SloGuard.from_dict`` convention)."""
        return cls(**_known_fields(cls, payload))


@dataclass(frozen=True)
class HomogeneousWorkloadSpec:
    """One request class under one arrival process (fmperf's shape)."""

    model: str
    arrivals: ArrivalProcess
    batch_size: int = 32
    output_tokens: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "output_tokens", _tokens_tuple(self.output_tokens))
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        _validate_tokens(self.output_tokens)

    def request_classes(self) -> tuple[RequestClass, ...]:
        """The (single) request class."""
        return (RequestClass(model=self.model, batch_size=self.batch_size,
                             weight=1.0, output_tokens=self.output_tokens),)

    def models(self) -> tuple[str, ...]:
        return (self.model,)

    def request_batch_size(self) -> int:
        """The uniform request batch size of this spec."""
        return self.batch_size

    def offered_rps(self) -> float:
        """Long-run offered load in requests (not batches) per second."""
        return self.arrivals.mean_rate() * self.batch_size

    def at_rate(self, offered_rps: float) -> "HomogeneousWorkloadSpec":
        """The same workload rescaled to ``offered_rps``."""
        if offered_rps <= 0:
            raise ValueError("offered_rps must be > 0")
        return replace(self, arrivals=self.arrivals.scaled(
            offered_rps / self.offered_rps()))

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": "homogeneous",
            "model": self.model,
            "batch_size": self.batch_size,
            "arrivals": arrival_to_dict(self.arrivals),
        }
        if self.output_tokens is not None:
            payload["output_tokens"] = list(self.output_tokens)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "HomogeneousWorkloadSpec":
        data = _known_fields(cls, payload)
        data["arrivals"] = arrival_from_dict(payload["arrivals"])
        return cls(**data)


@dataclass(frozen=True)
class HeterogeneousWorkloadSpec:
    """A weighted mix of request classes under one arrival process.

    Each arrival draws its class from the normalised weights (a separate
    ``workload-mix`` RNG stream, so the arrival gaps themselves stay
    identical across mix changes) and is routed to that class's
    per-model queue.
    """

    classes: tuple[RequestClass, ...]
    arrivals: ArrivalProcess

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValueError("need at least one request class")

    def request_classes(self) -> tuple[RequestClass, ...]:
        """The mix's request classes (the uniform spec accessor)."""
        return self.classes

    def models(self) -> tuple[str, ...]:
        """Distinct class models, in first-appearance order."""
        return tuple(dict.fromkeys(c.model for c in self.classes))

    def request_batch_size(self) -> int:
        """The uniform request batch size (mixed sizes are rejected:
        the serving stack's throughput accounting assumes one)."""
        sizes = {c.batch_size for c in self.classes}
        if len(sizes) != 1:
            raise ValueError(
                f"mixed per-class batch sizes {sorted(sizes)} are not "
                "supported; give every class the same batch_size")
        return next(iter(sizes))

    def offered_rps(self) -> float:
        total = sum(c.weight for c in self.classes)
        mean_batch = sum(c.weight * c.batch_size
                         for c in self.classes) / total
        return self.arrivals.mean_rate() * mean_batch

    def at_rate(self, offered_rps: float) -> "HeterogeneousWorkloadSpec":
        if offered_rps <= 0:
            raise ValueError("offered_rps must be > 0")
        return replace(self, arrivals=self.arrivals.scaled(
            offered_rps / self.offered_rps()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "heterogeneous",
            "classes": [c.to_dict() for c in self.classes],
            "arrivals": arrival_to_dict(self.arrivals),
        }

    @classmethod
    def from_dict(cls,
                  payload: dict[str, Any]) -> "HeterogeneousWorkloadSpec":
        return cls(
            classes=tuple(RequestClass.from_dict(c)
                          for c in payload["classes"]),
            arrivals=arrival_from_dict(payload["arrivals"]),
        )


@dataclass(frozen=True)
class TraceEntry:
    """One replayed request: arrive at ``time`` for ``model``."""

    time: float
    model: str
    batch_size: int = 32
    output_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("entry time must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.output_tokens is not None and self.output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TraceEntry":
        return cls(**_known_fields(cls, payload))


@dataclass(frozen=True)
class TraceWorkloadSpec:
    """Explicit request timeline, replayed at absolute sim times."""

    entries: tuple[TraceEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("trace workload needs at least one entry")
        times = [e.time for e in self.entries]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace entries must be sorted by time")

    def request_classes(self) -> tuple[RequestClass, ...]:
        """One class per distinct model, in first-appearance order
        (used for queue wiring; the mix is the trace itself)."""
        seen: dict[str, RequestClass] = {}
        for entry in self.entries:
            if entry.model not in seen:
                seen[entry.model] = RequestClass(
                    model=entry.model, batch_size=entry.batch_size)
        return tuple(seen.values())

    def models(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(e.model for e in self.entries))

    def request_batch_size(self) -> int:
        sizes = {e.batch_size for e in self.entries}
        if len(sizes) != 1:
            raise ValueError(
                f"mixed per-entry batch sizes {sorted(sizes)} are not "
                "supported; give every entry the same batch_size")
        return next(iter(sizes))

    def offered_rps(self) -> float:
        span = self.entries[-1].time
        total = sum(e.batch_size for e in self.entries)
        return total / span if span > 0 else float(total)

    def at_rate(self, offered_rps: float) -> "TraceWorkloadSpec":
        """Rescale by compressing/dilating the timeline."""
        if offered_rps <= 0:
            raise ValueError("offered_rps must be > 0")
        factor = offered_rps / self.offered_rps()
        return replace(self, entries=tuple(
            replace(e, time=e.time / factor) for e in self.entries))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "trace",
                "entries": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TraceWorkloadSpec":
        return cls(entries=tuple(TraceEntry.from_dict(e)
                                 for e in payload["entries"]))


WorkloadSpec = Union[
    HomogeneousWorkloadSpec, HeterogeneousWorkloadSpec, TraceWorkloadSpec
]

#: Stable kind tags, fixed registry order (the fault-schedule idiom).
_SPEC_KINDS: dict[str, type] = {
    "homogeneous": HomogeneousWorkloadSpec,
    "heterogeneous": HeterogeneousWorkloadSpec,
    "trace": TraceWorkloadSpec,
}


def workload_from_dict(payload: dict[str, Any]) -> WorkloadSpec:
    """Build any workload-spec kind from its dict form."""
    kind = payload.get("kind")
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown workload-spec kind {kind!r}; "
                         f"expected one of {sorted(_SPEC_KINDS)}")
    return _SPEC_KINDS[kind].from_dict(payload)


def check_deployment(spec: WorkloadSpec, model_names: Sequence[str],
                     batch_size: int) -> None:
    """Raise ``ValueError`` unless a deployment of ``model_names`` at
    ``batch_size`` serves every request class of ``spec``."""
    classes = spec.request_classes()
    mismatched = sorted({c.batch_size for c in classes} - {batch_size})
    if mismatched:
        raise ValueError(f"workload class batch sizes {mismatched} differ "
                         f"from the deployment's batch_size={batch_size}")
    missing = sorted({c.model for c in classes} - set(model_names))
    if missing:
        raise ValueError(f"workload models {missing} are not in "
                         f"model_names {sorted(set(model_names))}")


def spec_hash(spec: WorkloadSpec) -> str:
    """Stable content hash of one spec's canonical JSON form."""
    return canonical_digest(spec.to_dict())


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - PyYAML is a test dep
        raise RuntimeError(
            "PyYAML is required for YAML workload specs; install pyyaml "
            "or use JSON / workload_from_dict") from exc
    return yaml


def workload_to_yaml(spec: WorkloadSpec) -> str:
    """YAML form of one spec (inverse of :func:`workload_from_yaml`)."""
    return _yaml().safe_dump(spec.to_dict(), sort_keys=True,
                             default_flow_style=False)


def workload_from_yaml(text: str) -> WorkloadSpec:
    """Parse a YAML workload spec document."""
    payload = _yaml().safe_load(text)
    if not isinstance(payload, dict):
        raise ValueError("workload spec document must be a mapping")
    return workload_from_dict(payload)


def load_workload(path) -> WorkloadSpec:
    """Load a spec from a ``.json`` or YAML file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return workload_from_dict(json.loads(text))
    return workload_from_yaml(text)
