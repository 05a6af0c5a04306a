"""Frozen, serialisable configuration for fleet-scale runs.

:class:`ClusterConfig` describes the fleet shape — how many devices,
which models every node serves, the partitioning policy each device
runs, how many worker slots each (node, model) pool holds, and which
placement policy the router uses.  :class:`AutoscalerConfig` describes
the control loop that grows and shrinks those pools at run time.

Both are plain frozen dataclasses with ``to_dict``/``from_dict`` in the
same JSON-native style as :class:`~repro.server.experiment
.ExperimentConfig`, so they pickle across the fleet process pool and
fold into the content-addressed cluster cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.server.experiment import ExperimentConfig
from repro.server.slo import _known_fields

__all__ = ["AutoscalerConfig", "ClusterConfig", "ROUTER_POLICIES"]

#: Placement policies the router knows (registry order is stable).
ROUTER_POLICIES: tuple[str, ...] = ("least-loaded", "free-cu", "affinity")


@dataclass(frozen=True)
class ClusterConfig:
    """The shape of one simulated fleet.

    Every node is identical: one :class:`~repro.gpu.device.GpuDevice`
    running ``policy``, serving every model in ``model_names`` through a
    pool of up to ``pool_size`` worker slots per model (``pool_min`` of
    them active from t=0; the autoscaler may activate the rest).
    """

    devices: int
    model_names: tuple[str, ...]
    policy: str = "krisp-i"
    batch_size: int = 32
    seed: int = 0
    router: str = "least-loaded"
    pool_size: int = 2
    pool_min: int = 1
    emulated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_names", tuple(self.model_names))
        if self.devices < 1:
            raise ValueError("a cluster needs at least one device")
        if not self.model_names:
            raise ValueError("model_names must be non-empty")
        if len(set(self.model_names)) != len(self.model_names):
            raise ValueError("model_names must be distinct (pools are "
                             "per model; pool_size adds replicas)")
        if not 1 <= self.pool_min <= self.pool_size:
            raise ValueError("need 1 <= pool_min <= pool_size")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(f"unknown router policy {self.router!r}; "
                             f"expected one of {ROUTER_POLICIES}")

    def node_config(self) -> ExperimentConfig:
        """The per-node :class:`ExperimentConfig`.

        One plan (and one policy stream, hence one partition) per pool
        slot: ``model_names`` repeats each model ``pool_size`` times, so
        the plan for (model ``m``, slot ``s``) sits at index
        ``m * pool_size + s`` — the layout :class:`~repro.cluster.setup
        .ClusterSetup` relies on.
        """
        return ExperimentConfig(
            model_names=tuple(model for model in self.model_names
                              for _ in range(self.pool_size)),
            policy=self.policy,
            batch_size=self.batch_size,
            seed=self.seed,
            emulated=self.emulated,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "devices": self.devices,
            "model_names": list(self.model_names),
            "policy": self.policy,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "router": self.router,
            "pool_size": self.pool_size,
            "pool_min": self.pool_min,
            "emulated": self.emulated,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ClusterConfig":
        data = dict(_known_fields(cls, payload))
        data["model_names"] = tuple(data["model_names"])
        return cls(**data)


@dataclass(frozen=True)
class AutoscalerConfig:
    """The load-driven pool controller, ECLIP-style overhead-bounded.

    Every ``interval`` sim-seconds the controller reads each model's
    queued backlog from its own snapshot of the slot queues, normalises
    by the model's active worker count, and compares against the
    watermarks.  Churn is capped three ways:

    * **hysteresis** — scale-down needs ``hysteresis_ticks`` consecutive
      below-low-watermark readings (one hot sample never flaps a pool);
    * **cooldown** — after acting on a model, that model is frozen for
      ``cooldown`` sim-seconds;
    * **bounded repacking** — at most ``max_actions_per_window`` resizes
      fleet-wide in any sliding ``window`` (the ECLIP bound: repartition
      overhead stays a bounded fraction of run time).
    """

    interval: float = 20e-3
    high_watermark: float = 3.0
    low_watermark: float = 0.5
    hysteresis_ticks: int = 2
    cooldown: float = 60e-3
    window: float = 0.25
    max_actions_per_window: int = 4
    min_active: int = 1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if self.low_watermark < 0 or self.high_watermark <= self.low_watermark:
            raise ValueError("need 0 <= low_watermark < high_watermark")
        if self.hysteresis_ticks < 1:
            raise ValueError("hysteresis_ticks must be >= 1")
        if self.cooldown < 0 or self.window <= 0:
            raise ValueError("need cooldown >= 0 and window > 0")
        if self.max_actions_per_window < 1:
            raise ValueError("max_actions_per_window must be >= 1")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "high_watermark": self.high_watermark,
            "low_watermark": self.low_watermark,
            "hysteresis_ticks": self.hysteresis_ticks,
            "cooldown": self.cooldown,
            "window": self.window,
            "max_actions_per_window": self.max_actions_per_window,
            "min_active": self.min_active,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AutoscalerConfig":
        return cls(**_known_fields(cls, payload))
