"""Load-driven worker-pool autoscaling on the simulator clock.

The :class:`PoolAutoscaler` is a recurring sim event that reads each
model's backlog from its own snapshot of the slot queues (never from a
metrics registry), normalises by the model's active slot count, and
activates or deactivates pool slots against the watermarks of its
:class:`~repro.cluster.config.AutoscalerConfig`.

Scale-up spreads: the new slot lands on the live node with the fewest
active slots for the model (lowest index on ties).  Scale-down packs:
the highest-index active slot of the node with the most comes out
(LIFO — the slot most recently added is the first removed, so repeated
up/down cycles touch the same slots and the fleet's t=0 construction
order never changes).  Deactivation is graceful by construction: the
router stops sending, the worker drains its backlog.

A tick reads the depths one snapshot event recorded at the last instant
of the samplers' 250 µs grid (their float recurrence ``t +
DEFAULT_INTERVAL``) at or before it.  The snapshot runs at the samplers'
priority, after every event that can change a depth, so it sees exactly
what a per-node :class:`~repro.obs.sampler.SimSampler` would.

Churn is bounded ECLIP-style: hysteresis on scale-down, a per-model
cooldown after every action, and a fleet-wide sliding-window cap on
actions (see :class:`AutoscalerConfig`).  Every decision is recorded as
a frozen :class:`ScaleEvent` so runs can assert the controller both
grew *and* shrank capacity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster.config import AutoscalerConfig
from repro.cluster.setup import ClusterSetup, PoolSlot
from repro.obs.sampler import DEFAULT_INTERVAL, SAMPLE_PRIORITY

__all__ = ["PoolAutoscaler", "ScaleEvent", "TICK_PRIORITY"]

#: After the snapshot's ``SAMPLE_PRIORITY`` (100): observe, then act.
TICK_PRIORITY = 110


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, as replayable data."""

    time: float
    action: str  # "up" | "down"
    model: str
    node: int
    slot: int
    #: Cluster-wide active slots for the model after the action.
    active_after: int
    #: The load-per-active-slot reading that triggered it.
    load: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "action": self.action,
            "model": self.model,
            "node": self.node,
            "slot": self.slot,
            "active_after": self.active_after,
            "load": self.load,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScaleEvent":
        return cls(**{k: payload[k] for k in (
            "time", "action", "model", "node", "slot", "active_after",
            "load")})


class PoolAutoscaler:
    """Grows and shrinks per-model worker pools from sampled load."""

    def __init__(self, cluster: ClusterSetup,
                 config: Optional[AutoscalerConfig] = None) -> None:
        self.cluster = cluster
        self.config = config if config is not None else AutoscalerConfig()
        self.events: list[ScaleEvent] = []
        self.stop_time: Optional[float] = None
        #: Consecutive below-low-watermark ticks, per model (hysteresis).
        self._low_ticks: dict[str, int] = {
            m: 0 for m in cluster.config.model_names}
        #: Sim time of the last action per model (cooldown).
        self._last_action: dict[str, float] = {}
        #: Fleet-wide action times inside the sliding window.
        self._window: deque[float] = deque()
        #: The latest snapshot's grid instant, and each slot queue's depth.
        self._grid = 0.0
        self.backlog: dict[str, int] = {}

    def start(self, *, stop_time: float) -> None:
        """Begin ticking now; the last tick is at ``stop_time`` latest."""
        self.stop_time = stop_time
        sim = self.cluster.sim
        self._grid = sim.now
        sim.schedule(sim.now, self._snapshot, priority=SAMPLE_PRIORITY)
        sim.schedule(sim.now, self._tick, priority=TICK_PRIORITY)

    def _tick(self) -> None:
        for model in self.cluster.config.model_names:
            self._evaluate(model)
        sim = self.cluster.sim
        next_time = sim.now + self.config.interval
        if self.stop_time is None or next_time <= self.stop_time:
            # Ticks < 250 µs apart may share the last grid instant.
            grid = self._grid
            while grid + DEFAULT_INTERVAL <= next_time:
                grid += DEFAULT_INTERVAL
            if grid != self._grid:
                self._grid = grid
                sim.schedule(grid, self._snapshot, priority=SAMPLE_PRIORITY)
            sim.schedule(next_time, self._tick, priority=TICK_PRIORITY)

    # -- load signal ---------------------------------------------------------
    def _snapshot(self) -> None:
        self.backlog = {slot.queue.name: len(slot.queue)
                        for node in self.cluster.nodes
                        for slot in node.slots}

    def _model_load(self, model: str) -> tuple[float, int]:
        """(load per active slot, active slot count) for ``model``.

        Backlog is the snapshot's queue depth summed over *every* slot
        of the model on nodes live at the tick (a drained slot's
        leftover backlog still argues against scaling down).  In-flight
        requests count one each.
        """
        cluster = self.cluster
        queued = 0
        in_flight = 0
        for node in cluster.nodes:
            if node.crashed:
                continue
            for slot in node.pools[model]:
                queued += self.backlog[slot.queue.name]
                if slot.worker is not None \
                        and slot.worker.in_flight is not None:
                    in_flight += 1
        active = len(cluster.active_slots(model))
        if active == 0:
            return (float("inf") if queued + in_flight > 0 else 0.0, 0)
        return ((queued + in_flight) / active, active)

    # -- control law ---------------------------------------------------------
    def _evaluate(self, model: str) -> None:
        config = self.config
        now = self.cluster.sim.now
        load, active = self._model_load(model)

        if load >= config.high_watermark:
            self._low_ticks[model] = 0
            if self._may_act(model, now):
                self._scale_up(model, now, load, active)
        elif load <= config.low_watermark:
            self._low_ticks[model] += 1
            if self._low_ticks[model] >= config.hysteresis_ticks \
                    and active > config.min_active \
                    and self._may_act(model, now):
                self._scale_down(model, now, load, active)
                self._low_ticks[model] = 0
        else:
            self._low_ticks[model] = 0

    def _may_act(self, model: str, now: float) -> bool:
        last = self._last_action.get(model)
        if last is not None and now - last < self.config.cooldown:
            return False
        while self._window and self._window[0] <= now - self.config.window:
            self._window.popleft()
        return len(self._window) < self.config.max_actions_per_window

    def _record(self, action: str, model: str, slot: PoolSlot, now: float,
                load: float, active_after: int) -> None:
        self._last_action[model] = now
        self._window.append(now)
        self.events.append(ScaleEvent(
            time=now, action=action, model=model, node=slot.node_index,
            slot=slot.slot_index, active_after=active_after, load=load))

    def _scale_up(self, model: str, now: float, load: float,
                  active: int) -> None:
        best: Optional[PoolSlot] = None
        best_key = None
        for node in self.cluster.nodes:
            if node.crashed:
                continue
            inactive = [s for s in node.pools[model] if not s.active]
            if not inactive:
                continue
            key = (node.active_count(model), node.index)
            if best_key is None or key < best_key:
                best_key = key
                best = inactive[0]
        if best is None:
            return  # every live pool is already full
        self.cluster.activate_slot(best)
        self._record("up", model, best, now, load, active + 1)

    def _scale_down(self, model: str, now: float, load: float,
                    active: int) -> None:
        best: Optional[PoolSlot] = None
        best_key = None
        for node in self.cluster.nodes:
            if node.crashed:
                continue
            candidates = [s for s in node.pools[model] if s.active]
            if not candidates:
                continue
            key = (-node.active_count(model), -node.index)
            if best_key is None or key < best_key:
                best_key = key
                best = candidates[-1]
        if best is None:
            return
        self.cluster.deactivate_slot(best)
        self._record("down", model, best, now, load, active - 1)
