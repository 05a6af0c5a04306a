"""The fleet grid: devices × placement policy × offered rate.

:func:`run_fleet` sweeps :func:`~repro.cluster.experiment
.run_cluster_experiment` over a grid of fleet sizes, router policies,
and offered rates, producing a :class:`FleetReport` with one row per
cell plus a per-(devices, policy) capacity knee.  Each cell is a
:class:`~repro.cluster.experiment.ClusterCell`, a pure function of its
inputs, run by the same executor as :func:`~repro.exp.sweep.run_sweep`
(:func:`~repro.exp.cells.run_cells`) — serial and pooled execution
assemble bit-identical reports — and cached under the content store's
``cluster/`` namespace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster.config import AutoscalerConfig, ClusterConfig
from repro.cluster.experiment import (
    DEFAULT_FLEET_DURATION,
    ClusterCell,
    ClusterResult,
)
from repro.cluster.faults import check_fleet_faults
from repro.exp.cache import ContentStore, default_cache
from repro.exp.cells import ProgressFn, results_or_raise, run_cells
from repro.server.options import RunOptions, reject_unsupported
from repro.workload.spec import WorkloadSpec

__all__ = ["DEFAULT_FLEET_SCALES", "FleetCell", "FleetReport", "run_fleet"]

#: Default offered-rate multiples of the spec's native rate.
DEFAULT_FLEET_SCALES: tuple[float, ...] = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class FleetCell:
    """One (devices, policy, rate) grid cell and its outcome."""

    devices: int
    router: str
    offered_rps: float
    result: ClusterResult


@dataclass(frozen=True)
class FleetReport:
    """A full fleet grid plus its provenance."""

    base: ClusterConfig
    workload: Any
    duration: float
    autoscaler: Optional[AutoscalerConfig]
    cells: tuple[FleetCell, ...]
    cache_hits: int = 0

    def curve(self, devices: int, router: str) -> list[FleetCell]:
        """One (devices, policy) curve in offered-rate order."""
        return sorted((c for c in self.cells
                       if c.devices == devices and c.router == router),
                      key=lambda c: c.offered_rps)

    def knee_rps(self, devices: int, router: str,
                 factor: float = 3.0) -> Optional[float]:
        """Highest offered rate of the (devices, policy) curve whose p95
        stays within ``factor`` of its lightest point's p95 and whose
        queues drained; ``None`` when even the lightest point blew up."""
        curve = self.curve(devices, router)
        if not curve:
            return None
        base = curve[0].result.latency.p95
        knee = None
        for cell in curve:
            result = cell.result
            if result.queue_residue > 2 * cell.devices \
                    or result.latency.p95 > factor * base:
                break
            knee = cell.offered_rps
        return knee

    def to_rows(self) -> list[dict[str, Any]]:
        """JSON-native rows, one per cell, in grid order."""
        rows = []
        for cell in self.cells:
            r = cell.result
            rows.append({
                "devices": cell.devices,
                "router": cell.router,
                "offered_rps": r.offered_rps,
                "achieved_rps": r.achieved_rps,
                "goodput_rps": r.goodput_rps,
                "p50_ms": r.latency.p50 * 1e3,
                "p95_ms": r.latency.p95 * 1e3,
                "shed": r.shed,
                "queue_residue": r.queue_residue,
                "scale_ups": r.scale_ups,
                "scale_downs": r.scale_downs,
                "crashes": r.crashes,
                "restarts": r.restarts,
                "conservation_ok": r.conservation_ok,
                "node_utilization": [n.gpu_utilization for n in r.nodes],
                "node_completed": [n.completed for n in r.nodes],
            })
        return rows

    def to_payload(self) -> dict[str, Any]:
        """The deterministic JSON document the ``fleet`` CLI emits."""
        knees = [
            {"devices": d, "router": p, "knee_rps": self.knee_rps(d, p)}
            for d in sorted({c.devices for c in self.cells})
            for p in sorted({c.router for c in self.cells})
        ]
        payload: dict[str, Any] = {
            "schema": 1,
            "base": self.base.to_dict(),
            "workload": self.workload.to_dict(),
            "duration": self.duration,
            "rows": self.to_rows(),
            "knees": knees,
            "scale_events": {
                f"{c.devices}x/{c.router}/{c.offered_rps:g}": [
                    e.to_dict() for e in c.result.scale_events]
                for c in self.cells if c.result.scale_events
            },
        }
        if self.autoscaler is not None:
            payload["autoscaler"] = self.autoscaler.to_dict()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        from repro.analysis.tables import format_table
        rows = [
            [f"{c.devices}", c.router, f"{r.offered_rps:.0f}",
             f"{r.achieved_rps:.0f}", f"{r.goodput_rps:.0f}",
             f"{r.latency.p95 * 1e3:.2f}", r.shed,
             f"+{r.scale_ups}/-{r.scale_downs}",
             "ok" if r.conservation_ok else "VIOLATED"]
            for c in self.cells for r in (c.result,)
        ]
        table = format_table(
            ["devices", "router", "offered", "achieved", "goodput",
             "p95 (ms)", "shed", "scaled", "conserved"],
            rows,
            title=f"fleet grid over {len(self.cells)} cells "
                  f"({self.duration:.2f} s per cell)")
        lines = [table]
        for d in sorted({c.devices for c in self.cells}):
            for p in sorted({c.router for c in self.cells}):
                knee = self.knee_rps(d, p)
                lines.append(f"knee {d}x {p}: "
                             + (f"{knee:.0f} rps" if knee else "none"))
        return "\n".join(lines)


def run_fleet(
    base: ClusterConfig,
    workload: WorkloadSpec,
    *,
    devices: tuple[int, ...] = (1, 2, 4),
    routers: Optional[tuple[str, ...]] = None,
    scales: tuple[float, ...] = DEFAULT_FLEET_SCALES,
    duration: Optional[float] = None,
    autoscaler: Optional[AutoscalerConfig] = AutoscalerConfig(),
    options: Optional[RunOptions] = None,
    jobs: Optional[int] = None,
    store: Optional[ContentStore] = default_cache(),
    progress: Optional[ProgressFn] = None,
) -> FleetReport:
    """Sweep the fleet grid; deterministic across ``jobs`` settings.

    ``routers=None`` runs only the base config's policy; pass a tuple
    to compare policies.  Rates are ``scales`` multiples of the spec's
    native offered rate.  ``options.faults`` (node crashes only, of
    nodes every size in ``devices`` has; checked before any cell runs)
    and ``options.guard`` apply to every cell; observers are rejected.  The tail is
    every grid runner's (:mod:`repro.exp.cells`).  Grid order
    (devices-major, router, then rate) is the report's cell order
    regardless of pool scheduling; a failed cell raises ``RuntimeError``.
    """
    opts = reject_unsupported("run_fleet", options, "tracer", "recorder",
                              "metrics", "audit", "workload")
    if opts.faults is not None:
        for count in devices:
            check_fleet_faults(opts.faults, count)
    if duration is None:
        duration = DEFAULT_FLEET_DURATION
    policies = routers if routers is not None else (base.router,)
    native = workload.offered_rps()
    grid = [(d, p, native * s)
            for d in devices for p in policies for s in scales]
    base_payload = base.to_dict()
    cells = [ClusterCell(
        ClusterConfig.from_dict({**base_payload, "devices": d, "router": p}),
        workload.at_rate(rate), duration, autoscaler, opts.faults,
        opts.guard)
        for d, p, rate in grid]
    outcomes = run_cells(cells, jobs, store, progress=progress)
    results = results_or_raise(outcomes)
    return FleetReport(
        base=base, workload=workload, duration=duration,
        autoscaler=autoscaler,
        cells=tuple(FleetCell(devices=d, router=p, offered_rps=rate,
                              result=result)
                    for (d, p, rate), result in zip(grid, results)),
        cache_hits=sum(o.hit for o in outcomes))
