"""Per-CU kernel counters (the paper's *Resource Monitor*).

KRISP's resource-mask generation (Algorithm 1) needs to know how many
kernels are currently assigned to every CU.  The paper adds 5-bit counters
per CU (32 concurrent streams max) to the command processor; this module is
that structure, updated by the device on every kernel dispatch/retire and
read by the allocator.
"""

from __future__ import annotations

from repro.gpu.cu_mask import CUMask
from repro.gpu.topology import GpuTopology

__all__ = ["CUKernelCounters"]


class CUKernelCounters:
    """Tracks the number of kernels assigned to each compute unit.

    Besides the live counts the structure keeps two high-water marks for
    observability: ``peak_counts`` (per-CU maximum residency) and
    ``peak_busy_cus`` (maximum number of simultaneously busy CUs — the
    cell's peak CU occupancy, surfaced in
    :class:`~repro.server.experiment.ExperimentResult`).

    When the owner calls :meth:`tick` at every counter mutation, the
    structure also integrates two CU-time quantities over the run —
    ``assigned_cu_seconds`` (∫ Σ per-CU counts dt: total kernel-CU
    residency) and ``busy_cu_seconds`` (∫ busy-CU count dt) — which the
    audit subsystem (:mod:`repro.check`) balances against the device's
    per-kernel work ledger (work conservation).  Ticking is opt-in and
    pure accounting: it reads the simulation clock but never feeds back
    into any result float.
    """

    def __init__(self, topology: GpuTopology) -> None:
        self.topology = topology
        self._counts = [0] * topology.total_cus
        self._peaks = [0] * topology.total_cus
        self._busy = 0
        self._total = 0
        # Per-SE load aggregate: Algorithm 1 ranks SEs by load on every
        # mask generation, so the sum is maintained per assign/release
        # instead of rescanned per query (integer-exact either way).
        self._se_loads = [0] * topology.num_se
        self.peak_busy_cus = 0
        self._last_tick = 0.0
        self.assigned_cu_seconds = 0.0
        self.busy_cu_seconds = 0.0

    def tick(self, now: float) -> None:
        """Advance the CU-time integrals to ``now`` (monotonic clock).

        Must be called *before* the assign/release that lands at ``now``
        so the elapsed interval is charged at the old occupancy.  Calls
        at an unchanged timestamp are exact no-ops.
        """
        elapsed = now - self._last_tick
        if elapsed <= 0.0:
            return
        if self._total:
            self.assigned_cu_seconds += self._total * elapsed
            self.busy_cu_seconds += self._busy * elapsed
        self._last_tick = now

    def assign(self, mask: CUMask) -> None:
        """Record a kernel dispatched onto every CU in ``mask``."""
        limit = self.topology.max_kernels_per_cu
        counts = self._counts
        peaks = self._peaks
        # mask.cu_tuple is the mask's cached decode — on the dispatch hot
        # path this avoids re-deriving the indices per assign/release.
        se_loads = self._se_loads
        per_se = self.topology.cus_per_se
        for cu in mask.cu_tuple:
            n = counts[cu]
            if n >= limit:
                raise OverflowError(
                    f"CU {cu} already holds {limit} kernels "
                    f"(counter width exceeded)"
                )
            if n == 0:
                self._busy += 1
            counts[cu] = n = n + 1
            se_loads[cu // per_se] += 1
            if n > peaks[cu]:
                peaks[cu] = n
        self._total += len(mask.cu_tuple)
        if self._busy > self.peak_busy_cus:
            self.peak_busy_cus = self._busy

    def release(self, mask: CUMask) -> None:
        """Record a kernel retiring from every CU in ``mask``."""
        counts = self._counts
        se_loads = self._se_loads
        per_se = self.topology.cus_per_se
        for cu in mask.cu_tuple:
            n = counts[cu]
            if n == 0:
                raise ValueError(f"CU {cu} counter underflow")
            counts[cu] = n = n - 1
            se_loads[cu // per_se] -= 1
            if n == 0:
                self._busy -= 1
        self._total -= len(mask.cu_tuple)

    def count(self, cu: int) -> int:
        """Kernels currently assigned to global CU ``cu``."""
        return self._counts[cu]

    def se_load(self, se: int) -> int:
        """Sum of kernel counts over the CUs of shader engine ``se``
        (Algorithm 1 lines 4-7).  O(1): read from the maintained
        aggregate rather than rescanned."""
        if se < 0:
            raise ValueError(f"se {se} out of range")
        return self._se_loads[se]

    def se_loads_view(self) -> list[int]:
        """Direct (read-only by convention) view of the per-SE load sums.

        Same contract as :meth:`counts_view`: the allocator's selection
        sort indexes it on every mask generation; callers must not
        mutate it.
        """
        return self._se_loads

    def counts_view(self) -> list[int]:
        """Direct (read-only by convention) view of the per-CU counts.

        The device's hot path indexes this list on every rate recompute;
        callers must not mutate it.
        """
        return self._counts

    def busy_cus(self) -> int:
        """Number of CUs with at least one resident kernel."""
        return self._busy

    def total_assigned(self) -> int:
        """Sum of all counters (kernel-CU assignments in flight).  O(1)."""
        return self._total

    def snapshot(self) -> list[int]:
        """Copy of the raw per-CU counts."""
        return list(self._counts)

    def peak_counts(self) -> list[int]:
        """Copy of the per-CU high-water marks (max residency ever seen)."""
        return list(self._peaks)

    def audit(self) -> list[str]:
        """Cross-check every maintained aggregate against a fresh rescan.

        Returns human-readable violation strings (empty = consistent).
        The maintained ``busy``/``total``/per-SE sums are integer-exact
        by construction, so *any* drift here is a real bookkeeping bug.
        """
        violations: list[str] = []
        counts = self._counts
        limit = self.topology.max_kernels_per_cu
        per_se = self.topology.cus_per_se
        for cu, n in enumerate(counts):
            if n < 0:
                violations.append(f"counters: CU {cu} count {n} < 0")
            elif n > limit:
                violations.append(
                    f"counters: CU {cu} count {n} exceeds width limit "
                    f"{limit}")
            if self._peaks[cu] < n:
                violations.append(
                    f"counters: CU {cu} peak {self._peaks[cu]} below "
                    f"live count {n}")
        busy = sum(1 for n in counts if n > 0)
        if busy != self._busy:
            violations.append(
                f"counters: busy aggregate {self._busy} != rescan {busy}")
        total = sum(counts)
        if total != self._total:
            violations.append(
                f"counters: total aggregate {self._total} != rescan {total}")
        for se in range(self.topology.num_se):
            load = sum(counts[se * per_se:(se + 1) * per_se])
            if load != self._se_loads[se]:
                violations.append(
                    f"counters: SE {se} load aggregate "
                    f"{self._se_loads[se]} != rescan {load}")
        if self.peak_busy_cus < busy:
            violations.append(
                f"counters: peak_busy_cus {self.peak_busy_cus} below "
                f"live busy count {busy}")
        return violations
