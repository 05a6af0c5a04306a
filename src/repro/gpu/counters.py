"""Per-CU kernel counters (the paper's *Resource Monitor*).

KRISP's resource-mask generation (Algorithm 1) needs to know how many
kernels are currently assigned to every CU.  The paper adds 5-bit counters
per CU (32 concurrent streams max) to the command processor; this module is
that structure, updated by the device on every kernel dispatch/retire and
read by the allocator.

The counters are *packed lanes*: one Python int holds an 8-bit lane per
CU (lane *i*, bits ``8i .. 8i+7``, counts the kernels on CU *i*).  A
mask carries the same layout precomputed (:attr:`CUMask.lanes_ones`, a 1
in each enabled CU's lane, and :attr:`CUMask.lanes_high`, each enabled
lane's bit 7), so assign and release are one add or subtract of
``lanes_ones``, and every lane-wise test is one add of a bias plus one
``&`` with the mask's high bits: a lane holding ``v`` plus ``b`` sets its
bit 7 exactly when ``v + b >= 128``, and no lane carries into the next
because counts stay within ``max_kernels_per_cu <= 127``.

- busy (``v >= 1``): bias ``0x7F``; overflow (``v >= limit``): bias
  ``128 - limit``; underflow (``v == 0``): the busy test, inverted.
- shared (``v >= 2``, :meth:`CUKernelCounters.shared`): bias ``126``.
  :meth:`GpuDevice._effective_latency
  <repro.gpu.device.GpuDevice._effective_latency>` reads it to return a
  kernel's wave-quantised floor latency before its per-CU capacity loop
  whenever the kernel is alone on its CUs.
- busy anywhere on the mask (:meth:`CUKernelCounters.busy_on`).  With
  ``shared`` it tells the device when a launch or retirement leaves the
  CUs to no other kernel, so its rate dirty set needs no resident scan.

Every check covers the whole mask before anything is written, so a
refused assign or release leaves the counters untouched.  The cost of a
dispatch or retire no longer grows with the mask's width: one
assign+release pair takes 1.1–2.1 µs at every width from 4 to 60 CUs,
where the per-CU list walk it replaced took 1.4–2.1 µs at 4 CUs and
13–17 µs at 60 (2-core VM, CPython 3.11).
"""

from __future__ import annotations

from repro.gpu.cu_mask import CUMask
from repro.gpu.topology import GpuTopology

__all__ = ["CUKernelCounters"]


class CUKernelCounters:
    """Tracks the number of kernels assigned to each compute unit.

    Besides the live counts the structure keeps ``peak_busy_cus`` (the
    maximum number of simultaneously busy CUs — the cell's peak CU
    occupancy, surfaced in
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
        self._total_cus = total_cus = topology.total_cus
        ones = int.from_bytes(b"\x01" * total_cus, "little")
        # The packed per-CU counts (see the module docstring) and the
        # lane-wise biases of its tests.
        self._lanes = 0
        self._busy_bias = 0x7F * ones
        self._shared_bias = 126 * ones
        self._full_bias = (128 - topology.max_kernels_per_cu) * ones
        self._busy = 0
        self._total = 0
        # Per-SE load aggregate: Algorithm 1 ranks SEs by load on every
        # mask generation, so the sum is maintained per assign/release
        # (in place: :meth:`se_loads_view` hands out this list).
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

    @staticmethod
    def _first_cu(flags: int) -> int:
        """The lowest CU whose lane flag (bit 7) is set in ``flags``."""
        return ((flags & -flags).bit_length() - 1) >> 3

    def assign(self, mask: CUMask) -> None:
        """Record a kernel dispatched onto every CU in ``mask``."""
        lanes = self._lanes
        high = mask.lanes_high
        full = (lanes + self._full_bias) & high
        if full:
            raise OverflowError(
                f"CU {self._first_cu(full)} already holds "
                f"{self.topology.max_kernels_per_cu} kernels "
                f"(counter width exceeded)"
            )
        size = mask.bits.bit_count()
        self._busy += size - ((lanes + self._busy_bias) & high).bit_count()
        self._lanes = lanes + mask.lanes_ones
        self._total += size
        se_loads = self._se_loads
        for se, n in mask.se_counts:
            se_loads[se] += n
        if self._busy > self.peak_busy_cus:
            self.peak_busy_cus = self._busy

    def release(self, mask: CUMask) -> None:
        """Record a kernel retiring from every CU in ``mask``."""
        lanes = self._lanes
        high = mask.lanes_high
        empty = ~(lanes + self._busy_bias) & high
        if empty:
            raise ValueError(f"CU {self._first_cu(empty)} counter underflow")
        size = mask.bits.bit_count()
        self._busy -= size - ((lanes + self._shared_bias) & high).bit_count()
        self._lanes = lanes - mask.lanes_ones
        self._total -= size
        se_loads = self._se_loads
        for se, n in mask.se_counts:
            se_loads[se] -= n

    def shared(self, mask: CUMask) -> bool:
        """Whether some CU of ``mask`` holds at least two kernels."""
        return bool((self._lanes + self._shared_bias) & mask.lanes_high)

    def busy_on(self, mask: CUMask) -> bool:
        """Whether some CU of ``mask`` holds at least one kernel."""
        return bool((self._lanes + self._busy_bias) & mask.lanes_high)

    def count(self, cu: int) -> int:
        """Kernels currently assigned to global CU ``cu``."""
        if not 0 <= cu < self._total_cus:
            raise IndexError(f"cu index {cu} out of range")
        return self._lanes >> (cu << 3) & 0xFF

    def se_load(self, se: int) -> int:
        """Sum of kernel counts over the CUs of shader engine ``se``
        (Algorithm 1 lines 4-7).  O(1): read from the maintained
        aggregate rather than rescanned."""
        if se < 0:
            raise ValueError(f"se {se} out of range")
        return self._se_loads[se]

    def se_loads_view(self) -> list[int]:
        """Direct (read-only by convention) view of the per-SE load sums.

        The allocator's selection sort indexes it on every mask
        generation; callers must not mutate it.
        """
        return self._se_loads

    def busy_cus(self) -> int:
        """Number of CUs with at least one resident kernel."""
        return self._busy

    def total_assigned(self) -> int:
        """Sum of all counters (kernel-CU assignments in flight).  O(1)."""
        return self._total

    def snapshot(self) -> bytes:
        """The per-CU counts, one byte per CU (byte *i* = CU *i*).

        Indexes like a list of ints and is hashable, so the allocators
        key their memos on it.
        """
        return self._lanes.to_bytes(self._total_cus, "little")

    def audit(self) -> list[str]:
        """Cross-check every maintained aggregate against a fresh rescan.

        Returns human-readable violation strings (empty = consistent).
        The maintained ``busy``/``total``/per-SE sums are integer-exact
        by construction, so *any* drift here is a real bookkeeping bug.
        """
        violations: list[str] = []
        topo = self.topology
        if self._lanes < 0 or self._lanes >> (8 * topo.total_cus):
            violations.append(
                f"counters: packed lanes 0x{self._lanes:x} outside the "
                f"{topo.total_cus}-CU device")
            return violations
        counts = self.snapshot()
        limit = topo.max_kernels_per_cu
        for cu, n in enumerate(counts):
            if n > limit:
                violations.append(
                    f"counters: CU {cu} count {n} exceeds width limit "
                    f"{limit}")
        busy = sum(1 for n in counts if n > 0)
        if busy != self._busy:
            violations.append(
                f"counters: busy aggregate {self._busy} != rescan {busy}")
        total = sum(counts)
        if total != self._total:
            violations.append(
                f"counters: total aggregate {self._total} != rescan {total}")
        per_se = topo.cus_per_se
        for se in range(topo.num_se):
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
