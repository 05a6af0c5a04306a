"""The simulated GPU device: rate-sharing kernel execution.

:class:`GpuDevice` owns the set of *running* kernels.  Each kernel's
instantaneous rate is derived from the dispatcher timing model
(:mod:`repro.gpu.exec_model`) given its CU mask, the current per-CU
residency, and the device-wide memory-bandwidth pool.  Whenever the
resident set changes, the affected kernels' completion events are
rescheduled at their new rates — an exact piecewise-constant-rate
(processor-sharing) model.  Per-kernel invariants are cached at launch,
memoised per (descriptor, mask), and a shared mask's per-SE CU
capacities are memoised per (mask, packed counters); the slow-path
formulas in :mod:`repro.gpu.exec_model` stay the single source of truth.

Rate recomputes are *incremental*: every state change has an exact
dirty set — the records whose CUs intersect the changed mask (read off
the packed CU counters unless the change is on shared CUs), plus the
bandwidth-demanding records when the pool moves into, out of or within
the over-budget regime (or every record, for a fault-scale change).
``_effective_latency`` depends only on those terms, so recomputing the
dirty set in launch order yields the byte-identical float sequence of
the full sweep; once the dirty set covers half the residents the device
sweeps them all instead.

Progress is credited *lazily and exactly*.  The first state change at a
new instant closes every time integral once: it appends ``now`` to an
append-only advance log, ticks the CU counters and charges the energy
meter for the elapsed segment.  A record is credited only when its rate
changes (before it is rescheduled) or when it is read
(:meth:`GpuDevice.residents`, :meth:`GpuDevice.audit_state`), by
replaying ``p = min(1, p + (tᵢ − tᵢ₋₁) / latency)`` over the intervals
logged since its last credit — the float operations of an eager sweep,
in the same order.  The log is trimmed when the device idles and,
amortised, below the oldest resident's credit index.
``GpuDevice(full_recompute=True)`` (default: the ``REPRO_FULL_RECOMPUTE``
flag) is the validation oracle: it sweeps every rate on every change,
credits every resident eagerly in its own loop and rescans the resident
set for the meter.

A retirement fires the record's ``done`` signal (with the record as its
value), then runs its ``on_complete`` hook, then releases ``done``: no
record↔signal cycle survives, so a retired kernel is freed by reference
counting while :meth:`Simulator.run` pauses the cyclic collector.  The
device also owns the per-CU kernel counters (the *Resource Monitor*
KRISP's allocator reads) and the energy meter.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from operator import add, sub
from typing import Callable, Iterable, Optional

from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.exec_model import (
    ExecutionModelConfig,
    bandwidth_demand,
    contended_latency,
    effective_cus_per_se,
    isolated_latency,
    memory_throttle,
    split_workgroups,
)
from repro.gpu.kernel import KernelLaunch
from repro.gpu.power import EnergyMeter, PowerModel
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["GpuDevice", "KernelRecord"]

# Progress is a fraction in [0, 1]; treat anything this close to done as
# done to absorb float accumulation across many rate changes.
_PROGRESS_EPS = 1e-9

# Trim the advance log once it outgrows this (or twice its last size).
_LOG_TRIM_MIN = 64

# Clear the shared-capacity memo once it holds this many residency states.
_CAPACITY_CACHE_LIMIT = 4096


@dataclass(slots=True)
class KernelRecord:
    """Bookkeeping for one running (or completed) kernel.

    ``slots=True`` because the rate-recompute loop touches several
    attributes per resident per state change.  ``progress`` is credited
    lazily: read it through :meth:`GpuDevice.residents` while the kernel
    runs.  ``done`` is released (set to ``None``) once the kernel has
    retired and its signal has fired with the record as value.
    """

    launch: KernelLaunch
    mask: CUMask
    done: Optional[Signal]
    start_time: float
    progress: float = 0.0
    eff_latency: float = 0.0
    end_time: Optional[float] = None
    #: Engine seq of the pending completion (-1 before the first).
    completion_seq: int = field(default=-1, repr=False)
    on_complete: Optional[Callable[["KernelRecord"], None]] = field(
        default=None, repr=False
    )
    # Launch-time invariants cached for the rate recompute hot path.
    floor_latency: float = field(default=0.0, repr=False)
    demand: float = field(default=0.0, repr=False)
    se_shares: tuple[tuple[int, float, tuple[int, ...]], ...] = field(
        default=(), repr=False
    )
    occupied_per_se: tuple[int, ...] = field(default=(), repr=False)
    # Per-device launch order (dirty sets are replayed in this order so
    # the incremental path schedules events exactly like the full sweep)
    # and the completion callback, bound once instead of per reschedule.
    seq_no: int = field(default=0, repr=False)
    complete_cb: Optional[Callable[[], None]] = field(
        default=None, repr=False)
    # Advance-log index through which ``progress`` has been credited.
    credited: int = field(default=0, repr=False)


class GpuDevice:
    """A whole simulated GPU: execution, counters, and energy."""

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[GpuTopology] = None,
        exec_config: Optional[ExecutionModelConfig] = None,
        power_model: Optional[PowerModel] = None,
        record_trace: bool = False,
        full_recompute: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology or GpuTopology.mi50()
        self.exec_config = exec_config or ExecutionModelConfig()
        self.power_model = power_model or PowerModel()
        self.counters = CUKernelCounters(self.topology)
        self.meter = EnergyMeter(self.power_model, self.topology)
        self.record_trace = record_trace
        self.trace: list[KernelRecord] = []
        self.kernels_completed = 0
        # Work-conservation ledger: Σ mask.count() × residency over every
        # retired kernel.  Together with the live residents' partial work
        # it must balance the counters' ``assigned_cu_seconds`` integral
        # (the repro.check work-conservation invariant).  Pure
        # accounting — never read by the rate model.
        self.work_cu_seconds = 0.0
        self._running: dict[int, KernelRecord] = {}
        self._total_demand = 0.0
        # ``full_recompute=None`` defers to the REPRO_FULL_RECOMPUTE env
        # flag; true selects the O(all-residents) sweep, eager progress
        # and the meter rescan (the validation oracle for the incremental
        # path).  The flag is strict, so a typo such as
        # ``no`` cannot silently select the oracle.
        if full_recompute is None:
            flag = os.environ.get("REPRO_FULL_RECOMPUTE", "").lower()
            if flag not in ("", "0", "false", "1", "true"):
                raise ValueError(
                    f"REPRO_FULL_RECOMPUTE={flag!r}: expected unset, "
                    "'', 0, 1, false or true")
            full_recompute = flag in ("1", "true")
        self.full_recompute = full_recompute
        # Incremental-recompute state, keyed by per-device launch seq
        # numbers: the seq numbers with positive bandwidth demand (the
        # reach of the over-budget throttle term), the per-SE
        # occupied-CU aggregate (integer-exact, so the meter never
        # rescans the resident set), a per-device launch sequence, and
        # the memoised (descriptor, mask) launch invariants.
        self._demand_ids: set[int] = set()
        self._occupied_per_se: list[int] = [0] * self.topology.num_se
        self._next_seq_no = 0
        self._invariant_cache: dict = {}
        # Contended rates: the per-SE CU capacities of a shared mask,
        # memoised on (mask bits, packed counter lanes) and cleared at
        # _CAPACITY_CACHE_LIMIT states, and the capacity one CU holding
        # r kernels lends each of them, (1/r) ** alpha, indexed by r.
        self._capacity_cache: dict = {}
        alpha = self.exec_config.intra_cu_alpha
        self._cu_capacity = tuple(
            (1.0 / r) ** alpha if r > 1 else 1.0
            for r in range(self.topology.max_kernels_per_cu + 1))
        # Lazy progress: the instants at which the time integrals closed,
        # from absolute index ``_log_base`` on.  Full-recompute mode
        # credits eagerly and never appends.
        self._last_advance = 0.0
        self._advance_log: list[float] = [0.0]
        self._log_base = 0
        self._log_limit = _LOG_TRIM_MIN
        # Fault-injection state (repro.faults): a global straggler
        # multiplier, per-stream-tag multipliers, and external bandwidth
        # pressure.  All default to the no-fault identity; the hot path
        # guards on those identities so a fault-free run computes the
        # exact same float sequence as before the fault layer existed.
        self._fault_scale = 1.0
        self._fault_tag_scale: dict[str, float] = {}
        self._fault_demand = 0.0
        # Pool-switch accounting (repro.core.pools): repacks charged by
        # the pooled allocator.  Pure bookkeeping — never folded into
        # kernel latency, so the krisp path's float sequences are
        # untouched.
        self.pool_switches = 0
        self.pool_switch_cost_s = 0.0

    # -- public API -------------------------------------------------------
    def launch(
        self,
        launch: KernelLaunch,
        mask: CUMask,
        on_complete: Optional[Callable[[KernelRecord], None]] = None,
        done: Optional[Signal] = None,
    ) -> KernelRecord:
        """Start executing ``launch`` on the CUs in ``mask``.

        Returns the kernel's record; its ``done`` signal fires at
        retirement (with the record as value), then ``on_complete(record)``
        runs.  ``done`` supplies that signal — the command processor
        passes the dispatch packet's completion signal, so retirement
        fires it directly; by default the device allocates one.  A
        supplied ``done`` must not have fired yet.  The mask must be
        non-empty and belong to this device.
        """
        if done is not None and done.fired:
            raise ValueError(
                f"kernel {launch.descriptor.name}: done signal already fired")
        if mask.topology != self.topology:
            raise ValueError("mask topology does not match device")
        if mask.is_empty():
            raise ValueError(
                f"kernel {launch.descriptor.name}: cannot launch on an "
                "empty CU mask"
            )
        now = self.sim._now
        if now != self._last_advance:
            self._advance_to(now)
        self.counters.assign(mask)
        # Device bookkeeping is keyed by the per-device launch sequence
        # number (not the global launch_id): dirty sets of seq numbers
        # sort back into launch order with a plain C-level int sort.
        seq_no = self._next_seq_no
        self._next_seq_no += 1
        record = KernelRecord(
            launch=launch,
            mask=mask,
            # Unnamed: per-launch f-string names showed up in profiles
            # and nothing reads them (debuggers can reconstruct the id
            # from the record).
            done=Signal(self.sim) if done is None else done,
            start_time=now,
            on_complete=on_complete,
            seq_no=seq_no,
            complete_cb=partial(self._complete, seq_no),
            credited=self._log_base + len(self._advance_log) - 1,
        )
        self._cache_invariants(record)
        old_total = self._total_demand
        self._total_demand += record.demand
        self._running[seq_no] = record
        if record.demand > 0.0:
            self._demand_ids.add(seq_no)
        self._occupied_per_se = list(
            map(add, self._occupied_per_se, record.occupied_per_se))
        if self.record_trace:
            self.trace.append(record)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.kernel_launched(record)
        self._recompute_rates(self._dirty_after_mask_change(record, old_total))
        return record

    def busy(self) -> bool:
        """Whether any kernel is currently executing."""
        return bool(self._running)

    def running_count(self) -> int:
        """Number of kernels currently executing."""
        return len(self._running)

    def residents(self) -> list[KernelRecord]:
        """The running kernels in launch order, each with its progress
        credited through the device's last state change."""
        end = self._log_base + len(self._advance_log) - 1
        for record in self._running.values():
            if record.credited != end:
                self._credit(record)
        return list(self._running.values())

    @property
    def bandwidth_demand(self) -> float:
        """Total bandwidth demand of the resident kernels (budget units)."""
        return self._total_demand

    def finalize(self) -> None:
        """Close the time integrals (progress, counters, energy) at the
        current time; call before reading ``meter.energy_joules``."""
        now = self.sim._now
        if now != self._last_advance:
            self._advance_to(now)

    def charge_pool_switch(self, cost_s: float) -> None:
        """Account one pooled-allocator repack/pool-switch.

        ``cost_s`` is the modelled wall cost of rebinding a queue to a
        different pool entry (an IOCTL-sized constant).  Accounting
        only: the simulator clock and kernel latencies are unaffected.
        """
        if cost_s < 0:
            raise ValueError("pool-switch cost must be >= 0")
        self.pool_switches += 1
        self.pool_switch_cost_s += cost_s

    # -- fault injection ----------------------------------------------------
    @property
    def fault_latency_scale(self) -> float:
        """Current global straggler multiplier (1.0 = no fault active)."""
        return self._fault_scale

    def set_fault_latency_scale(self, scale: float,
                                tag: Optional[str] = None) -> None:
        """Multiply kernel latencies by ``scale`` from now on.

        ``tag=None`` scales every kernel (a device-wide straggler
        window); a stream tag scales only that worker's kernels.  Pass
        ``1.0`` to end the window.  Running kernels are credited with
        progress at their old rate and rescheduled at the new one.
        """
        if scale <= 0:
            raise ValueError("latency scale must be > 0")
        self.finalize()
        if tag is None:
            self._fault_scale = scale
        elif scale == 1.0:
            self._fault_tag_scale.pop(tag, None)
        else:
            self._fault_tag_scale[tag] = scale
        # A scale change (or the tag map becoming empty/non-empty) can
        # reach every resident kernel; fault windows are rare, so the
        # full sweep is the exact dirty set here.
        self._recompute_rates()

    def add_fault_bandwidth_demand(self, demand: float) -> None:
        """Inject (or with a negative value, retire) external bandwidth
        pressure, throttling resident memory-bound kernels."""
        self.finalize()
        old_fault = self._fault_demand
        self._fault_demand += demand
        if self._fault_demand < 0.0:
            self._fault_demand = 0.0
        dirty: set[int] = set()
        if self._regime_crossed(self._total_demand + old_fault,
                                self._total_demand + self._fault_demand):
            dirty |= self._demand_ids
        self._recompute_rates(dirty)

    # -- internals ----------------------------------------------------------
    def _cache_invariants(self, record: KernelRecord) -> None:
        """Precompute everything about (kernel, mask) the hot path needs.

        Memoised per (descriptor, mask): a serving trace replays the same
        frozen descriptors, and the allocator converges onto stable
        partitions, so steady state is nearly all hits.
        """
        desc = record.launch.descriptor
        key = (desc, record.mask)
        cached = self._invariant_cache.get(key)
        if cached is None:
            floor = isolated_latency(desc, record.mask, self.exec_config)
            demand = bandwidth_demand(desc, record.mask)
            per_se = record.mask.per_se_counts()
            shares = split_workgroups(desc.workgroups, per_se)
            cus_by_se = record.mask.cus_by_se
            se_shares = []
            occupied = [0] * self.topology.num_se
            for se, (share, cus) in enumerate(zip(shares, per_se)):
                if cus == 0:
                    continue
                se_cus = cus_by_se[se]
                # Precompute share * wg_duration / occupancy: dividing by
                # the SE's effective capacity yields its shared execution
                # time.
                weight = share * desc.wg_duration / desc.occupancy
                se_shares.append((se, weight, se_cus))
                # CUs that actually hold workgroups (for the power
                # model): a wide mask under a small grid leaves most
                # allocated CUs idle.
                occupied[se] = min(cus, -(-share // desc.occupancy))
            cached = (floor, demand, tuple(se_shares), tuple(occupied))
            self._invariant_cache[key] = cached
        (record.floor_latency, record.demand,
         record.se_shares, record.occupied_per_se) = cached

    def _effective_latency(self, record: KernelRecord) -> float:
        """Latency under current residency and bandwidth (fast path).

        A kernel alone on its CUs runs at its wave-quantised floor, so
        the per-SE capacities are only read when some CU of its mask
        holds two or more kernels.  They depend on the mask and the
        counters alone, so every kernel on the same mask at the same
        residency shares one memo entry; a miss sums the per-CU
        capacities in CU order, the additions a fresh sum makes.
        """
        config = self.exec_config
        desc = record.launch.descriptor
        latency = record.floor_latency
        counters = self.counters
        mask = record.mask
        if counters.shared(mask):
            key = (mask.bits, counters.lanes())
            cache = self._capacity_cache
            capacities = cache.get(key)
            if capacities is None:
                residents = counters.snapshot()
                cu_capacity = self._cu_capacity
                per_se = []
                for _se, _weight, se_cus in record.se_shares:
                    capacity = 0.0
                    for cu in se_cus:
                        capacity += cu_capacity[residents[cu]]
                    per_se.append(capacity)
                capacities = tuple(per_se)
                if len(cache) >= _CAPACITY_CACHE_LIMIT:
                    cache.clear()
                cache[key] = capacities
            shared = 0.0
            for (_se, weight, _cus), capacity in zip(record.se_shares,
                                                     capacities):
                se_time = weight / capacity
                if se_time > shared:
                    shared = se_time
            candidate = desc.flat_time + shared + config.launch_overhead
            if candidate > latency:
                latency = candidate
        total_demand = self._total_demand
        if self._fault_demand > 0.0:
            total_demand = total_demand + self._fault_demand
        if (total_demand > config.mem_bandwidth_budget
                and record.demand > 0.0):
            bw_share = config.mem_bandwidth_budget / total_demand
            throttle = (1.0 - desc.mem_intensity) + desc.mem_intensity * bw_share
            latency /= throttle
        if self._fault_scale != 1.0 or self._fault_tag_scale:
            latency *= self._fault_scale * self._fault_tag_scale.get(
                record.launch.tag, 1.0)
        return latency

    def _advance_to(self, now: float) -> None:
        """Close the time integrals at the first state change at ``now``.

        Charges the segment since the last state change at the resident
        set that held through it: the progress log (or, in full-recompute
        mode, an eager credit of every resident), the CU counters and the
        energy meter.  Callers skip it when ``now`` equals
        ``_last_advance``, so it runs once per instant.
        """
        if self.full_recompute:
            elapsed = now - self._last_advance
            occupied = [0] * self.topology.num_se
            for record in self._running.values():
                lat = record.eff_latency
                if lat > 0:
                    progress = record.progress + elapsed / lat
                    record.progress = 1.0 if progress > 1.0 else progress
                occupied = list(map(add, occupied, record.occupied_per_se))
        else:
            log = self._advance_log
            log.append(now)
            if len(log) > self._log_limit:
                self._trim_log()
            occupied = self._occupied_per_se
        self._last_advance = now
        self.counters.tick(now)
        # Power follows *occupied* CUs (those actually holding
        # workgroups), capped at each SE's physical size.
        cap = self.topology.cus_per_se
        busy = active = 0
        for n in occupied:
            if n:
                active += 1
                busy += n if n < cap else cap
        self.meter.advance(now, busy, active)

    def _credit(self, record: KernelRecord) -> None:
        """Credit ``record`` with the progress logged since its last credit.

        The record's rate held over every logged interval since then (a
        rate change credits first), so replaying ``p + (tᵢ − tᵢ₋₁) / lat``
        clamped at 1.0 is the exact float sequence of an eager sweep.
        """
        log = self._advance_log
        base = self._log_base
        lat = record.eff_latency
        if lat > 0:
            progress = record.progress
            prev = log[record.credited - base]
            for i in range(record.credited - base + 1, len(log)):
                t = log[i]
                progress = progress + (t - prev) / lat
                if progress > 1.0:
                    progress = 1.0
                prev = t
            record.progress = progress
        record.credited = base + len(log) - 1

    def _trim_log(self) -> None:
        """Drop the log entries below the oldest resident's credit index."""
        log = self._advance_log
        oldest = min((record.credited for record in self._running.values()),
                     default=self._log_base + len(log) - 1)
        del log[:oldest - self._log_base]
        self._log_base = oldest
        self._log_limit = max(_LOG_TRIM_MIN, 2 * len(log))

    def _regime_crossed(self, old_total: float, new_total: float) -> bool:
        """Whether a total-demand change can reach any resident's latency.

        The bandwidth term only applies while the effective total exceeds
        the budget, so a move entirely inside the under-budget region
        touches nothing; any move into, out of, or within the over-budget
        region dirties every record with positive demand.
        """
        if old_total == new_total:
            return False
        budget = self.exec_config.mem_bandwidth_budget
        return old_total > budget or new_total > budget

    def _dirty_after_mask_change(self, record: KernelRecord,
                                 old_total: float) -> set[int]:
        """Exact dirty set after ``record`` launched or retired.

        Its CU part, the residents whose masks meet ``record.mask``, is
        the launched kernel alone when no other kernel holds its CUs,
        nobody when a retirement leaves them idle, else a scan.
        """
        running = self._running
        mask = record.mask
        launched = record.seq_no in running
        counters = self.counters
        if counters.shared(mask) if launched else counters.busy_on(mask):
            bits = mask.bits
            dirty = {seq for seq, other in running.items()
                     if other.mask.bits & bits}
        else:
            dirty = {record.seq_no} if launched else set()
        fault = self._fault_demand
        if self._regime_crossed(old_total + fault,
                                self._total_demand + fault):
            dirty |= self._demand_ids
        return dirty

    def _recompute_rates(self, dirty: Optional[set[int]] = None) -> None:
        """Recompute affected rates and reschedule their completions.

        ``dirty=None`` (and ``full_recompute`` mode) sweeps every
        resident.  A dirty set is replayed in launch order — the same
        relative order the full sweep visits — so both paths issue the
        identical sequence of ``schedule`` calls and the event seq
        numbers (the deterministic tie-breakers) coincide.  A record
        whose rate changes is credited at its old rate first.
        """
        running = self._running
        # Crossover to the full sweep once the dirty set covers at least
        # half the residents: sorted(dirty) + per-record dict lookups
        # cost more than the plain dict scan beyond that fraction (the
        # incremental path's win on the colo4/maskgen bench shapes was
        # negative at ~90% dirty).  Both paths visit the same records in
        # the same relative order, so the switch is bit-identical.
        if (dirty is None or self.full_recompute
                or len(dirty) * 2 >= len(running)):
            records: Iterable[KernelRecord] = running.values()
        elif len(dirty) == 1:
            # Singletons (the common case for isolated launches) skip
            # the sort machinery.
            records = (running[next(iter(dirty))],)
        else:
            # Dirty entries are per-device seq numbers, so a plain int
            # sort replays them in launch order.
            records = map(running.__getitem__, sorted(dirty))
        effective_latency = self._effective_latency
        sim = self.sim
        schedule = sim.schedule
        now = sim._now
        end = self._log_base + len(self._advance_log) - 1
        for record in records:
            latency = effective_latency(record)
            seq = record.completion_seq
            if seq >= 0:
                # A resident's completion is always live: _complete
                # drops the record before it recomputes.
                if latency == record.eff_latency:
                    continue  # rate unchanged; completion still valid
                sim.cancel(seq)
            if record.credited != end:
                self._credit(record)
            record.eff_latency = latency
            remaining = 1.0 - record.progress
            # Inlined schedule_in: delay is >= 0 by construction and
            # ``now + delay`` is the exact float schedule_in computes.
            delay = 0.0 if remaining <= _PROGRESS_EPS else remaining * latency
            record.completion_seq = schedule(now + delay, record.complete_cb)

    def check_rate_invariant(self) -> None:
        """Assert every resident's cached rate matches a fresh recompute.

        The incremental path's correctness contract, verifiable at any
        quiescent point: skipped (non-dirty) records must already hold
        the exact latency a full sweep would assign them.
        """
        for record in self._running.values():
            fresh = self._effective_latency(record)
            if fresh != record.eff_latency:
                raise AssertionError(
                    f"kernel {record.launch.descriptor.name} "
                    f"(launch {record.launch.launch_id}): cached rate "
                    f"{record.eff_latency!r} != fresh {fresh!r}"
                )

    def resident_work_cu_seconds(self) -> float:
        """CU-seconds accumulated so far by the still-running kernels."""
        now = self.sim._now
        return sum(record.mask.count() * (now - record.start_time)
                   for record in self._running.values())

    def audit_state(self) -> list[str]:
        """Full structural self-audit at a quiescent point.

        Cross-checks every incrementally maintained structure (the
        demand set, the occupied-CU meter aggregate, the counters, the
        cached rates) against a fresh
        rescan of the resident set, every cached rate and every
        shared-capacity memo entry against the slow-path formulas of
        :mod:`repro.gpu.exec_model`, and balances the work-conservation
        ledger.  Returns human-readable violation
        strings (empty = consistent).  Safe to call at any time between
        events; does not change any simulation state beyond advancing
        the counters' time integrals to ``now``.
        """
        violations: list[str] = []
        running = self._running
        topo = self.topology

        # Pool-switch ledger: monotone non-negative, and cost implies
        # at least one switch.
        if self.pool_switches < 0 or self.pool_switch_cost_s < 0.0:
            violations.append(
                f"pool-switch ledger negative: {self.pool_switches} "
                f"switches, {self.pool_switch_cost_s} s")
        elif self.pool_switches == 0 and self.pool_switch_cost_s != 0.0:
            violations.append(
                f"pool-switch cost {self.pool_switch_cost_s} s accrued "
                "with zero switches")

        # Counters vs the resident set (the Resource Monitor must agree
        # with the device about who is where; the dirty sets read it).
        for cu in range(topo.total_cus):
            expected = sum(1 for rec in running.values() if rec.mask.has(cu))
            if self.counters.count(cu) != expected:
                violations.append(
                    f"device: CU {cu} counter {self.counters.count(cu)} "
                    f"!= resident kernels {expected}")
        violations.extend(self.counters.audit())

        # Demand set: seq numbers with positive bandwidth demand.
        expected_demand = {seq for seq, rec in running.items()
                           if rec.demand > 0.0}
        if self._demand_ids != expected_demand:
            violations.append(
                f"device: demand set {sorted(self._demand_ids)} != "
                f"rescan {sorted(expected_demand)}")


        # Meter aggregate: occupied-CU shape of the resident set.
        occupied = [0] * topo.num_se
        for rec in running.values():
            for se, n in enumerate(rec.occupied_per_se):
                occupied[se] += n
        if occupied != self._occupied_per_se:
            violations.append(
                f"device: occupied-per-SE aggregate "
                f"{self._occupied_per_se} != rescan {occupied}")

        # Total bandwidth demand: float-summed incrementally, so allow
        # accumulation noise; at idle it must be exactly zero (the
        # _complete path resets it).
        fresh_demand = sum(rec.demand for rec in running.values())
        if not running:
            if self._total_demand != 0.0:
                violations.append(
                    f"device: idle total demand {self._total_demand!r} "
                    "!= 0.0")
        elif not math.isclose(self._total_demand, fresh_demand,
                              rel_tol=1e-9, abs_tol=1e-12):
            violations.append(
                f"device: total demand {self._total_demand!r} drifted "
                f"from rescan {fresh_demand!r}")

        # Per-record sanity: progress stays a fraction.
        for rec in self.residents():
            if not 0.0 <= rec.progress <= 1.0:
                violations.append(
                    f"device: kernel seq {rec.seq_no} progress "
                    f"{rec.progress!r} outside [0, 1]")

        # The incremental path's rate contract.
        try:
            self.check_rate_invariant()
        except AssertionError as exc:
            violations.append(f"device: rate invariant: {exc}")

        # The fast path against the slow-path formulas of exec_model,
        # from the live counters and fresh demands: CU sharing, then the
        # bandwidth throttle, then the fault scales.
        config = self.exec_config
        counts = dict(enumerate(self.counters.snapshot()))
        demands = {seq: bandwidth_demand(rec.launch.descriptor, rec.mask)
                   for seq, rec in running.items()}
        pool = sum(demands.values()) + self._fault_demand
        for seq, rec in running.items():
            desc = rec.launch.descriptor
            slow = (contended_latency(desc, rec.mask, counts, config)
                    / memory_throttle(desc, demands[seq], pool, config)
                    * (self._fault_scale
                       * self._fault_tag_scale.get(rec.launch.tag, 1.0)))
            if not math.isclose(rec.eff_latency, slow, rel_tol=1e-9):
                violations.append(
                    f"device: kernel seq {seq} latency "
                    f"{rec.eff_latency!r} != slow path {slow!r}")

        # Every shared-capacity memo entry against the slow-path
        # capacities at the residency its key records: a stale entry
        # can outlive the rates it fed, so the rate check alone misses
        # it.  Both sum the same floats in CU order, so they are equal.
        for (bits, lanes), capacities in self._capacity_cache.items():
            mask = CUMask(topo, bits)
            at_key = dict(enumerate(lanes.to_bytes(topo.total_cus,
                                                   "little")))
            fresh = tuple(cap for cap, cus in zip(
                effective_cus_per_se(mask, at_key, config.intra_cu_alpha),
                mask.per_se_counts()) if cus)
            if fresh != capacities:
                violations.append(
                    f"device: capacity memo for mask 0x{bits:x} holds "
                    f"{capacities!r} != slow path {fresh!r}")

        # Work conservation: the counters' CU-time integral must balance
        # the per-kernel ledger (retired work + live partial work).  The
        # two sides sum the same piecewise-constant integral in different
        # orders, so compare with a relative tolerance.
        self.counters.tick(self.sim._now)
        ledger = self.work_cu_seconds + self.resident_work_cu_seconds()
        integral = self.counters.assigned_cu_seconds
        if not math.isclose(integral, ledger, rel_tol=1e-6, abs_tol=1e-9):
            violations.append(
                f"device: work conservation broken — counters integral "
                f"{integral!r} CU-s != kernel ledger {ledger!r} CU-s")
        return violations

    def _complete(self, seq_no: int) -> None:
        running = self._running
        record = running.get(seq_no)
        if record is None:
            return
        now = self.sim._now
        if now != self._last_advance:
            self._advance_to(now)
        del running[seq_no]
        record.progress = 1.0
        record.end_time = now
        mask = record.mask
        self.work_cu_seconds += mask.count() * (now - record.start_time)
        self.counters.release(mask)
        self._demand_ids.discard(seq_no)
        self._occupied_per_se = list(
            map(sub, self._occupied_per_se, record.occupied_per_se))
        old_total = self._total_demand
        self._total_demand -= record.demand
        if not running:
            self._total_demand = 0.0  # absorb float drift at idle points
            self._trim_log()
        self._recompute_rates(self._dirty_after_mask_change(record, old_total))
        self.kernels_completed += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.kernel_retired(record)
        # Fire before the hook: a hook (the command processor's barrier
        # resume) then sees ``done.fired``, and the signal's waiters are
        # scheduled ahead of anything the hook schedules.  Then release
        # ``done``: the fired signal keeps the record as its value, and
        # dropping the back reference leaves no cycle for the (paused)
        # collector to find.
        record.done.fire(record)
        if record.on_complete is not None:
            record.on_complete(record)
        record.done = None
