"""Conservation-law and structural invariant checkers.

Three families of invariants, each derived from the code paths they
audit rather than restated from the paper:

**Algorithm 1 mask laws** (:class:`MaskLawChecker`) — every mask the
allocator produces must be non-empty, sized between the fair-share
floor and the (isolation-capped) request, equal-split across its active
SEs under the balanced policies, and must respect the overlap limit
unless the allocation was legitimately shrunk or floored.

**Device/counters audits** — randomized launch/retire/fault programs
against a live :class:`~repro.gpu.device.GpuDevice`, calling its
:meth:`~repro.gpu.device.GpuDevice.audit_state` at quiescent points.
That method cross-checks every incrementally maintained structure
(demand sets, meter aggregates, per-CU counters vs residents,
cached rates) against fresh rescans and balances the work-conservation
ledger: Σ per-CU assigned time == Σ per-kernel mask-size × residency.

**Request accounting** (:func:`request_conservation`) — at the end of a
serving run, every queue admission is accounted for exactly once:

    Σ enqueued == completed + shed_deadline + in_flight + still_queued
                  + retry_shed + retries_scheduled

Retries that land back in a queue count on both sides (a re-put is a
new enqueue and its orphaning crash was a ``retried``), so the identity
holds with or without fault injection, including retries still in
backoff when the run ends.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.allocation import (
    DistributionPolicy,
    ResourceMaskGenerator,
    fair_share_floor,
)
from repro.gpu.counters import CUKernelCounters
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelDescriptor, KernelLaunch
from repro.gpu.topology import GpuTopology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = [
    "MaskLawChecker",
    "request_conservation",
    "run_device_program",
    "run_mask_program",
]


class MaskLawChecker:
    """Wraps a :class:`ResourceMaskGenerator` and validates every mask.

    The laws are stated against the *pre-allocation* counter state (the
    same state Algorithm 1 read), so the checker snapshots the counters
    before delegating.  Violations accumulate in :attr:`violations`.
    """

    def __init__(self, generator: ResourceMaskGenerator,
                 counters: CUKernelCounters,
                 descriptor: Optional[KernelDescriptor] = None) -> None:
        """``descriptor`` is the kernel every request is made for (read
        only by the contention-aware pool)."""
        self.generator = generator
        self.counters = counters
        self.descriptor = descriptor
        self.checked = 0
        self.violations: list[str] = []

    def generate(self, num_cus: int) -> CUMask:
        """Generate a mask through the wrapped generator and audit it."""
        counters = self.counters
        pre_counts = counters.snapshot()
        pre_total = counters.total_assigned()
        pre_busy = counters.busy_cus()
        mask = self.generator.generate(num_cus, counters, self.descriptor)
        self._check(num_cus, mask, pre_counts, pre_total, pre_busy)
        self.checked += 1
        return mask

    def _check(self, num_cus: int, mask: CUMask, pre_counts: list[int],
               pre_total: int, pre_busy: int) -> None:
        gen = self.generator
        topo = gen.topology
        label = f"mask #{self.checked} (request {num_cus})"

        # L1: never empty, always on this device.
        if mask.is_empty():
            self.violations.append(f"{label}: empty mask")
            return
        if mask.topology != topo:
            self.violations.append(f"{label}: foreign topology")
            return

        # L2: grant bounded by the fair-share floor and the
        # (isolation-capped) effective request.
        requested = max(1, min(num_cus, topo.total_cus))
        floor = fair_share_floor(topo.total_cus, pre_total)
        effective = requested
        if gen.overlap_limit == 0:
            free = topo.total_cus - pre_busy
            effective = min(requested, max(floor, free))
        floor_capped = min(floor, effective)
        count = mask.count()
        if not floor_capped <= count <= effective:
            self.violations.append(
                f"{label}: grant {count} outside "
                f"[{floor_capped}, {effective}]")

        # L3: balanced policies under reshape produce equal-split masks
        # on exactly the number of SEs the distribution targets demand.
        # (A completed selection pass grants each chosen SE its full
        # target, so the per-SE counts match the balanced divmod shape.)
        if gen.reshape and gen.policy is not DistributionPolicy.PACKED:
            active = [n for n in mask.per_se_counts() if n]
            if max(active) - min(active) > 1:
                self.violations.append(
                    f"{label}: per-SE split {active} not within +/-1")
            if gen.policy is DistributionPolicy.CONSERVED:
                want_ses = -(-count // topo.cus_per_se)
            else:  # DISTRIBUTED spreads over every SE it can reach
                want_ses = min(count, topo.num_se)
            if len(active) != want_ses:
                self.violations.append(
                    f"{label}: {gen.policy.value} grant of {count} CUs on "
                    f"{len(active)} SEs, expected {want_ses}")

        # L4: the overlap limit binds unless the allocation was shrunk
        # below the effective request or pinned at the floor (the two
        # legitimate "we may allow them to overlap" escapes).
        occupied = sum(1 for cu in mask.cu_tuple if pre_counts[cu] > 0)
        if not (occupied <= gen.overlap_limit
                or count < effective
                or count <= floor_capped):
            self.violations.append(
                f"{label}: full-size grant overlaps {occupied} occupied "
                f"CUs > limit {gen.overlap_limit}")


def _over_budget_device(topology: GpuTopology
                        ) -> tuple[GpuDevice, KernelDescriptor]:
    """A device held at twice its bandwidth budget, and a kernel to place.

    Two memory-streaming kernels sit resident on the full device (its
    clock never runs), so the contention-aware pool's interference
    penalty is live for every request of the returned memory-bound
    kernel.
    """
    device = GpuDevice(Simulator(), topology)
    kernel = KernelDescriptor(name="check_stream",
                              workgroups=topology.total_cus,
                              wg_duration=1.0, mem_intensity=1.0)
    for _ in range(2):
        device.launch(KernelLaunch(descriptor=kernel),
                      CUMask.all_cus(topology))
    return device, kernel


def run_mask_program(
    seed: int,
    iterations: int = 400,
    policy: DistributionPolicy = DistributionPolicy.CONSERVED,
    overlap_limit: Optional[int] = None,
    reshape: bool = True,
    topology: Optional[GpuTopology] = None,
    audit_every: int = 50,
    allocation: str = "krisp",
    stats_out: Optional[dict] = None,
) -> list[str]:
    """Randomized mask churn under the mask-law checker.

    Generates, assigns, and retires masks against live counters with a
    seeded request-size stream, auditing the counters periodically and
    after full drain.  Returns every violation observed.

    ``allocation`` picks the generator: Algorithm 1 (``"krisp"``) or
    the pool (``"pooled"``, ``"pooled-contention"``), whose lawfulness
    contract says every pool-served mask satisfies L1-L4 at the original
    request — so the identical checker and residency pattern apply.  The
    contention churn places a memory-bound kernel on a device over its
    bandwidth budget, so the interference bias actually scores.
    ``stats_out`` (when given) receives the pool's
    :meth:`~repro.core.pools.PooledMaskGenerator.pool_stats`.
    """
    topo = topology or GpuTopology.mi50()
    descriptor = None
    if allocation == "krisp":
        generator = ResourceMaskGenerator(
            topo, policy=policy, overlap_limit=overlap_limit,
            reshape=reshape)
        label = "maskgen"
    else:
        from repro.core.pools import PooledMaskGenerator

        device = None
        if allocation == "pooled-contention":
            device, descriptor = _over_budget_device(topo)
        generator = PooledMaskGenerator(
            topo, policy=policy, overlap_limit=overlap_limit,
            reshape=reshape, contention=device is not None, device=device)
        label = "poolgen"
    counters = CUKernelCounters(topo)
    checker = MaskLawChecker(generator, counters, descriptor)
    rng = RngRegistry(seed=seed).stream(
        f"check/{label}/{policy.value}/{overlap_limit}")
    live: deque = deque()
    violations: list[str] = []
    for i in range(iterations):
        mask = checker.generate(int(rng.integers(1, topo.total_cus + 1)))
        counters.assign(mask)
        live.append(mask)
        # Vary residency between near-idle and heavily loaded so the
        # floor, the isolation cap, and the overlap budget all bind.
        keep = int(rng.integers(0, 28))
        while len(live) > keep:
            counters.release(live.popleft())
        if i % audit_every == 0:
            violations.extend(counters.audit())
    while live:
        counters.release(live.popleft())
    violations.extend(counters.audit())
    if stats_out is not None and allocation != "krisp":
        stats_out.update(generator.pool_stats())
    return checker.violations + violations


def _program_descriptors(rng) -> list[KernelDescriptor]:
    """A seeded handful of kernel shapes spanning the model regimes."""
    descriptors = []
    for index in range(6):
        descriptors.append(KernelDescriptor(
            name=f"check_kernel_{index}",
            workgroups=int(rng.integers(1, 400)),
            wg_duration=float(rng.uniform(1e-6, 2e-5)),
            occupancy=int(rng.integers(1, 6)),
            mem_intensity=float(rng.uniform(0.0, 1.0)),
            flat_time=float(rng.uniform(0.0, 5e-5)),
        ))
    return descriptors


def run_device_program(
    seed: int,
    steps: int = 150,
    full_recompute: Optional[bool] = None,
    with_faults: bool = True,
    audit_every: int = 25,
    topology: Optional[GpuTopology] = None,
) -> list[str]:
    """Randomized launch/retire/fault program with periodic full audits.

    Drives a :class:`GpuDevice` through a seeded schedule of kernel
    launches (masks from a live Algorithm-1 generator), fault-scale and
    bandwidth-pressure changes, and partial drains, calling
    :meth:`GpuDevice.audit_state` at quiescent points and after the
    final drain.  ``full_recompute`` pins the recompute mode regardless
    of the ``REPRO_FULL_RECOMPUTE`` environment, so differential tests
    can audit both paths explicitly.
    """
    sim = Simulator()
    device = GpuDevice(sim, topology=topology, full_recompute=full_recompute)
    topo = device.topology
    generator = ResourceMaskGenerator(topo)
    rng = RngRegistry(seed=seed).stream("check/device")
    descriptors = _program_descriptors(rng)
    violations: list[str] = []
    bandwidth_injected = 0.0

    for step in range(steps):
        sim.run(until=sim.now + float(rng.uniform(0.0, 3e-4)))
        op = float(rng.random())
        if op < 0.62 or not device.busy():
            descriptor = descriptors[int(rng.integers(0, len(descriptors)))]
            mask = generator.generate(
                int(rng.integers(1, topo.total_cus + 1)), device.counters)
            device.launch(KernelLaunch(descriptor=descriptor,
                                       tag=f"check-{step % 3}"), mask)
        elif with_faults and op < 0.72:
            device.set_fault_latency_scale(float(rng.uniform(0.5, 3.0)))
        elif with_faults and op < 0.78:
            device.set_fault_latency_scale(1.0)
        elif with_faults and op < 0.88:
            amount = float(rng.uniform(0.05, 0.6))
            device.add_fault_bandwidth_demand(amount)
            bandwidth_injected += amount
        elif with_faults and bandwidth_injected > 0.0:
            device.add_fault_bandwidth_demand(-bandwidth_injected)
            bandwidth_injected = 0.0
        if step % audit_every == 0:
            violations.extend(device.audit_state())

    sim.run()
    device.finalize()
    violations.extend(device.audit_state())
    if device.busy():
        violations.append(
            f"device program: {device.running_count()} kernels still "
            "resident after drain")
    return violations


def request_conservation(setup, injector=None) -> list[str]:
    """End-of-run request-accounting identity for one serving cell.

    ``setup`` is the live :class:`~repro.server.setup.ServingSetup`
    after the run; ``injector`` the
    :class:`~repro.faults.injector.FaultInjector` or ``None``.  Every
    queue admission must be disposed of exactly once; see the module
    docstring for why retry re-puts balance.
    """
    enqueued = sum(queue.enqueued for queue in setup.queues)
    still_queued = sum(len(queue) for queue in setup.queues)
    completed = sum(len(worker.stats.completed) for worker in setup.workers)
    shed_deadline = sum(worker.stats.shed_deadline
                        for worker in setup.workers)
    in_flight = sum(1 for worker in setup.workers
                    if worker.in_flight is not None)
    retried = injector.retried if injector is not None else 0
    retry_shed = injector.shed_retries if injector is not None else 0
    accounted = (completed + shed_deadline + in_flight + still_queued
                 + retried + retry_shed)
    if enqueued != accounted:
        return [
            "request conservation broken: "
            f"enqueued {enqueued} != completed {completed} "
            f"+ shed_deadline {shed_deadline} + in_flight {in_flight} "
            f"+ queued {still_queued} + retried {retried} "
            f"+ retry_shed {retry_shed} = {accounted}"
        ]
    return []
