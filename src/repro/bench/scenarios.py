"""Pinned benchmark scenarios for the simulator core.

Each scenario is a fixed, fully deterministic workload whose result can
be content-hashed, so a bench row proves two things at once: how fast
the simulator ran *and* that the optimisation being measured did not
change a single float.  The roster covers the three hot paths the
incremental-recompute work targets:

``colo4``
    The classic 4-worker co-location cell (a fig13a-shaped workload) at
    reduced scale — small enough for CI smoke runs.
``dense``
    A 48-worker KRISP-I cell at batch 1: ~45 resident kernels sharing
    60 CUs, the regime where the full O(all-residents) rate sweep is
    maximally wasteful.  This is the scenario the incremental path's
    speedup target is measured on.
``chaos``
    A guarded cell under the mixed fault schedule (crash + straggler +
    bandwidth spike + storm + perf-DB dropout), exercising the fault
    scale / bandwidth-regime dirty paths.
``maskgen``
    Pure Algorithm-1 stress: mask generation against churning per-CU
    counters, no DES at all.  Isolates the allocator.
``maskgen-pooled``
    The identical request stream served from the ECLIP-style mask pools
    (:mod:`repro.core.pools`) — timed side by side with ``maskgen``,
    the wall-time delta is the pooled policy's overhead win.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.allocation import ResourceMaskGenerator
from repro.exp.cache import result_hash
from repro.exp.chaos import build_scenario
from repro.gpu.counters import CUKernelCounters
from repro.gpu.topology import GpuTopology
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.server.options import RunOptions
from repro.server.slo import SloGuard
from repro.sim.rng import RngRegistry

__all__ = ["Scenario", "ScenarioRun", "SCENARIOS",
           "COLO4_CONFIG", "DENSE_CONFIG", "CHAOS_CONFIG", "CHAOS_GUARD",
           "chaos_faults"]

#: The pinned experiment cells, exposed as module constants so the audit
#: subsystem (:mod:`repro.check`) can replay exactly the benched cells
#: through other execution paths (pooled sweeps, the result cache, audit
#: hooks) without re-deriving them.  ``execute`` keeps using these same
#: objects, so the bench rows and the audit replays are one workload.
COLO4_CONFIG = ExperimentConfig(
    ("squeezenet",) * 4, policy="krisp-i", batch_size=8,
    seed=0, requests_scale=0.25)
DENSE_CONFIG = ExperimentConfig(
    ("squeezenet",) * 48, policy="krisp-i", batch_size=1,
    seed=0, requests_scale=0.015625)
CHAOS_CONFIG = COLO4_CONFIG
#: Fixed-deadline guard (rather than the SLO-derived default) so the
#: scenario's behaviour is pinned by this module alone.
CHAOS_GUARD = SloGuard(admission_depth=8, deadline=0.25,
                       max_retries=2, retry_backoff=1e-3)


def chaos_faults(config: ExperimentConfig = CHAOS_CONFIG):
    """The chaos scenario's fault schedule (deterministic in ``config``)."""
    return build_scenario("mixed", config)


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of one scenario execution (timing is the runner's job).

    ``batches`` is the number of distinct timestamps the engine visited
    (``Simulator.batches_drained``) — under equal-timestamp batching many
    events can share one instant, so honest throughput reporting needs
    both counts.  Non-DES scenarios (maskgen) report ``batches ==
    events``: every iteration is its own "instant".
    """

    result_hash: str
    events: int
    sim_time: float = 0.0
    batches: int = 0


@dataclass(frozen=True)
class Scenario:
    """A named, pinned benchmark workload.

    ``config`` (plus ``guard``/``faults_for`` when set) describes the
    experiment cell a DES-backed scenario runs, so differential checkers
    can replay the same cell through other execution paths; ``None`` for
    non-DES scenarios (maskgen).
    """

    name: str
    description: str
    execute: Callable[[], ScenarioRun]
    config: ExperimentConfig | None = None
    guard: SloGuard | None = None
    faults_for: Callable[[ExperimentConfig], object] | None = None


def _cell(config: ExperimentConfig, faults=None, guard=None) -> ScenarioRun:
    stats: dict = {}
    result = run_experiment(
        config, RunOptions(faults=faults, guard=guard), stats_out=stats)
    return ScenarioRun(
        result_hash=result_hash(result),
        events=stats["events_executed"],
        sim_time=stats["sim_time"],
        batches=stats.get("batches_drained", 0),
    )


def _run_colo4() -> ScenarioRun:
    return _cell(COLO4_CONFIG)


def _run_dense() -> ScenarioRun:
    return _cell(DENSE_CONFIG)


def _run_chaos() -> ScenarioRun:
    return _cell(CHAOS_CONFIG, faults=chaos_faults(CHAOS_CONFIG),
                 guard=CHAOS_GUARD)


def _churn_masks(allocator, iterations: int = 60_000) -> ScenarioRun:
    """Mask-churn core shared by ``maskgen`` and ``maskgen-pooled``.

    ``allocator`` is anything with ``generate(num_cus, counters)`` over
    the mi50 topology.  Both scenarios draw the identical request stream
    (same RNG label), so ``bench maskgen maskgen-pooled`` compares the
    two allocators on the same workload.
    """
    topology = allocator.topology
    counters = CUKernelCounters(topology)
    rng = RngRegistry(seed=0).stream("bench/maskgen")
    live: deque = deque()
    digest = hashlib.sha256()
    for _ in range(iterations):
        num_cus = int(rng.integers(1, topology.total_cus + 1))
        mask = allocator.generate(num_cus, counters)
        counters.assign(mask)
        live.append(mask)
        digest.update(mask.bits.to_bytes(16, "little"))
        # Keep ~24 kernels resident so the allocator sees a loaded device.
        while len(live) > 24:
            counters.release(live.popleft())
    while live:
        counters.release(live.popleft())
    return ScenarioRun(result_hash=digest.hexdigest(), events=iterations,
                       batches=iterations)


def _run_maskgen() -> ScenarioRun:
    """Algorithm-1 churn: generate/retire masks against live counters."""
    topology = GpuTopology.mi50()
    return _churn_masks(ResourceMaskGenerator(topology, reshape=True))


def _run_maskgen_pooled() -> ScenarioRun:
    """The same churn served from ECLIP-style mask pools."""
    from repro.core.pools import PooledMaskAllocator

    topology = GpuTopology.mi50()
    allocator = PooledMaskAllocator(
        ResourceMaskGenerator(topology, reshape=True))
    return _churn_masks(allocator)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "colo4",
            "4-worker squeezenet co-location cell (CI smoke size)",
            _run_colo4,
            config=COLO4_CONFIG,
        ),
        Scenario(
            "dense",
            "48-worker batch-1 KRISP-I cell (incremental-recompute target)",
            _run_dense,
            config=DENSE_CONFIG,
        ),
        Scenario(
            "chaos",
            "guarded 4-worker cell under the mixed fault schedule",
            _run_chaos,
            config=CHAOS_CONFIG,
            guard=CHAOS_GUARD,
            faults_for=chaos_faults,
        ),
        Scenario(
            "maskgen",
            "Algorithm-1 mask generation against churning counters",
            _run_maskgen,
        ),
        Scenario(
            "maskgen-pooled",
            "pooled (ECLIP-style) mask selection on the maskgen stream",
            _run_maskgen_pooled,
        ),
    )
}
