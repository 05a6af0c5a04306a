"""Pinned scenarios for the simulator's determinism checks.

Each scenario is a fixed, fully deterministic workload whose result is
content-hashed and pinned: ``krisp-repro check`` replays every scenario
in both recompute modes (``modes:<scenario>``) and fails when either
hash leaves its pin.  The roster covers the simulator's hot paths:

``colo4``
    The classic 4-worker co-location cell (a fig13a-shaped workload) at
    reduced scale — small enough for CI smoke runs.
``dense``
    A 48-worker KRISP-I cell at batch 1: ~45 resident kernels sharing
    60 CUs, the regime where the full O(all-residents) rate sweep is
    maximally wasteful and the incremental path matters most.
``chaos``
    A guarded cell under the mixed fault schedule (crash + straggler +
    bandwidth spike + storm + perf-DB dropout), exercising the fault
    scale / bandwidth-regime dirty paths.
``contended``
    ``colo4``'s cell under MPS Default: every kernel takes the whole
    device, so nearly every rate comes from the shared-CU capacity
    path that KRISP's right-sizing otherwise avoids.
``maskgen``
    Pure Algorithm-1 stress: mask generation against churning per-CU
    counters, no DES at all.  Isolates the allocator.
``maskgen-pooled``
    The identical request stream served from the ECLIP-style mask pools
    (:mod:`repro.core.pools`).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, replace
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
           "CONTENDED_CONFIG", "chaos_faults"]

#: The pinned experiment cells, exposed as module constants so the
#: differential checks can replay exactly these cells through other
#: execution paths (pooled sweeps, the result cache, audit hooks)
#: without re-deriving them.  ``execute`` uses these same objects, so
#: the pinned hashes and the replays cover one workload.
COLO4_CONFIG = ExperimentConfig(
    ("squeezenet",) * 4, policy="krisp-i", batch_size=8,
    seed=0, requests_scale=0.25)
DENSE_CONFIG = ExperimentConfig(
    ("squeezenet",) * 48, policy="krisp-i", batch_size=1,
    seed=0, requests_scale=0.015625)
CHAOS_CONFIG = COLO4_CONFIG
CONTENDED_CONFIG = replace(COLO4_CONFIG, policy="mps-default")
#: Fixed-deadline guard (rather than the SLO-derived default) so the
#: scenario's behaviour is pinned by this module alone.
CHAOS_GUARD = SloGuard(admission_depth=8, deadline=0.25,
                       max_retries=2, retry_backoff=1e-3)


def chaos_faults(config: ExperimentConfig = CHAOS_CONFIG):
    """The chaos scenario's fault schedule (deterministic in ``config``)."""
    return build_scenario("mixed", config)


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of one scenario execution.

    ``events`` counts engine events for DES scenarios and churn
    iterations for the non-DES ones (maskgen).
    """

    result_hash: str
    events: int


@dataclass(frozen=True)
class Scenario:
    """A named workload and the sha256 its result must hash to.

    ``config`` (plus ``guard``/``faults_for`` when set) describes the
    experiment cell a DES-backed scenario runs, so differential checkers
    can replay the same cell through other execution paths; ``None`` for
    non-DES scenarios (maskgen).
    """

    name: str
    execute: Callable[[], ScenarioRun]
    pin: str
    config: ExperimentConfig | None = None
    guard: SloGuard | None = None
    faults_for: Callable[[ExperimentConfig], object] | None = None


def _cell(config: ExperimentConfig, faults=None, guard=None) -> ScenarioRun:
    events = []

    def count_events(setup, _injector) -> None:
        events.append(setup.sim.events_executed)

    result = run_experiment(config, RunOptions(faults=faults, guard=guard,
                                               audit=count_events))
    return ScenarioRun(result_hash=result_hash(result), events=events[0])


def _run_colo4() -> ScenarioRun:
    return _cell(COLO4_CONFIG)


def _run_dense() -> ScenarioRun:
    return _cell(DENSE_CONFIG)


def _run_chaos() -> ScenarioRun:
    return _cell(CHAOS_CONFIG, faults=chaos_faults(CHAOS_CONFIG),
                 guard=CHAOS_GUARD)


def _run_contended() -> ScenarioRun:
    return _cell(CONTENDED_CONFIG)


def _churn_masks(allocator, iterations: int = 60_000) -> ScenarioRun:
    """Mask-churn core shared by ``maskgen`` and ``maskgen-pooled``.

    ``allocator`` is a mask generator over the mi50 topology.  Both
    scenarios draw the identical request stream (same RNG label), so
    their pins cover the two allocators on one workload.
    """
    topology = allocator.topology
    counters = CUKernelCounters(topology)
    # The stream label is part of the pinned hashes: keep it verbatim.
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
    return ScenarioRun(result_hash=digest.hexdigest(), events=iterations)


def _run_maskgen() -> ScenarioRun:
    """Algorithm-1 churn: generate/retire masks against live counters."""
    topology = GpuTopology.mi50()
    return _churn_masks(ResourceMaskGenerator(topology, reshape=True))


def _run_maskgen_pooled() -> ScenarioRun:
    """The same churn served from ECLIP-style mask pools."""
    from repro.core.pools import PooledMaskGenerator

    return _churn_masks(PooledMaskGenerator(GpuTopology.mi50(), reshape=True))


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "colo4",
            _run_colo4,
            "279249b4567c7ad73dd90ebface86d8a"
            "e022ad21f18c366dad09d2216abe001c",
            config=COLO4_CONFIG,
        ),
        Scenario(
            "dense",
            _run_dense,
            "5dfafc33d0fb3b21be6f3497fa806ebc"
            "ad8f66c3ed2f501f4a3ebb0f509e2d90",
            config=DENSE_CONFIG,
        ),
        Scenario(
            "chaos",
            _run_chaos,
            "4bc20dfd562b11c8c30b49df577c38bd"
            "e85d8c9d05849117b2f414f72c00a3a5",
            config=CHAOS_CONFIG,
            guard=CHAOS_GUARD,
            faults_for=chaos_faults,
        ),
        Scenario(
            "contended",
            _run_contended,
            "f5d2c5176634f5574851af9c74346cb3"
            "6d2088aa27c32df4307752ae2ab277de",
            config=CONTENDED_CONFIG,
        ),
        Scenario(
            "maskgen",
            _run_maskgen,
            "573b008295dfe1764c6bdfeafc698973"
            "4f13c8f4bf4bba54e5c20d2ef229e27f",
        ),
        Scenario(
            "maskgen-pooled",
            _run_maskgen_pooled,
            "d26d0fada6728223b3ccfc43579d407a"
            "9cd4b446ec19cb215dc9bfcb299b2541",
        ),
    )
}
