"""Differential replays of the pinned bench scenarios.

Determinism is the simulator's load-bearing property: the incremental
rate recompute, the process-pool sweep, and the content-addressed cache
all promise *byte-identical* results against their slower counterparts.
Each checker here replays one pinned scenario (from
:mod:`repro.bench.scenarios`) through two execution paths and compares
:func:`repro.exp.cache.result_hash` digests:

``modes``
    incremental dirty-set recompute vs the ``REPRO_FULL_RECOMPUTE=1``
    full-sweep oracle (reusing the bench runner's mode toggling).
``pool``
    serial in-process sweep (``jobs=1``) vs a two-process pool over the
    scenario cell plus a seed-perturbed sibling, cache off.
``cache``
    fresh computation vs a result round-tripped through a throwaway
    :class:`~repro.exp.cache.ContentStore` (also exercising the atomic
    write path end to end).
``invariants``
    one audited run: the experiment's ``audit`` hook collects the
    device's structural self-audit and the request-conservation
    identity at end of run.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.bench.runner import run_scenario
from repro.bench.scenarios import SCENARIOS, Scenario
from repro.check.invariants import request_conservation
from repro.exp.cache import ContentStore, result_hash
from repro.exp.cells import cached_run_experiment
from repro.exp.sweep import run_sweep
from repro.server.experiment import run_experiment
from repro.server.options import RunOptions

__all__ = [
    "check_allocation_modes",
    "check_cache_replay",
    "check_experiment_invariants",
    "check_pool_modes",
    "check_recompute_oracle",
]


def _scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from "
            f"{sorted(SCENARIOS)}") from None


def _faults(scenario: Scenario, config):
    return (scenario.faults_for(config)
            if scenario.faults_for is not None else None)


def check_recompute_oracle(name: str) -> tuple[list[str], dict[str, Any]]:
    """Incremental vs full-recompute result hashes for one scenario."""
    rows = {mode: run_scenario(name, mode)
            for mode in ("incremental", "full")}
    details = {mode: row.result_hash for mode, row in rows.items()}
    if rows["incremental"].result_hash != rows["full"].result_hash:
        return ([
            f"{name}: incremental hash {rows['incremental'].result_hash} "
            f"!= full-recompute hash {rows['full'].result_hash}"
        ], details)
    return [], details


def check_allocation_modes(name: str, allocation: str,
                           sizing: str = "static"
                           ) -> tuple[list[str], dict[str, Any]]:
    """Incremental vs full recompute under a non-default allocation.

    The pinned ``modes`` check replays a scenario's frozen ``execute``
    closure, which cannot change allocation policy — so this check
    rebuilds the cell with the requested ``allocation``/``sizing`` and
    runs it through both recompute modes directly, asserting the
    bit-identity contract holds for the new policies too.  The run is
    audited (device self-audit + request conservation) on the
    incremental pass.
    """
    from repro.bench.runner import _env

    scenario = _scenario(name)
    if scenario.config is None:
        raise ValueError(f"scenario {name!r} has no experiment config")
    config = replace(scenario.config, allocation=allocation, sizing=sizing)
    faults = _faults(scenario, config)
    violations: list[str] = []
    hashes: dict[str, str] = {}

    def audit(setup, injector) -> None:
        violations.extend(setup.device.audit_state())
        violations.extend(request_conservation(setup, injector))

    for mode in ("incremental", "full"):
        with _env(REPRO_FULL_RECOMPUTE="1" if mode == "full" else "0"):
            result = run_experiment(
                config,
                RunOptions(faults=faults, guard=scenario.guard,
                           audit=audit if mode == "incremental" else None))
        hashes[mode] = result_hash(result)
    if hashes["incremental"] != hashes["full"]:
        violations.append(
            f"{name}/{allocation}: incremental hash "
            f"{hashes['incremental']} != full-recompute hash "
            f"{hashes['full']}")
    return ([f"{name}: {v}" if not v.startswith(name) else v
             for v in violations],
            {"allocation": allocation, "sizing": sizing, **hashes})


def check_pool_modes(name: str) -> tuple[list[str], dict[str, Any]]:
    """Serial vs pooled sweep hashes over the scenario cell.

    A second cell (same config, seed + 1) makes the two-job run actually
    exercise the process pool — a single pending cell would fall back to
    the serial path.
    """
    scenario = _scenario(name)
    if scenario.config is None:
        raise ValueError(f"scenario {name!r} has no experiment config")
    cells = [scenario.config, replace(scenario.config,
                                      seed=scenario.config.seed + 1)]
    faults = _faults(scenario, scenario.config)
    hashes: dict[int, dict[int, str]] = {}
    for jobs in (1, 2):
        report = run_sweep(cells, jobs=jobs, cache=False,
                           options=RunOptions(faults=faults,
                                              guard=scenario.guard))
        report.raise_failures()
        hashes[jobs] = {index: result_hash(report.result(cell))
                        for index, cell in enumerate(cells)}
    violations = []
    for index, cell in enumerate(cells):
        if hashes[1][index] != hashes[2][index]:
            violations.append(
                f"{name} cell {index} (seed {cell.seed}): serial hash "
                f"{hashes[1][index]} != pooled hash {hashes[2][index]}")
    return violations, {"serial": hashes[1], "pooled": hashes[2]}


def check_cache_replay(name: str, allocation: str = "krisp",
                       sizing: str = "static"
                       ) -> tuple[list[str], dict[str, Any]]:
    """Fresh vs cache-round-tripped result hashes for one scenario."""
    scenario = _scenario(name)
    if scenario.config is None:
        raise ValueError(f"scenario {name!r} has no experiment config")
    config = replace(scenario.config, allocation=allocation, sizing=sizing)
    faults = _faults(scenario, config)
    root = Path(tempfile.mkdtemp(prefix="repro-check-cache-"))
    try:
        store = ContentStore(root=root)
        fresh = cached_run_experiment(
            config, cache=store, faults=faults,
            guard=scenario.guard)
        cached = cached_run_experiment(
            config, cache=store, faults=faults,
            guard=scenario.guard)
        violations = []
        fresh_hash, cached_hash = result_hash(fresh), result_hash(cached)
        if fresh_hash != cached_hash:
            violations.append(
                f"{name}: fresh hash {fresh_hash} != cached replay "
                f"hash {cached_hash}")
        if store.stats.hits != 1:
            violations.append(
                f"{name}: expected exactly 1 cache hit on replay, "
                f"saw {store.stats.hits}")
        return violations, {"fresh": fresh_hash, "cached": cached_hash,
                            "hits": store.stats.hits}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_experiment_invariants(name: str, allocation: str = "krisp",
                                sizing: str = "static"
                                ) -> tuple[list[str], dict[str, Any]]:
    """One audited scenario run: device audit + request conservation."""
    scenario = _scenario(name)
    if scenario.config is None:
        raise ValueError(f"scenario {name!r} has no experiment config")
    config = replace(scenario.config, allocation=allocation, sizing=sizing)
    faults = _faults(scenario, config)
    violations: list[str] = []
    details: dict[str, Any] = {}

    def audit(setup, injector) -> None:
        violations.extend(setup.device.audit_state())
        violations.extend(request_conservation(setup, injector))
        details["enqueued"] = sum(q.enqueued for q in setup.queues)
        details["completed"] = sum(len(w.stats.completed)
                                   for w in setup.workers)

    result = run_experiment(
        config, RunOptions(faults=faults, guard=scenario.guard,
                           audit=audit))
    details["result_hash"] = result_hash(result)
    return [f"{name}: {violation}" for violation in violations], details
