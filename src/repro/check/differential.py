"""Differential replays of the pinned scenarios.

Determinism is the simulator's load-bearing property: the incremental
rate recompute, the process-pool sweep, and the content-addressed cache
all promise *byte-identical* results against their slower counterparts.
Each checker here replays one pinned scenario (from
:mod:`repro.check.scenarios`) through two execution paths and compares
:func:`repro.exp.cache.result_hash` digests:

``modes``
    incremental dirty-set recompute vs the ``REPRO_FULL_RECOMPUTE=1``
    full-sweep oracle, each held to the scenario's pinned hash.
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

import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

from repro.check.invariants import request_conservation
from repro.check.scenarios import SCENARIOS, Scenario
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


@contextmanager
def _recompute_mode(mode: str) -> Iterator[None]:
    """Build devices in ``mode`` (``incremental`` or ``full``) inside the
    block by setting ``REPRO_FULL_RECOMPUTE``; restores it on exit."""
    saved = os.environ.get("REPRO_FULL_RECOMPUTE")
    os.environ["REPRO_FULL_RECOMPUTE"] = "1" if mode == "full" else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_FULL_RECOMPUTE", None)
        else:
            os.environ["REPRO_FULL_RECOMPUTE"] = saved


def check_recompute_oracle(name: str) -> tuple[list[str], dict[str, Any]]:
    """Incremental and full-recompute result hashes vs the scenario pin.

    Non-DES scenarios (maskgen) build no device, so the recompute mode
    cannot reach them: they run once, against the pin alone.
    """
    scenario = _scenario(name)
    hashes: dict[str, str] = {}
    if scenario.config is None:
        hashes["run"] = scenario.execute().result_hash
    else:
        for mode in ("incremental", "full"):
            with _recompute_mode(mode):
                hashes[mode] = scenario.execute().result_hash
    violations = [f"{name}: {label} hash {digest} != pinned hash "
                  f"{scenario.pin}"
                  for label, digest in hashes.items()
                  if digest != scenario.pin]
    if len(set(hashes.values())) > 1:
        violations.append(
            f"{name}: incremental hash {hashes['incremental']} "
            f"!= full-recompute hash {hashes['full']}")
    return violations, {"pin": scenario.pin, **hashes}


def check_allocation_modes(name: str, allocation: str,
                           sizing: str = "static"
                           ) -> tuple[list[str], dict[str, Any]]:
    """Incremental vs full recompute under a non-default allocation.

    The pinned ``modes`` check replays a scenario's frozen ``execute``
    closure, which cannot change allocation policy — so this check
    rebuilds the cell with the requested ``allocation``/``sizing`` and
    runs it through both recompute modes directly, asserting the
    bit-identity contract holds for the new policies too (no pin: the
    rebuilt cell is not a pinned scenario).  The run is audited (device
    self-audit + request conservation) on the incremental pass.
    """
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
        with _recompute_mode(mode):
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
