"""Check registry and execution for ``krisp-repro check``.

Two entry points:

:func:`run_checks`
    Executes the global invariant checks (mask laws, device audits in
    both recompute modes, the emulation correction, the metamorphic
    laws) plus per-scenario differential replays, and returns a
    :class:`~repro.check.report.CheckReport`.

:func:`run_mutate_smoke`
    The audit layer's self-test: seeds each deliberate fault from
    :mod:`repro.check.mutate` and verifies its targeted checker fires.
    A mutation that slips through means the audit layer itself has
    regressed.

The dense scenario only runs its (already ~100 s) incremental-vs-full
replay; the heavier pool/cache/audited-run treatments are reserved for
the sub-second ``colo4``/``chaos`` cells so the default check run stays
CI-smoke sized.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.check.attribution import check_attribution_conservation
from repro.check.differential import (
    check_allocation_modes,
    check_cache_replay,
    check_experiment_invariants,
    check_pool_modes,
    check_recompute_oracle,
)
from repro.check.emulation import check_emulation_correction
from repro.check.invariants import run_device_program, run_mask_program
from repro.check.metamorphic import check_mask_growth, check_overlap_limit_law
from repro.check.mutate import MUTATIONS
from repro.check.report import CheckReport, CheckResult
from repro.check.scenarios import SCENARIOS

__all__ = ["DEFAULT_SCENARIOS", "available_checks", "run_checks",
           "run_mutate_smoke"]

#: Scenarios covered by the default (no-flag) check run; ``--all`` adds
#: the rest of the pinned roster.
DEFAULT_SCENARIOS: tuple[str, ...] = ("colo4", "chaos")

#: Scenarios cheap enough for the full differential treatment.
_FULL_TREATMENT: frozenset = frozenset(DEFAULT_SCENARIOS)

CheckFn = Callable[[], "tuple[list[str], dict[str, Any]] | list[str]"]


def _mask_laws() -> tuple[list[str], dict[str, Any]]:
    violations: list[str] = []
    checked = 0
    for overlap_limit in (None, 0, 8):
        for reshape in (True, False):
            violations.extend(run_mask_program(
                seed=0, iterations=300, overlap_limit=overlap_limit,
                reshape=reshape))
            checked += 300
    return violations, {"masks_checked": checked}


def _device_audit() -> tuple[list[str], dict[str, Any]]:
    violations: list[str] = []
    for full_recompute in (False, True):
        for violation in run_device_program(
                seed=0, steps=150, full_recompute=full_recompute):
            mode = "full" if full_recompute else "incremental"
            violations.append(f"[{mode}] {violation}")
    return violations, {"modes": ["incremental", "full"]}


def _pool_laws() -> tuple[list[str], dict[str, Any]]:
    """Pooled allocator under the identical mask-law churn (L1-L4)."""
    violations: list[str] = []
    checked = 0
    stats: dict[str, Any] = {}
    for overlap_limit in (None, 0, 8):
        for allocation in ("pooled", "pooled-contention"):
            per_run: dict = {}
            violations.extend(run_mask_program(
                seed=0, iterations=300, overlap_limit=overlap_limit,
                allocation=allocation, stats_out=per_run))
            checked += 300
            for key, value in per_run.items():
                stats[key] = stats.get(key, 0) + value
    stats["masks_checked"] = checked
    return violations, stats


def _global_checks() -> list[tuple[str, CheckFn]]:
    return [
        ("mask-laws", _mask_laws),
        ("pool-laws", _pool_laws),
        ("device-audit", _device_audit),
        ("emulation-correction", check_emulation_correction),
        ("mask-growth", check_mask_growth),
        ("overlap-limit-law", check_overlap_limit_law),
        ("attribution-conservation", check_attribution_conservation),
    ]


def _scenario_checks(names: Iterable[str],
                     allocation: str = "krisp",
                     sizing: str = "static") -> list[tuple[str, CheckFn]]:
    checks: list[tuple[str, CheckFn]] = []
    for name in names:
        if allocation != "krisp" or sizing != "static":
            # The pinned ``modes`` replay runs a frozen scenario closure
            # that cannot change allocation; rebuild the cell instead.
            if SCENARIOS[name].config is None:
                continue
            checks.append(
                (f"alloc-modes:{name}:{allocation}",
                 lambda name=name: check_allocation_modes(
                     name, allocation, sizing)))
            if name in _FULL_TREATMENT:
                checks.append(
                    (f"alloc-cache:{name}:{allocation}",
                     lambda name=name: check_cache_replay(
                         name, allocation=allocation, sizing=sizing)))
                checks.append(
                    (f"alloc-invariants:{name}:{allocation}",
                     lambda name=name: check_experiment_invariants(
                         name, allocation=allocation, sizing=sizing)))
            continue
        checks.append((f"modes:{name}",
                       lambda name=name: check_recompute_oracle(name)))
        if name in _FULL_TREATMENT and SCENARIOS[name].config is not None:
            checks.append((f"pool:{name}",
                           lambda name=name: check_pool_modes(name)))
            checks.append((f"cache:{name}",
                           lambda name=name: check_cache_replay(name)))
            checks.append(
                (f"invariants:{name}",
                 lambda name=name: check_experiment_invariants(name)))
    return checks


def _build_checks(scenarios: Optional[Sequence[str]],
                  include_all: bool,
                  allocation: str = "krisp",
                  sizing: str = "static") -> list[tuple[str, CheckFn]]:
    if scenarios is not None:
        unknown = sorted(set(scenarios) - set(SCENARIOS))
        if unknown:
            raise ValueError(
                f"unknown scenarios {unknown}; choose from "
                f"{sorted(SCENARIOS)}")
        names: Sequence[str] = scenarios
    elif include_all:
        names = tuple(SCENARIOS)
    else:
        names = DEFAULT_SCENARIOS
    return _global_checks() + _scenario_checks(names, allocation, sizing)


def available_checks(include_all: bool = True) -> list[str]:
    """Names of every check a run would execute (for ``--list``)."""
    return [name for name, _fn in _build_checks(None, include_all)]


def _execute(name: str, fn: CheckFn) -> CheckResult:
    start = time.perf_counter()
    outcome = fn()
    if isinstance(outcome, tuple):
        violations, details = outcome
    else:
        violations, details = outcome, {}
    return CheckResult(
        name=name,
        passed=not violations,
        violations=tuple(violations),
        details=details,
        wall_s=time.perf_counter() - start,
    )


def run_checks(
    scenarios: Optional[Sequence[str]] = None,
    include_all: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    allocation: str = "krisp",
    sizing: str = "static",
) -> CheckReport:
    """Run the audit suite and return its report.

    ``scenarios`` restricts the differential replays to the named pinned
    scenarios (global checks always run); ``include_all`` widens the
    default roster to every scenario; ``progress`` receives each check
    name as it starts.  A non-default ``allocation``/``sizing`` swaps
    the per-scenario replays for the allocation-policy differentials
    (``alloc-modes``/``alloc-cache``/``alloc-invariants``) so the new
    policies are audited end to end.
    """
    report = CheckReport()
    for name, fn in _build_checks(scenarios, include_all, allocation,
                                  sizing):
        if progress is not None:
            progress(name)
        report.add(_execute(name, fn))
    return report


def run_mutate_smoke(
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[CheckReport, bool]:
    """Seed each deliberate fault and assert its checker catches it.

    Returns ``(report, all_caught)``.  A result is *passed* when the
    mutation was caught; ``all_caught=False`` means the audit layer
    failed its self-test (a seeded bug produced zero violations).
    """
    report = CheckReport()
    for mutation in MUTATIONS:
        if progress is not None:
            progress(mutation.name)
        start = time.perf_counter()
        with mutation.apply():
            violations = mutation.targeted_check()
        caught = bool(violations)
        report.add(CheckResult(
            name=f"mutate:{mutation.name}",
            passed=caught,
            # On a catch, surface a sample of what fired; an escape has
            # nothing to show.
            violations=() if caught else (
                f"seeded fault was NOT caught: {mutation.description}",),
            details={
                "caught": caught,
                "description": mutation.description,
                "violations_observed": len(violations),
                "sample": violations[:3],
            },
            wall_s=time.perf_counter() - start,
        ))
    all_caught = all(result.passed for result in report.results)
    return report, all_caught
