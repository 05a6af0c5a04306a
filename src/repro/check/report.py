"""Check results and reports for the conservation-law audit subsystem.

Every checker in :mod:`repro.check` returns a list of human-readable
violation strings (empty = clean); the runner wraps each into a
:class:`CheckResult` and collects them into a :class:`CheckReport` the
CLI can print or serialise.  The JSON payload is schema-versioned, so
downstream tooling can detect format changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CHECK_SCHEMA", "CheckResult", "CheckReport"]

#: Bump when the JSON layout of a report changes shape.
CHECK_SCHEMA = 1


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    violations: tuple[str, ...] = ()
    details: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "violations": list(self.violations),
            "details": self.details,
            "wall_s": round(self.wall_s, 3),
        }


@dataclass
class CheckReport:
    """An ordered collection of check results."""

    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(result.passed for result in self.results)

    @property
    def violations(self) -> list[str]:
        """Every violation across all checks, prefixed with its check."""
        return [f"{result.name}: {violation}"
                for result in self.results
                for violation in result.violations]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": CHECK_SCHEMA,
            "ok": self.ok,
            "checks": len(self.results),
            "failed": sum(1 for r in self.results if not r.passed),
            "results": [result.to_dict() for result in self.results],
        }

    def summary_lines(self) -> list[str]:
        """One line per check plus a final tally (CLI output shape)."""
        lines = []
        for result in self.results:
            status = "ok" if result.passed else "FAIL"
            lines.append(
                f"  {status:4s} {result.name:<28s} "
                f"{result.wall_s:6.2f}s"
                + (f"  ({len(result.violations)} violations)"
                   if result.violations else ""))
            for violation in result.violations:
                lines.append(f"         - {violation}")
        failed = sum(1 for r in self.results if not r.passed)
        lines.append(
            f"{len(self.results)} checks, {failed} failed, "
            f"{sum(len(r.violations) for r in self.results)} violations")
        return lines
