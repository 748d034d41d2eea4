"""Pass/fail bookkeeping shared by all verification surfaces.

A VerificationReport is a named bundle of CheckRecords.  Each record
captures one measured quantity, the reference it was held against, the
tolerance of the comparison, and the grid point where the measurement
was worst.  Reports serialize to JSON with sorted keys so reruns with
the same inputs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    """One measured check: value, reference bound, tolerance, verdict."""

    name: str
    measured: float
    bound: float
    tolerance: float
    passed: bool
    worst_point: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_point": list(self.worst_point) if self.worst_point is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckRecord":
        wp = d.get("worst_point")
        return cls(
            name=d["name"],
            measured=float(d["measured"]),
            bound=float(d["bound"]),
            tolerance=float(d["tolerance"]),
            passed=bool(d["passed"]),
            worst_point=tuple(float(v) for v in wp) if wp is not None else None,
        )


@dataclass
class VerificationReport:
    """All checks run for one suite, with an aggregate verdict."""

    suite: str
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def add(
        self,
        name: str,
        measured: float,
        bound: float,
        tolerance: float,
        passed: bool,
        worst_point: tuple[float, ...] | None = None,
    ) -> CheckRecord:
        if worst_point is not None:
            worst_point = tuple(float(v) for v in worst_point)
        rec = CheckRecord(name, float(measured), float(bound), float(tolerance), bool(passed), worst_point)
        self.records.append(rec)
        return rec

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "overall_pass": self.overall_pass,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            suite=d["suite"],
            records=[CheckRecord.from_dict(r) for r in d.get("records", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {self.suite}/{r.name}: measured={r.measured:.6g} bound={r.bound:.6g} tol={r.tolerance:.3g}")
        final = "PASS" if self.overall_pass else "FAIL"
        lines.append(f"[{final}] {self.suite}: {sum(r.passed for r in self.records)}/{len(self.records)} checks passed")
        return lines
