"""Pass/fail check reports shared by the verification operations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class CheckResult:
    name: str
    passed: bool
    lhs: object = None
    rhs: object = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "lhs": _plain(self.lhs),
            "rhs": _plain(self.rhs),
            "detail": self.detail,
        }


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    def add(self, name, passed, lhs=None, rhs=None, detail="") -> CheckResult:
        result = CheckResult(name, bool(passed), lhs, rhs, detail)
        self.checks.append(result)
        return result

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.lhs is not None or c.rhs is not None:
                extra = "  lhs=%s rhs=%s" % (_plain(c.lhs), _plain(c.rhs))
            yield "%s  %s%s" % (status, c.name, extra)
