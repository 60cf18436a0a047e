"""Small pass/fail containers shared by the verification entry points.

Check and Report are named tuples: a sweep builds tens of thousands of
Check rows, and a named tuple's __new__ builds its tuple in one call.
"""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class Report(NamedTuple):
    subject: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tail = f"  ({c.detail})" if c.detail else ""
            out.append(f"{status}  {c.name}{tail}")
        return out

    def to_json_obj(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def residual_check(name: str, residual) -> Check:
    """Passes when a sparse element is zero; a failure names its size and
    its leading term."""
    if not residual:
        return Check(name, True)
    return Check(name, False, f"residual has {len(residual.terms)} terms, "
                              f"leading {residual.leading_term()!r}")
