"""Shared plumbing: error types and check records."""

from __future__ import annotations

__all__ = ["InputError", "StructureError", "Check", "all_ok", "first_failure",
           "first_collision"]

from dataclasses import dataclass


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class StructureError(RuntimeError):
    """An invariant the construction relies on failed on the given data."""


@dataclass(frozen=True)
class Check:
    """One named verdict in a report.  Failed checks carry a witness."""

    name: str
    ok: bool
    witness: object = None
    skipped: bool = False

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "skipped"
        return "pass" if self.ok else "fail"

    def as_dict(self):
        d = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            d["witness"] = str(self.witness)
        return d


def all_ok(checks) -> bool:
    return all(c.ok for c in checks if not c.skipped)


def first_failure(name, counterexamples) -> Check:
    """A check that fails with the first counterexample, or passes if none."""
    wit = next(iter(counterexamples), None)
    return Check(name, wit is None, wit)


def first_collision(keys):
    """(s1, s2) for the first s2 whose key an earlier s1 had, else None."""
    seen = {}
    for s, key in enumerate(keys):
        if key in seen:
            return seen[key], s
        seen[key] = s
    return None
