"""Shared plumbing: error types, the strict JSON integer reader and check records."""

from __future__ import annotations

__all__ = ["InputError", "StructureError", "json_int", "json_ints", "Check", "all_ok",
           "first_failure", "first_collision"]

import json
from dataclasses import dataclass


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class StructureError(RuntimeError):
    """An invariant the construction relies on failed on the given data."""


def json_int(value) -> int:
    """A JSON value read as an integer: an int, or a string of one such as
    "2".  A float or a boolean is an InputError, where int() would read 2.5
    as 2 and true as 1; anything else fails as int() fails."""
    if isinstance(value, (bool, float)):
        raise InputError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def json_ints(values) -> list:
    """The JSON list values read by json_int, entry by entry; a list of ints
    only, as simpeff writes them, is copied without a call per entry.  Any
    other JSON value is an InputError, where iterating would read the string
    "12" or the object {"1": 0, "2": 0} as [1, 2]."""
    if not isinstance(values, list):
        raise InputError(f"expected a list of integers, got {type(values).__name__}")
    if set(map(type, values)) == {int}:
        return list(values)
    return [json_int(v) for v in values]


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
