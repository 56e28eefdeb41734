"""Machine-readable check reports shared by the CLI subcommands."""

from __future__ import annotations

__all__ = ["EXIT_OK", "EXIT_FAILED", "EXIT_USAGE", "EXIT_INTERNAL", "CheckReport"]

import json
from dataclasses import dataclass, field

from .util import Check, all_ok

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass
class CheckReport:
    """Deterministic battery outcome: subject, bound, ordered checks."""

    subject: str
    bound: int | None = None
    checks: list = field(default_factory=list)

    def add(self, check: Check):
        self.checks.append(check)

    def extend(self, checks):
        self.checks.extend(checks)

    @property
    def ok(self) -> bool:
        return all_ok(self.checks)

    def exit_code(self) -> int:
        return EXIT_OK if self.ok else EXIT_FAILED

    def to_json(self) -> str:
        body = {
            "subject": self.subject,
            "checks": [c.as_dict() for c in self.checks],
            "exit_code": self.exit_code(),
        }
        if self.bound is not None:
            body["levels_bound"] = self.bound
        return json.dumps(body, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        if self.bound is not None:
            lines.append(f"levels bound: {self.bound} (all quantified checks up to this level)")
        for c in self.checks:
            mark = "skipped" if c.skipped else ("pass" if c.ok else "FAIL")
            line = f"  {c.name}: {mark}"
            if c.witness is not None:
                line += f"  [{c.witness}]"
            lines.append(line)
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)
