"""Deterministic check reports, rendered as text or JSON.

Two records carry every result from lab to output.  `Report` holds named
checks.  Each check is stated once, by the routine that makes it: a lab
routine returns a `Report` whose checks carry their final name, ref, status
and witness, and a CLI verb only chooses routines and merges their reports
with `Report.extend`.  `Tally` holds what a window check counted: the
Jacobi sweep, the axiom sweeps, the NS partitions and submodule closure
return one, and a CLI verb turns it into one check of its `Report`.  The
Jacobi and axiom sweeps' violations are a `LazyList` over the checks their
residual engine flags: a witness is the readable reference's residual,
computed only when it is read, since a report prints the count and the
first one.

Reports are byte-stable for identical inputs: no timestamps, no set
iteration, insertion-ordered keys only.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    ref: str
    status: str  # "pass" | "fail"
    witness: dict | list | str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class LazyList(Sequence):
    """A read-only list whose entry i is `build(records[i])`, built each
    time it is read.  Its length, order, slices (plain lists), truth value,
    `==` (against a list or another LazyList) and `repr` are those of the
    list of built entries."""

    __slots__ = ("records", "build")

    def __init__(self, records: list, build):
        self.records, self.build = records, build

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.build(r) for r in self.records[i]]
        return self.build(self.records[i])

    def __eq__(self, other):
        if not isinstance(other, (list, LazyList)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class Tally:
    """What a window check counted: the checks it ran and the witnesses of
    the ones that failed, as the report prints them: a list, or a
    `LazyList` that builds each witness when it is read."""

    checks: int
    violations: Sequence = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # a window check that ran no check certifies nothing
        return self.checks > 0 and not self.violations

    @property
    def witness(self):
        """The first violation, or None."""
        return self.violations[0] if self.violations else None


@dataclass
class Report:
    command: str
    params: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, ref: str, ok: bool, witness=None) -> None:
        self.checks.append(Check(name, ref, "pass" if ok else "fail",
                                 witness if (witness or witness == 0) else None))

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_dict(self) -> dict:
        payload = {
            "command": self.command,
            "params": self.params,
            "checks": [
                {"name": c.name, "ref": c.ref, "status": c.status,
                 **({"witness": c.witness} if c.witness is not None else {})}
                for c in self.checks
            ],
            "summary": {"passed": self.passed, "failed": self.failed},
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"== {self.command}"]
        if self.params:
            lines.append("   " + " ".join(f"{k}={v}" for k, v in self.params.items()))
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"{mark}  {c.name}"
            if c.witness is not None and not c.passed:
                line += f"  [{c.witness}]"
            lines.append(line)
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)
