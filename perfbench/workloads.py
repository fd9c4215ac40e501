"""Seeded workloads and the expected outcome of every verb they run.

A workload is a list of `Invocation`s: the argv of one `twistn2` CLI verb
and the outcome the verified classification predicts for it.  The three
workloads together run exactly the verbs that `twistn2 all` chains; `all`
itself takes ~35 s on a 2-core host, too long for one benchmark pass.

The seed draws every concrete parameter the CLI takes: alpha = p/q with
|p| <= 20 and 1 <= q <= 7, and (a, b) from the same range.  Every such value
is a valid input, and the expected outcome does not depend on which one is
drawn.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

# generators_in_window(2) holds C, 5 L, 4 T and 9 G modes: 19 generators,
# 190 unordered pairs; labels_in_window(4) holds 2 * 17 basis vectors.
CHECKS_PER_SWEEP = 190 * 34

DEFORMED = ("A1", "A2", "B1", "B2")

FAULTS = (
    "aab.t-sign", "aab.gy-coeff", "bab.ty-sign", "bab.gx-sign",
    "a1.t0-coeff", "a1.g0-coeff", "a2.ldef-sign", "a2.ty-coeff",
    "b1.t0-coeff", "b1.gy0-coeff", "b2.ldef-sign", "b2.gdef-sign",
)


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect_exit: int   # 0: every check passes; 1: a violation is reported
    sweeps: int = 0    # axiom sweeps the verb runs at window (2, 4)


def _draw(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 7))


def _draw_nonzero(rng: random.Random) -> Fraction:
    value = _draw(rng)
    while not value:
        value = _draw(rng)
    return value


def _distinct(rng: random.Random, count: int) -> list:
    out: list = []
    while len(out) < count:
        value = _draw(rng)
        if value not in out:
            out.append(value)
    return out


def _inv(*argv, expect_exit=0, sweeps=0) -> Invocation:
    return Invocation(tuple(str(a) for a in argv) + ("--format", "json"),
                      expect_exit, sweeps)


def concrete_sweep(rng: random.Random) -> list:
    """Constant-coefficient axiom sweeps: the dominant path of `all`."""
    out = [_inv("verify-axioms", "--family", fam, "--alpha", alpha, sweeps=1)
           for fam in DEFORMED for alpha in _distinct(rng, 5)]
    out.append(_inv("deform", "--alpha", _draw(rng), sweeps=len(DEFORMED)))
    a, b = _draw(rng), _draw(rng)
    out += [
        _inv("submodule", "--family", "Aab", "--a", 0, "--b", -1,
             "--candidate", "complement:x0"),
        _inv("submodule", "--family", "Aab", "--a", 0, "--b", "-1/2",
             "--candidate", "span:y0"),
        # G_q x_0 = y_q with coefficient 1, so span(x0) is never closed
        _inv("submodule", "--family", "Aab", "--a", a, "--b", b,
             "--candidate", "span:x0", expect_exit=1),
    ]
    return out


def symbolic_lab(rng: random.Random) -> list:
    """Symbolic-parameter labs; every input is symbolic, so the seed is unused."""
    return [
        _inv("jacobi"),
        _inv("delta"),
        _inv("roots"),
        _inv("compose-t"),
        _inv("solve-coeffs"),
        _inv("nonexist-b0"),
        _inv("verify-axioms", "--family", "Aab", sweeps=1),
        _inv("verify-axioms", "--family", "Bab", sweeps=1),
    ]


def fault_detect(rng: random.Random) -> list:
    """Every catalogued fault must be caught: the sweeps' failing path.

    The deformed-family faults take alpha != 0: a1.g0-coeff puts -alpha in
    place of alpha, which changes nothing at alpha = 0.
    """
    out = []
    for fault in FAULTS:
        family = {"aab": "Aab", "bab": "Bab"}.get(fault.split(".")[0])
        if family:
            argv = ("verify-axioms", "--family", family)
        else:
            argv = ("verify-axioms", "--family", fault.split(".")[0].upper(),
                    "--alpha", _draw_nonzero(rng))
        out.append(_inv(*argv, "--inject-fault", fault, expect_exit=1, sweeps=1))
    return out


WORKLOADS = {
    "concrete-sweep": concrete_sweep,
    "symbolic-lab": symbolic_lab,
    "fault-detect": fault_detect,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

_SWEEP_COUNT = re.compile(r"axiom sweep over (\d+) ")


def check_outcome(inv: Invocation, exit_code, output: str, sweeps: list) -> list:
    """Compare one verb's result with its expected outcome.

    Three assertions: the exit code; the report's check statuses (all pass,
    or a failed check with a witness where a violation is expected); and
    the work done, where every axiom sweep must run CHECKS_PER_SWEEP checks
    and a fault run must find violations.  `sweeps` holds (checks,
    violations) for each sweep the verb ran.  Returns the failed ones.
    """
    wrong = []
    if exit_code != inv.expect_exit:
        wrong.append(f"exit code {exit_code}, expected {inv.expect_exit}")
    try:
        checks = json.loads(output)["checks"]
        failed = [c for c in checks if c["status"] != "pass"]
    except (ValueError, KeyError, TypeError):
        checks, failed = [], []
    if not checks:
        wrong.append("report has no checks")
    elif inv.expect_exit == 0 and failed:
        wrong.append(f"{len(failed)} report checks failed")
    elif inv.expect_exit == 1 and not any(c.get("witness") for c in failed):
        wrong.append("no failed check with a witness")
    counts = [c for c, _ in sweeps]
    stated = [int(n) for n in _SWEEP_COUNT.findall(output)]
    if counts != [CHECKS_PER_SWEEP] * inv.sweeps or stated != counts[:len(stated)]:
        wrong.append(f"axiom checks {counts} (report: {stated}), "
                     f"expected {inv.sweeps} x {CHECKS_PER_SWEEP}")
    elif inv.expect_exit == 1 and inv.sweeps and not any(v for _, v in sweeps):
        wrong.append("fault sweep found zero violations")
    return wrong


ASSERTIONS_PER_VERB = 3
