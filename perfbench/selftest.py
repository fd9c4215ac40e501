"""Self-test of the benchmark's oracle and trace wiring.

    python3 perfbench/selftest.py

Runs a few cheap verbs through the same code as a benchmark pass and checks
that: correct outcomes count as right; flipping one expected outcome makes
the wrong ratio positive; a sweep with zero checks, or a fault run with
zero violations, is wrong and never a pass; and the tracer rebinds every
import of a wrapped function.  Exits 1 on the first failed check.
"""

import dataclasses
import sys

import child  # imports twistn2.cli, with src/ on the path
import tracer
import workloads


# bindings of traced functions outside their home modules
IMPORTED = (("modules", "bracket"), ("constraints", "act_indexed"),
            ("constraints", "exact_divide"), ("deformation", "act"),
            ("cli", "axiom_sweep"), ("cli", "super_jacobi_sweep"))


def wrong_ratio(invocations, probe) -> float:
    with child.DriftSampler() as sampler:
        verbs = [child.run_verb(inv, sampler, probe) for inv in invocations]
    wrong = sum(len(v["wrong"]) for v in verbs)
    return wrong / (len(verbs) * workloads.ASSERTIONS_PER_VERB)


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    facts = workloads.build("concrete-sweep", 1)[-3:]   # two closed, one not
    fault = workloads.build("fault-detect", 1)[4]       # a1.t0-coeff at a seeded alpha
    cheap = facts + [fault]
    probe = child.SweepProbe().install()
    expect(wrong_ratio(cheap, probe) == 0, "expected outcomes give wrong_ratio = 0")
    flipped = [dataclasses.replace(inv, expect_exit=1 - inv.expect_exit) if i == 0 else inv
               for i, inv in enumerate(cheap)]
    expect(wrong_ratio(flipped, probe) > 0, "one flipped expectation gives wrong_ratio > 0")

    sweep = workloads.CHECKS_PER_SWEEP
    verify = next(inv for inv in workloads.build("symbolic-lab", 1) if inv.sweeps)
    report = ('{"checks": [{"name": "axiom sweep over 0 generator-pair/vector checks", '
              '"ref": "axiom-sweep", "status": "pass"}]}')
    expect(bool(workloads.check_outcome(verify, 0, report, [(0, 0)])),
           "a sweep that ran zero checks is wrong")
    expect(bool(workloads.check_outcome(verify, 0, report, [])),
           "a verb that skipped its sweep is wrong")
    witness = ('{"checks": [{"name": "axiom sweep over %d generator-pair/vector checks", '
               '"ref": "axiom-sweep", "status": "fail", "witness": {"g1": "L_0"}}]}' % sweep)
    expect(bool(workloads.check_outcome(fault, 1, witness, [(sweep, 0)])),
           "a fault run with zero violations is wrong")
    expect(not workloads.check_outcome(fault, 1, witness, [(sweep, 3)]),
           "a fault run with violations and a witness is right")

    def bound(mod, name):
        return getattr(sys.modules[f"twistn2.{mod}"], name)

    originals = {key: bound(*key) for key in IMPORTED}
    tracer.Tracer().install()
    for key, original in originals.items():
        expect(bound(*key) is not original, "tracer rebinds twistn2.%s.%s" % key)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
