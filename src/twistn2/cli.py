"""Command-line front end: verification verbs with text/JSON reports.

Exit codes: 0 all checks passed, 1 at least one violation or discrepancy
found (witnesses in the report), 2 usage error, 3 internal error (a crash
of the lab itself; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

from . import constraints as clab
from . import deformation as dlab
# `halfint` is not used here: perfbench/tracer.py counts index operations
# through `halfint.HalfInt`, so the module must be loaded with the CLI
from . import halfint  # noqa: F401
from .algebra import super_jacobi_sweep
from .modules import (FAULT_CATALOG, FamilySpec, SubmoduleCandidate, aab,
                      axiom_sweep, bab, complement_of,
                      labels_in_window, ns_partition_check,
                      proper_submodule_scan, span_of, spec_with_fault,
                      submodule_check)
from .poly import parse_rational
from .report import Report

class UsageError(ValueError):
    pass


def _param(text: str | None):
    if text is None or text == "sym":
        return text
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_family(args) -> FamilySpec:
    family = args.family
    if family is None:
        raise UsageError("--family is required for this command")
    try:
        if family in ("Aab", "Bab", "GenericA", "GenericB"):
            a = _param(args.a) if args.a is not None else "sym"
            b = _param(args.b) if args.b is not None else "sym"
            bprime = _param(args.bprime) if args.bprime is not None else None
            if family.startswith("Generic"):
                # the printed coefficient forms fix bp (bp = b for GenericA,
                # b - 1/2 for GenericB), so a given one would go unchecked
                if bprime is not None:
                    raise UsageError(f"{family} fixes bprime through its printed "
                                     "coefficient forms; drop --bprime")
                return FamilySpec(family, a=a, b=b, bprime="sym")
            return FamilySpec(family, a=a, b=b, bprime=bprime,
                              fault=getattr(args, "inject_fault", None))
        if family in ("A1", "A2", "B1", "B2"):
            if args.alpha is None:
                raise UsageError(f"family {family} needs --alpha")
            return FamilySpec(family, alpha=_param(args.alpha),
                              fault=getattr(args, "inject_fault", None))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown family {family!r}")


def parse_candidate(text: str) -> SubmoduleCandidate:
    try:
        kind, labels = text.split(":", 1)
        names = [s.strip() for s in labels.split(",") if s.strip()]
        if kind == "span":
            return span_of(*names)
        if kind == "complement":
            return complement_of(*names)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad candidate {text!r}: {exc}") from exc
    raise UsageError(f"bad candidate kind in {text!r} (use span:... or complement:...)")


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def cmd_verify_axioms(args) -> Report:
    spec = build_family(args)
    rep = Report("verify-axioms", {"family": spec.label(),
                                   "gen_window": args.gen_window,
                                   "basis_window": args.basis_window})
    sweep = axiom_sweep(spec, args.gen_window, args.basis_window)
    rep.add(f"axiom sweep over {sweep.checks} generator-pair/vector checks",
            "axiom-sweep", sweep.ok,
            sweep.violations[0].as_dict() if sweep.violations else None)
    if len(sweep.violations) > 1:
        rep.notes.append(f"{len(sweep.violations)} violations in total")
    if spec.family in ("Aab", "Bab", "GenericA", "GenericB") and not spec.fault:
        part = ns_partition_check(spec, args.gen_window, args.basis_window)
        rep.add("even/odd restriction partitions preserved and swapped as required",
                "ns-partition", part.ok,
                part.violations[0] if part.violations else None)
    return rep


def cmd_delta(args) -> Report:
    which = args.which or "all"
    selected = ("1", "2", "3", "3p") if which == "all" else (which,)
    rep = Report("delta", {"which": which})
    for w in selected:
        dr = clab.compare_delta_closed_form(w)
        if w in ("1", "2"):
            rep.add(f"determinant {w} equals its printed factorization",
                    f"delta{w}-factorization", dr.equal)
        else:
            tag = "mixed-identity determinant" + ("" if w == "3" else " (second family)")
            rep.add(f"{tag}: exact divisibility by the stated factors",
                    f"delta{w}-divisibility",
                    not any(n.startswith("fail") for n in dr.notes))
            pairs = "sporadic pairs" if w == "3" else "mirrored sporadic pairs"
            rep.add(f"{tag}: quotient vanishes at all {pairs}",
                    f"delta{w}-sporadic-pairs",
                    all(v == "0" for _, v in dr.omega_checks), dict(dr.omega_checks))
            for name, msg in dr.nabla_checks:
                if "differs" in msg:
                    rep.notes.append(f"{name}: {msg}")
                else:
                    rep.add(f"{tag}: {name} quotient piece matches the printed form",
                            f"delta{w}-{name}", True)
    return rep


# the sporadic pair sets: the mixed-identity determinant whose quotient
# each must annihilate, and the check's wording
OMEGA_SETS = {
    "omega": ("3", "sporadic pair set annihilates the mixed-identity quotient"),
    "omega-prime": ("3p", "mirrored sporadic pair set annihilates its quotient"),
}


def cmd_roots(args) -> Report:
    which = args.which or "all"
    rep = Report("roots", {"which": which})
    names = clab.ROOT_SET_NAMES + tuple(OMEGA_SETS) if which == "all" else (which,)
    for name in names:
        if name in OMEGA_SETS:
            delta, desc = OMEGA_SETS[name]
            dr = clab.compare_delta_closed_form(delta)
            rep.add(desc, f"root-set/{name}", all(v == "0" for _, v in dr.omega_checks),
                    dict(dr.omega_checks))
            continue
        try:
            entry = clab.root_set(name)
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
        for desc, ok in entry.checks:
            rep.add(f"{name}: {desc}", f"root-set/{name}", ok)
    if which == "all":
        for desc, ok in clab.swap_symmetry_checks():
            rep.add(desc, "root-set/mirror-symmetry", ok)
    return rep


def cmd_compose_t(args) -> Report:
    rep = Report("compose-t", {"family": args.family or "all"})
    if args.family:
        specs = [build_family(args)]
        if args.family.startswith("Generic"):
            raise UsageError(f"no printed T table for {args.family}")
    else:
        specs = [aab(), bab()] + [FamilySpec(f, alpha="sym") for f in ("A1", "A2", "B1", "B2")]
    for spec in specs:
        tr = clab.derive_T_composition(spec)
        for entry in tr.entries:
            rep.add(f"{spec.family}: {entry.description}: derived equals printed",
                    f"t-composition/{spec.family}", entry.match,
                    None if entry.match else {"derived": entry.derived,
                                              "printed": entry.printed})
    return rep


def cmd_solve_coeffs(args) -> Report:
    which = args.which or "all"
    rep = Report("solve-coeffs", {"which": which})
    lemmas = clab.LEMMA_CHECKS if which == "all" else ()
    if which in clab.LEMMA_CHECKS:
        lemmas = (which,)
    for name in lemmas:
        group = clab.coeff_solution_check(name)
        for desc, ok, detail in group.checks:
            rep.add(f"{name}: {desc}", f"lemma/{name}", ok, detail or None)
        rep.notes.extend(group.notes)
    norm_cases = []
    if which == "all":
        norm_cases = ["A", "B", "B0"]
    elif which.startswith("normalization-"):
        norm_cases = [which.split("-", 1)[1].upper()]
    for case in norm_cases:
        nr = clab.alpha_beta_solve(case)
        for desc, ok, fails in nr.solution_checks:
            rep.add(f"normalization {case}: {desc}", f"normalization/{case}", ok,
                    fails if fails and not ok else None)
        for name, res in nr.contradiction:
            rep.notes.append(f"normalization {case}: {name}: residual {res}")
    if which in ("all", "propagation"):
        pr = clab.recurrence_propagation_check()
        for desc, ok, detail in pr.checks:
            rep.add(f"recurrence propagation: {desc}", "lemma/propagation", ok,
                    detail or None)
    if which in ("all", "intersections"):
        claims = {"A": "survivors match the classification",
                  "B": "b-1/2 and b+1/2 lie in both weight classes' root sets"}
        for case, claim in claims.items():
            ir = clab.intersection_scan(case)
            rep.add(f"sampled intersection ({case}): {claim} over {ir.sampled} parameters",
                    f"intersection/{case}", ir.ok,
                    ir.unexplained[:2] if ir.unexplained else None)
            for bv, extras in ir.exceptions:
                rep.notes.append(
                    f"intersection ({case}): documented sporadic survivor at b={bv}: "
                    f"{[str(e) for e in extras]}")
    if not rep.checks:
        raise UsageError(f"unknown solve-coeffs selector {which!r}")
    return rep


def cmd_deform(args) -> Report:
    which = args.case or "all"
    cases = list(dlab.CASES) if which == "all" else [which]
    rep = Report("deform", {"case": which})
    for name in cases:
        if name not in dlab.CASES:
            raise UsageError(f"unknown deformation case {name!r}")
        case = dlab.CASES[name]
        for sub in (dlab.e_closed_form_check(case), dlab.g_solution_check(case),
                    dlab.f_derivation(case)):
            for desc, ok, detail in sub.checks:
                rep.add(f"{name}: {desc}", f"deformation/{name}", ok,
                        detail if not ok else None)
        alpha = _param(args.alpha) if args.alpha else Fraction(2, 7)
        spec, disc = dlab.instantiate_deformation(name, alpha)
        rep.add(f"{name}: instantiated table agrees with the derived table",
                f"deformation/{name}", not disc,
                disc[0].as_dict() if disc else None)
        sweep = axiom_sweep(spec, 2, 4)
        rep.add(f"{name}: instantiated family passes the axiom sweep",
                f"deformation/{name}", sweep.ok,
                sweep.violations[0].as_dict() if sweep.violations else None)
    return rep


def cmd_submodule(args) -> Report:
    spec = build_family(args)
    rep = Report("submodule", {"family": spec.label()})
    if args.scan:
        gaps = proper_submodule_scan(spec, args.gen_window, args.basis_window)
        rep.add("window survey of cyclic submodules completed", "submodule/scan", True,
                {k: v[:4] for k, v in sorted(gaps.items())[:6]} or None)
        return rep
    if not args.candidate:
        raise UsageError("submodule needs --candidate or --scan")
    cand = parse_candidate(args.candidate)
    if not any(map(cand.contains, labels_in_window(args.basis_window))):
        # nothing to act on: the check would pass without doing any work
        raise UsageError(f"candidate {args.candidate!r} holds no label of the basis window")
    sr = submodule_check(spec, cand, args.gen_window, args.basis_window)
    rep.params["candidate"] = sr.candidate
    rep.add("candidate subspace is closed under the window action",
            "submodule/closure", sr.closed, sr.escape)
    return rep


def cmd_nonexist_b0(args) -> Report:
    rep = Report("nonexist-b0", {})
    nr = clab.b0_nonexistence_check()
    for desc, ok, detail in nr.checks:
        rep.add(desc, "nonexistence-witness", ok, detail or None)
    rep.notes.append(str(nr.witness))
    return rep


def cmd_jacobi(args) -> Report:
    rep = Report("jacobi", {"window": args.window})
    jr = super_jacobi_sweep(args.window)
    rep.add(f"graded Jacobi identity over {jr.triples_checked} generator triples",
            "jacobi", jr.ok, jr.violations[0] if jr.violations else None)
    return rep


def cmd_all(args) -> Report:
    rep = Report("all", {"gen_window": 2, "basis_window": 4})

    jr = super_jacobi_sweep(2)
    rep.add(f"graded Jacobi identity over {jr.triples_checked} triples", "jacobi", jr.ok)

    sub = cmd_delta(argparse.Namespace(which="all"))
    rep.extend(sub)
    sub = cmd_roots(argparse.Namespace(which="all"))
    rep.extend(sub)

    for spec in (aab(), bab()):
        sweep = axiom_sweep(spec)
        rep.add(f"axiom sweep: {spec.label()}", "axiom-sweep", sweep.ok,
                sweep.violations[0].as_dict() if sweep.violations else None)
        part = ns_partition_check(spec)
        rep.add(f"restriction partitions: {spec.label()}", "ns-partition", part.ok)
    # the deformed families are swept at symbolic alpha and alphap, which
    # covers every value; the deform stage's alpha = 2/7 audit and sweep
    # cross-check the Fraction rows
    for fam in ("A1", "A2", "B1", "B2"):
        spec, disc = dlab.instantiate_deformation(fam, "sym", "sym")
        sweep = axiom_sweep(spec)
        rep.add(f"axiom sweep: {spec.label()}", "axiom-sweep", sweep.ok and not disc,
                sweep.violations[0].as_dict() if sweep.violations else None)

    rep.extend(cmd_compose_t(argparse.Namespace(family=None)))
    rep.extend(cmd_solve_coeffs(argparse.Namespace(which="all")))
    rep.extend(cmd_deform(argparse.Namespace(case="all", alpha=None)))

    facts = [
        (aab(Fraction(0), Fraction(-1)), complement_of("x0"), True),
        (aab(Fraction(0), Fraction(-1, 2)), span_of("y0"), True),
        (aab(Fraction(1, 3), Fraction(2, 5)), span_of("x0"), False),
    ]
    for spec, cand, want in facts:
        sr = submodule_check(spec, cand)
        rep.add(f"submodule fact: {cand.describe()} in {spec.label()} "
                f"{'closed' if want else 'not closed'}",
                "submodule/closure", sr.closed == want, sr.escape)

    rep.extend(cmd_nonexist_b0(argparse.Namespace()))

    for fault, desc in FAULT_CATALOG.items():
        sweep = axiom_sweep(spec_with_fault(fault))
        rep.add(f"fault detection: {desc}", f"fault/{fault}", bool(sweep.violations),
                sweep.violations[0].as_dict() if sweep.violations else None)
    return rep


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _window(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"a window must be at least 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistn2",
        description="verification lab for intermediate-series modules over the "
                    "twisted N=2 superconformal algebra")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, family=False, windows=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        if family:
            p.add_argument("--family", choices=("Aab", "Bab", "A1", "A2", "B1", "B2",
                                                "GenericA", "GenericB"))
            p.add_argument("--a")
            p.add_argument("--b")
            p.add_argument("--bprime")
            p.add_argument("--alpha")
        if windows:
            p.add_argument("--gen-window", type=_window, default=2, dest="gen_window")
            p.add_argument("--basis-window", type=_window, default=4, dest="basis_window")

    p = sub.add_parser("verify-axioms", help="module-axiom sweep for one family")
    common(p, family=True, windows=True)
    p.add_argument("--inject-fault", choices=tuple(FAULT_CATALOG), default=None,
                   help=argparse.SUPPRESS)

    p = sub.add_parser("delta", help="constraint determinants vs printed closed forms")
    common(p)
    p.add_argument("--which", choices=("1", "2", "3", "3p", "all"), default="all")

    p = sub.add_parser("roots", help="root sets of the constraint determinants")
    common(p)
    p.add_argument("--which",
                   choices=clab.ROOT_SET_NAMES + tuple(OMEGA_SETS) + ("all",),
                   default="all")

    p = sub.add_parser("compose-t", help="re-derive T coefficients from compositions")
    common(p, family=True)

    p = sub.add_parser("solve-coeffs", help="coefficient lemmas and normalizations")
    common(p)
    p.add_argument("--which",
                   choices=clab.LEMMA_CHECKS + ("normalization-a", "normalization-b",
                                                "normalization-b0", "propagation",
                                                "intersections", "all"),
                   default="all")

    p = sub.add_parser("deform", help="deformation recurrences and instantiation")
    common(p)
    p.add_argument("--case", choices=("A1", "A2", "B1", "B2", "all"), default="all")
    p.add_argument("--alpha")

    p = sub.add_parser("submodule", help="candidate submodule closure check")
    common(p, family=True, windows=True)
    p.add_argument("--candidate", help="span:x0,y1/2 or complement:x0")
    p.add_argument("--scan", action="store_true",
                   help="survey cyclic submodules instead of one candidate")

    p = sub.add_parser("nonexist-b0", help="contradiction witness for the exceptional candidate")
    common(p)

    p = sub.add_parser("jacobi", help="graded Jacobi identity sweep")
    common(p)
    p.add_argument("--window", type=_window, default=2)

    p = sub.add_parser("all", help="full verification suite")
    common(p)
    return parser


VERBS = {
    "verify-axioms": cmd_verify_axioms,
    "delta": cmd_delta,
    "roots": cmd_roots,
    "compose-t": cmd_compose_t,
    "solve-coeffs": cmd_solve_coeffs,
    "deform": cmd_deform,
    "submodule": cmd_submodule,
    "nonexist-b0": cmd_nonexist_b0,
    "jacobi": cmd_jacobi,
    "all": cmd_all,
}


_VALUE_OPTIONS = ("--a", "--b", "--bprime", "--alpha")


def _merge_negative_rationals(argv: list[str]) -> list[str]:
    """Rewrite ["--b", "-3/2"] as ["--b=-3/2"] so argparse accepts it."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    argv = _merge_negative_rationals(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = VERBS[args.verb](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
