"""Command-line front end: verification verbs with text/JSON reports.

Exit codes: 0 all checks passed, 1 at least one violation or discrepancy
found (witnesses in the report), 2 usage error (including a report file
that cannot be written), 3 internal error (a crash of the lab itself, whose
traceback goes to stderr, or a report the reader stopped reading).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from fractions import Fraction
from functools import lru_cache, partial

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


# the families that read --a, --b and --bprime; the others read --alpha
_PARAMETRIC = ("Aab", "Bab", "GenericA", "GenericB")


def build_family(args) -> FamilySpec:
    family = args.family
    if family is None:
        raise UsageError("--family is required for this command")
    unread = ("alpha",) if family in _PARAMETRIC else ("a", "b", "bprime")
    given = [f"--{nm}" for nm in unread if getattr(args, nm) is not None]
    if given:
        raise UsageError(f"family {family} does not read {', '.join(given)}")
    try:
        if family in _PARAMETRIC:
            a = _param(args.a) if args.a is not None else "sym"
            b = _param(args.b) if args.b is not None else "sym"
            bprime = _param(args.bprime) if args.bprime is not None else None
            if family.startswith("Generic"):
                # the printed coefficient forms fix bp (bp = b for GenericA,
                # b - 1/2 for GenericB), so a given one would go unchecked
                if bprime is not None:
                    raise UsageError(f"{family} fixes bprime through its printed "
                                     "coefficient forms; drop --bprime")
                bprime = "sym"
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
            "axiom-sweep", sweep.ok, sweep.witness)
    if len(sweep.violations) > 1:
        rep.notes.append(f"{len(sweep.violations)} violations in total")
    if spec.family in _PARAMETRIC and not spec.fault:
        part = ns_partition_check(spec, args.gen_window, args.basis_window)
        rep.add("even/odd restriction partitions preserved and swapped as required",
                "ns-partition", part.ok, part.witness)
    return rep


def cmd_delta(args) -> Report:
    which = args.which or "all"
    rep = Report("delta", {"which": which})
    for w in ("1", "2", "3", "3p") if which == "all" else (which,):
        rep.extend(clab.compare_delta_closed_form(w))
    return rep


def cmd_roots(args) -> Report:
    which = args.which or "all"
    rep = Report("roots", {"which": which})
    names = clab.ROOT_SET_NAMES + tuple(clab.OMEGA_SETS) if which == "all" else (which,)
    for name in names:
        try:
            rep.extend(clab.root_set_check(name))
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
    if which == "all":
        rep.extend(clab.swap_symmetry_checks())
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
        rep.extend(clab.derive_T_composition(spec))
    return rep


def cmd_solve_coeffs(args) -> Report:
    which = args.which or "all"
    rep = Report("solve-coeffs", {"which": which})
    for name in clab.LEMMA_CHECKS:
        if which in ("all", name):
            rep.extend(clab.coeff_solution_check(name))
    for case in ("A", "B", "B0"):
        if which in ("all", f"normalization-{case.lower()}"):
            rep.extend(clab.alpha_beta_solve(case))
    if which in ("all", "propagation"):
        rep.extend(clab.recurrence_propagation_check())
    if which in ("all", "intersections"):
        rep.extend(clab.intersection_scan("A"))
        rep.extend(clab.intersection_scan("B"))
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
        rep.extend(dlab.e_closed_form_check(case))
        rep.extend(dlab.g_solution_check(case))
        rep.extend(dlab.f_derivation(case))
        alpha = _param(args.alpha) if args.alpha else Fraction(2, 7)
        spec, disc = dlab.instantiate_deformation(name, alpha)
        rep.add(f"{name}: instantiated table agrees with the derived table",
                f"deformation/{name}", not disc, disc[0] if disc else None)
        sweep = axiom_sweep(spec, 2, 4)
        rep.add(f"{name}: instantiated family passes the axiom sweep",
                f"deformation/{name}", sweep.ok, sweep.witness)
    return rep


def cmd_submodule(args) -> Report:
    spec = build_family(args)
    rep = Report("submodule", {"family": spec.label()})
    if args.scan:
        if args.candidate is not None:
            raise UsageError("submodule takes --candidate or --scan, not both")
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
    rep.params["candidate"] = cand.describe()
    rep.add("candidate subspace is closed under the window action",
            "submodule/closure", sr.ok, sr.witness)
    return rep


def cmd_nonexist_b0(args) -> Report:
    rep = Report("nonexist-b0", {})
    rep.extend(clab.b0_nonexistence_check())
    return rep


def cmd_jacobi(args) -> Report:
    rep = Report("jacobi", {"window": args.window})
    jr = super_jacobi_sweep(args.window)
    rep.add(f"graded Jacobi identity over {jr.checks} generator triples",
            "jacobi", jr.ok, jr.witness)
    return rep


def cmd_all(args) -> Report:
    rep = Report("all", {"gen_window": 2, "basis_window": 4})

    jr = super_jacobi_sweep(2)
    rep.add(f"graded Jacobi identity over {jr.checks} triples", "jacobi", jr.ok)

    sub = cmd_delta(argparse.Namespace(which="all"))
    rep.extend(sub)
    sub = cmd_roots(argparse.Namespace(which="all"))
    rep.extend(sub)

    for spec in (aab(), bab()):
        sweep = axiom_sweep(spec)
        rep.add(f"axiom sweep: {spec.label()}", "axiom-sweep", sweep.ok, sweep.witness)
        part = ns_partition_check(spec)
        rep.add(f"restriction partitions: {spec.label()}", "ns-partition", part.ok,
                part.witness)
    # the deformed families are swept at symbolic alpha and alphap, which
    # covers every value; the deform stage's alpha = 2/7 audit and sweep
    # cross-check the Fraction rows
    for fam in ("A1", "A2", "B1", "B2"):
        spec, disc = dlab.instantiate_deformation(fam, "sym", "sym")
        sweep = axiom_sweep(spec)
        rep.add(f"axiom sweep: {spec.label()}", "axiom-sweep", sweep.ok and not disc,
                sweep.witness or (disc[0] if disc else None))

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
        # "not closed" needs an escape witness: a check that ran nothing has none
        rep.add(f"submodule fact: {cand.describe()} in {spec.label()} "
                f"{'closed' if want else 'not closed'}",
                "submodule/closure", sr.ok if want else bool(sr.violations), sr.witness)

    rep.extend(cmd_nonexist_b0(argparse.Namespace()))

    for fault, desc in FAULT_CATALOG.items():
        sweep = axiom_sweep(spec_with_fault(fault))
        rep.add(f"fault detection: {desc}", f"fault/{fault}", bool(sweep.violations),
                sweep.witness)
    return rep


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _window(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"a window must be at least 1, got {value}")
    return value


def make_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; with `only`, the same parser holding that verb's
    subparser alone.  `main` reads the one subparser of the verb it is
    given: the other nine cost more than parsing.

    One parser per verb and help width is built per process (`_parser`)
    and reused, as parsing keeps no state in it: a caller parses with it
    and never adds to it.  The width is read from the terminal on every
    call, so `COLUMNS` still takes effect."""
    return _parser(only, shutil.get_terminal_size().columns - 2)


@lru_cache(maxsize=11)
def _parser(only: str | None, width: int) -> argparse.ArgumentParser:
    """`make_parser`'s parser at this help width, built once: the bound
    holds the parser of each of the ten verbs and the full one at one
    width."""
    # argparse sizes its help to the terminal on every formatter it makes,
    # one per add_argument; the width is given to each instead
    formatter = partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="twistn2",
        description="verification lab for intermediate-series modules over the "
                    "twisted N=2 superconformal algebra",
        formatter_class=formatter)
    # a parser of one verb names every verb in its usage, as the full one does
    sub = parser.add_subparsers(dest="verb", required=True,
                                metavar=None if only is None else "{%s}" % ",".join(VERBS))

    def verb(name, text, family=False, windows=False):
        """The subparser of one verb, with its common options; None where
        `only` names another verb."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=text, formatter_class=formatter)
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
        return p

    if p := verb("verify-axioms", "module-axiom sweep for one family", family=True,
                 windows=True):
        p.add_argument("--inject-fault", choices=tuple(FAULT_CATALOG), default=None,
                       help=argparse.SUPPRESS)
    if p := verb("delta", "constraint determinants vs printed closed forms"):
        p.add_argument("--which", choices=("1", "2", "3", "3p", "all"), default="all")
    if p := verb("roots", "root sets of the constraint determinants"):
        p.add_argument("--which",
                       choices=clab.ROOT_SET_NAMES + tuple(clab.OMEGA_SETS) + ("all",),
                       default="all")
    verb("compose-t", "re-derive T coefficients from compositions", family=True)
    if p := verb("solve-coeffs", "coefficient lemmas and normalizations"):
        p.add_argument("--which",
                       choices=clab.LEMMA_CHECKS + ("normalization-a", "normalization-b",
                                                    "normalization-b0", "propagation",
                                                    "intersections", "all"),
                       default="all")
    if p := verb("deform", "deformation recurrences and instantiation"):
        p.add_argument("--case", choices=("A1", "A2", "B1", "B2", "all"), default="all")
        p.add_argument("--alpha")
    if p := verb("submodule", "candidate submodule closure check", family=True, windows=True):
        p.add_argument("--candidate", help="span:x0,y1/2 or complement:x0")
        p.add_argument("--scan", action="store_true",
                       help="survey cyclic submodules instead of one candidate")
    verb("nonexist-b0", "contradiction witness for the exceptional candidate")
    if p := verb("jacobi", "graded Jacobi identity sweep"):
        p.add_argument("--window", type=_window, default=2)
    verb("all", "full verification suite")
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
    argv = _merge_negative_rationals(list(sys.argv[1:] if argv is None else argv))
    parser = make_parser(argv[0] if argv and argv[0] in VERBS else None)
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
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: the report was not delivered.  Point
        # stdout at devnull so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
