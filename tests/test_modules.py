"""Module family actions, axiom sweeps, partitions, submodules."""

import functools
import gc
import json
import re
import weakref
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistn2 import modules, poly
from twistn2.algebra import (G, Gen, L, Row, T, bracket, generators_in_window, parity,
                             residual_sweep)
from twistn2.cli import build_family, main, make_parser
from twistn2.deformation import instantiate_deformation
from twistn2.indices import SymIndex
from twistn2.modules import (FAULT_CATALOG, BasisLabel, FamilySpec, aab, act,
                             act_indexed, axiom_sweep, b_zero_candidate, bab,
                             bracket_action_check, complement_of, deformed,
                             labels_in_window, ns_partition_check, lincomb_str,
                             proper_submodule_scan, span_of, spec_with_fault,
                             submodule_check, unknown_name)
from twistn2.poly import ONE, Poly, RatFunc
from twistn2.report import Tally

H = Fraction(1, 2)
a, b = Poly.var("a"), Poly.var("b")


def lbl(letter, idx):
    return BasisLabel(letter, SymIndex.of(idx))


class TestPrintedActions:
    def test_aab_virasoro_on_x(self):
        assert act(aab(), L(1), lbl("x", 0)) == {lbl("x", 1): a + b}

    def test_aab_fermion_on_y(self):
        got = act(aab(), G(H), lbl("y", H))
        assert got == {lbl("x", 1): -(a + b)}

    def test_aab_current_vanishes_at_special_parameter(self):
        spec = aab(b=Fraction(-1, 2))
        assert act(spec, T(H), lbl("y", 0)) == {}

    def test_bab_current_on_x(self):
        assert act(bab(), T(H), lbl("x", 0)) == {lbl("x", H): ONE}

    def test_a1_deformed_virasoro(self):
        spec = deformed("A1", Fraction(2, 7))
        assert act(spec, L(2), lbl("x", 0)) == {lbl("x", 2): Poly.const(Fraction(-32, 7))}

    def test_a2_deformed_virasoro(self):
        spec = deformed("A2", Fraction(2, 7))
        assert act(spec, L(1), lbl("y", -1)) == {lbl("y", 0): Poly.const(Fraction(9, 7))}

    def test_central_element_acts_as_zero(self):
        from twistn2.algebra import C
        assert act(aab(), C, lbl("x", 0)) == {}


# The printed actions of A(a,b), B(a,b) and B(a,0,-3/2) on the basis vector
# of index k, by mode q: (kind, parity of q, letter, parity of k) ->
# (target letter, coefficient), or None where the mode acts as zero; the
# target index is always k + q.  L modes are integer and T modes half-odd.
Pk, Pq = Poly.var("k"), Poly.var("q")
STRATA = [(kind, qpar, letter, kpar)
          for kind, qpars in (("L", (0,)), ("T", (1,)), ("G", (0, 1)))
          for qpar in qpars for letter in ("x", "y") for kpar in (0, 1)]


def _printed_a(kind, qpar, letter, kpar):
    if kind == "L":
        return letter, a - Pk + (b if letter == "x" else b + H) * Pq
    if kind == "T":
        return letter, -2 * (b + 1) if letter == "x" else -(2 * b + 1)
    if letter == "x":
        return "y", ONE
    return "x", (-1 if qpar else 1) * (a - Pk + (2 * b + 1) * Pq)  # (-1)^(2q)


def _printed_b(kind, qpar, letter, kpar):
    s = -1 if qpar else 1  # (-1)^(2q)
    if kind == "L":
        if letter == "x":
            return "x", a - Pk + b * Pq
        return "y", a - Pk + (b + H if kpar else b - H) * Pq
    if kind == "T":
        if letter == "x":
            return "x", ONE
        return ("y", (2 * b + 1) * Pq) if kpar else None
    if letter == "x":
        if (kpar + qpar) % 2 == 0:
            return "y", s * (a - Pk + 2 * b * Pq)
        return "y", Poly.const(-s)
    return "x", -(a - Pk + (2 * b + 1) * Pq) if kpar else ONE


def _printed_b_zero(kind, qpar, letter, kpar):
    if kind == "L":
        if letter == "x":
            return "x", a - Pk - Pq if kpar else a - Pk
        return "y", a - Pk + H * Pq if kpar else a - Pk - 3 * H * Pq
    if kind == "T" or qpar == 0:  # T and the integer G modes act as zero
        return None
    if letter == "x":
        return "y", -(a - Pk - 2 * Pq) if kpar else ONE
    return "x", -(a - Pk + Pq) if kpar else ONE


PRINTED_TABLES = [(aab(), _printed_a), (bab(), _printed_b),
                  (b_zero_candidate(), _printed_b_zero)]


@pytest.mark.parametrize("spec, printed", PRINTED_TABLES, ids=["Aab", "Bab", "B(a,0,-3/2)"])
@pytest.mark.parametrize("stratum", STRATA, ids=[f"{k}{q}{l}{p}" for k, q, l, p in STRATA])
def test_printed_action_at_symbolic_indices(spec, printed, stratum):
    kind, qpar, letter, kpar = stratum
    k, q = SymIndex.var("k"), SymIndex.var("q")
    got = act_indexed(spec, kind, q, letter, k, {"k": kpar, "q": qpar})
    want = printed(*stratum)
    assert [(l, i) for l, i, _ in got] == ([] if want is None else [(want[0], k + q)])
    if want is not None:
        assert got[0][2] == want[1]


def acting(spec, g, lc):
    """g applied to a linear combination of basis vectors, through `act`."""
    out = {}
    for label, coeff in lc.items():
        for label2, coeff2 in act(spec, g, label).items():
            out[label2] = out.get(label2, 0) + coeff * coeff2
    return {label: coeff for label, coeff in out.items() if coeff}


class TestBracketActionChecks:
    def test_aab_fermion_pair_on_x0(self):
        spec = aab()
        assert bracket_action_check(spec, G(H), G(0), lbl("x", 0)) == {}
        # both sides equal -(b+1) x_{1/2}, computed independently
        start = {lbl("x", 0): ONE}
        lhs = {}
        for h, scale in bracket(G(H), G(0)).items():
            for label, coeff in acting(spec, h, start).items():
                lhs[label] = lhs.get(label, 0) + scale * coeff
        rhs = acting(spec, G(H), acting(spec, G(0), start))
        for label2, coeff in acting(spec, G(0), acting(spec, G(H), start)).items():
            rhs[label2] = rhs.get(label2, 0) + coeff
        assert lhs == {lbl("x", H): -(b + 1)} == rhs

    def test_central_term_contributes_nothing(self):
        assert bracket_action_check(aab(), L(2), L(-2), lbl("x", 0)) == {}

    def test_deformed_family_mixed_pair(self):
        spec = deformed("A1", Fraction(2, 7))
        assert bracket_action_check(spec, L(1), G(-H), lbl("x", 0)) == {}
        both = acting(spec, G(H), {lbl("x", 0): ONE})
        assert both == {lbl("y", H): Poly.const(2 * H + Fraction(2, 7))}


class TestAxiomSweeps:
    def test_symbolic_two_parameter_families(self):
        for spec in (aab(), bab()):
            report = axiom_sweep(spec)
            assert report.ok, report.violations[:1]

    def test_deformed_family_at_one_parameter(self):
        report = axiom_sweep(deformed("B2", Fraction(-5, 3)))
        assert report.ok, report.violations[:1]

    def test_fault_injection_is_detected_with_witness(self):
        report = axiom_sweep(spec_with_fault("aab.t-sign"))
        assert report.violations
        w = report.violations[0]
        kinds = {w["g1"][0], w["g2"][0]}
        assert "T" in kinds or "G" in kinds

    def test_sweep_counts_unordered_pairs(self):
        gens = len(generators_in_window(2))
        labels = len(labels_in_window(4))
        report = axiom_sweep(aab())
        assert report.checks == labels * gens * (gens + 1) // 2


@pytest.mark.parametrize("check", [
    # a basis window below 0 holds no label, and the empty span no label
    lambda: axiom_sweep(aab(), 2, -1),
    lambda: ns_partition_check(aab(), 2, -1),
    lambda: submodule_check(aab(), span_of()),
], ids=["axiom_sweep", "ns_partition_check", "submodule_check"])
def test_window_check_with_zero_checks_is_not_ok(check):
    tally = check()
    assert isinstance(tally, Tally)
    assert tally.checks == 0 and not tally.violations and tally.witness is None
    assert not tally.ok


def test_tally_is_ok_on_work_without_violations_and_witnesses_the_first():
    assert Tally(3).ok and Tally(3).witness is None
    failed = Tally(3, [{"v": "x_0"}, {"v": "x_1"}])
    assert not failed.ok and failed.witness == {"v": "x_0"}


def reference_sweep(spec, gen_window=2, basis_window=4):
    """axiom_sweep's result computed from bracket_action_check, check by check."""
    gens = sorted(generators_in_window(gen_window), key=Gen.sort_key)
    checks, violations = 0, []
    for v in labels_in_window(basis_window):
        for i, g1 in enumerate(gens):
            for g2 in gens[i:]:
                checks += 1
                res = bracket_action_check(spec, g1, g2, v)
                if res:
                    violations.append({"g1": str(g1), "g2": str(g2), "v": str(v),
                                       "residual": lincomb_str(res)})
    violations.sort(key=lambda w: (w["v"], w["g1"], w["g2"]))
    return checks, violations


@pytest.mark.parametrize("spec, fractional", [
    (deformed("A1", Fraction(2, 7)), False),
    (aab(), False),
    (spec_with_fault("a1.g0-coeff"), False),
    (spec_with_fault("aab.gy-coeff"), False),  # 2 584 witnesses
    # concrete sweeps run in ints over a common denominator; witnesses with
    # fractional residuals show a wrong unit
    (deformed("B2", Fraction(-20, 7), fault="b2.gdef-sign"), True),
    (deformed("A1", Fraction(12, 5), fault="a1.g0-coeff"), True),
    # symbolic sweeps run in ints at one Kronecker point; witnesses whose
    # residuals are polynomials in the parameters show a wrong decoding
    (bab(fault="bab.gx-sign"), "symbolic"),
    (deformed("B2", "sym", "sym", fault="b2.gdef-sign"), "symbolic"),
    # B(a,0,-3/2) is twinned at an integer a, which the candidate refuses
    # (1 190 witnesses)
    (b_zero_candidate(), False),
    # the T composition, a RatFunc whose denominator divides it, read as a Poly
    (FamilySpec("GenericB", a=Fraction(1, 3), b=Fraction(-5, 7), bprime="sym"), False),
    # one unknown per mode and vector: no stratum of ints, so no sweep
    (FamilySpec("GenericA", a="sym", b="sym", bprime="sym", coeff_mode="unknowns"), None),
], ids=["A1", "Aab", "a1.g0-coeff", "aab.gy-coeff",
        "b2.gdef-sign@-20/7", "a1.g0-coeff@12/5",
        "bab.gx-sign@sym", "b2.gdef-sign@sym", "B(a,0,-3/2)@sym",
        "GenericB@1/3,-5/7", "GenericA-unknowns"])
def test_sweep_kernel_matches_the_reference(spec, fractional):
    if fractional is None:
        with pytest.raises(ValueError, match=re.escape(spec.label())):
            axiom_sweep(spec)
        return
    report = axiom_sweep(spec)
    assert (report.checks, report.violations) == reference_sweep(spec)
    if fractional == "symbolic":
        assert report.violations
        assert all(re.search(r"\b(a|b|alpha|alphap)\b", w["residual"])
                   for w in report.violations)
    elif fractional:
        assert any("/" in w["residual"] for w in report.violations)


@functools.lru_cache(maxsize=None)
def fault_reference(fault):
    """`reference_sweep` of a catalogued fault's spec, built once."""
    return reference_sweep(spec_with_fault(fault))


@pytest.mark.parametrize("fault", sorted(FAULT_CATALOG))
def test_lazy_witnesses_read_as_the_eager_list(fault):
    # a sweep keeps only the checks the engine flags and builds each
    # witness when it is read; every reading of the list is the eager
    # reference's
    checks, want = fault_reference(fault)
    report = axiom_sweep(spec_with_fault(fault))
    got = report.violations
    assert report.checks == checks and len(got) == len(want) and bool(got)
    assert list(got) == want and got == want and want == got
    assert got[0] == want[0] and got[-1] == want[-1] and report.witness == want[0]
    assert got[:3] == want[:3] and got[1::7] == want[1::7]
    assert repr(got) == repr(want)


def test_a_fault_sweep_formats_only_the_witness_it_prints(monkeypatch, capsys):
    # the report prints the count and the first witness, so the sweep
    # computes and formats at most one residual of its violations
    formatted, checked = [], []

    def counting(lc):
        formatted.append(lc)
        return lincomb_str(lc)

    def counted_check(*args):
        checked.append(args)
        return bracket_action_check(*args)

    monkeypatch.setattr(modules, "lincomb_str", counting)
    monkeypatch.setattr(modules, "bracket_action_check", counted_check)
    argv = ["verify-axioms", "--family", "Aab", "--inject-fault", "aab.t-sign"]
    assert main(argv + ["--format", "json"]) == 1
    assert len(formatted) <= 1 and len(checked) <= 1
    _, want = fault_reference("aab.t-sign")
    out = json.loads(capsys.readouterr().out)
    assert out["checks"][0]["witness"] == want[0]
    assert out["notes"] == [f"{len(want)} violations in total"]


def _position_keys(bound: int) -> tuple:
    """The label key at each `modules._position` of this bound, None at 0."""
    return (None, *((letter, d) for letter in "xy" for d in range(-bound, bound + 1)))


def _array_entry(row: Row, bound: int, key) -> tuple:
    """An engine row's entry at a label key, as the memo's dict holds it:
    ((label key, coeff), ...), an int row's numerators over its den."""
    keys = _position_keys(bound)
    p = modules._position(bound, *key)
    return tuple((keys[targets[p]], Fraction(c[p], row.den)) for targets, c in row.layers if c[p])


def _engine_input(monkeypatch, spec, *windows):
    """The (pairs, rows) of the spec's own engine call in an axiom sweep of
    it: the last call, after its base module's sweep where it has one."""
    handed = []

    def recording(pairs, rows):
        handed.append((pairs, rows))
        return residual_sweep(pairs, rows)

    monkeypatch.setattr(modules, "residual_sweep", recording)
    axiom_sweep(spec, *windows)
    return handed[-1]


def test_a_row_missing_a_reached_entry_raises(monkeypatch):
    # the full sweep over the rows the split sweep of A1 read
    _, rows = _engine_input(monkeypatch, deformed("A1", Fraction(2, 7)), 1, 2)
    pairs = modules._frame(1, 2)[1]
    assert list(residual_sweep(pairs, rows)) == []
    # a label outside the window that y takes a window label to, with a
    # nonzero coefficient, so the check reads x there
    window = {vp for vp, _ in pairs[0][-1]}
    key, p = next((k1, targets[vp]) for _, k1, k2, _, _, _ in pairs
                  for targets, coeffs in rows[k2].layers for vp in window
                  if coeffs[vp] and targets[vp] not in window)
    (targets, coeffs), = rows[key].layers
    blank = [(targets[:p] + [None] + targets[p + 1:], coeffs[:p] + [None] + coeffs[p + 1:])]
    with pytest.raises(TypeError):
        list(residual_sweep(pairs, {**rows, key: Row(blank, rows[key].den)}))


def test_an_int_row_read_without_its_den_raises(monkeypatch):
    # without its den, a concrete spec's int row would be read as if over
    # 1: a row cannot be built without one
    _, rows = _engine_input(monkeypatch, deformed("A1", Fraction(2, 7)), 1, 2)
    assert all(type(r.den) is int for r in rows.values()) and {r.den for r in rows.values()} != {1}
    assert list(residual_sweep(modules._frame(1, 2)[1], rows)) == []
    key = next(k for k, r in rows.items() if any(r.layers[0][1]))
    with pytest.raises(TypeError):
        Row(rows[key].layers)


# every spec `verify-axioms` can sweep: each family at symbolic and at
# concrete parameters, and each catalogued fault
CLI_SWEEPS = [
    *(["--family", fam, *params] for fam in ("Aab", "Bab", "GenericA", "GenericB")
      for params in ([], ["--a", "1/3", "--b=-5/7"])),
    ["--family", "GenericA", "--a", "1/3", "--b", "2"],
    *(["--family", "Bab", "--b", "0", "--bprime=-3/2", *params] for params in ([], ["--a", "1/3"])),
    *(["--family", fam, "--alpha", alpha] for fam in ("A1", "A2", "B1", "B2")
      for alpha in ("sym", "2/7")),
    *(["--family", spec.family, *(["--alpha", str(spec.alpha)] if spec.alpha else []),
       "--inject-fault", spec.fault] for spec in map(spec_with_fault, sorted(FAULT_CATALOG))),
]


@pytest.mark.parametrize("argv", CLI_SWEEPS, ids=[
    argv[-1] if "--inject-fault" in argv else " ".join(argv[1:]) for argv in CLI_SWEEPS])
def test_every_sweep_the_cli_runs_is_on_int_rows(monkeypatch, argv):
    # one arithmetic: every row the engine reads is int numerators over an
    # int den, and the sweep is the check-by-check reference
    spec = build_family(make_parser().parse_args(["verify-axioms", *argv]))
    _, rows = _engine_input(monkeypatch, spec)
    assert all(type(row.den) is int and all(type(c) is int for _, coeffs in row.layers
                                            for c in coeffs if c is not None)
               for row in rows.values())
    report = axiom_sweep(spec)
    want = fault_reference(spec.fault) if spec.fault else reference_sweep(spec)
    assert (report.checks, report.violations) == want
    assert bool(report.violations) == (spec.fault is not None or spec.bprime == Fraction(-3, 2))


def _substituted(coeff, bindings):
    if isinstance(coeff, (Poly, RatFunc)):
        return coeff.substitute(bindings)
    return coeff


def _faults(family):
    prefix = family.lower() + "."
    return [None] + [f for f in FAULT_CATALOG if f.startswith(prefix)]


# alpha denominators the strata (over 4) lack: the slot entries put rows of
# one sweep over 4, 12 and 36 (28, 20), and each is rescaled to the sweep's d
FOREIGN_DENS = [deformed(fam, alpha, fault=fault) for fam, alpha, fault in (
    *((fam, Fraction(1, 9), fault) for fam in ("A1", "A2", "B1", "B2")
      for fault in (None, _faults(fam)[1])),
    ("A2", Fraction(-20, 7), "a2.ty-coeff"), ("B1", Fraction(12, 5), None))]


@pytest.mark.parametrize("spec", FOREIGN_DENS, ids=[s.label() for s in FOREIGN_DENS])
def test_int_rows_over_foreign_denominators_match_the_reference(spec):
    report = axiom_sweep(spec)
    assert len({f.den for r in spec.ctx.rows.values() for f in r.filled.values()}) > 1
    assert (report.checks, report.violations) == reference_sweep(spec)
    assert bool(report.violations) == (spec.fault is not None)


def test_pair_tables_of_two_windows_do_not_mix():
    # the pair table is kept per window: one spec swept at window 1, 2, then
    # 1 again reports what fresh specs report with no table kept
    spec = deformed("B2", Fraction(1, 9), fault="b2.gdef-sign")
    fresh = {}
    for window in (1, 2):
        modules._pair_table.cache_clear()
        fresh[window] = axiom_sweep(replace(spec), window)
    modules._pair_table.cache_clear()
    for window in (1, 2, 1):
        got = axiom_sweep(spec, window)
        gens = len(generators_in_window(window))
        assert got.checks == fresh[window].checks == 34 * gens * (gens + 1) // 2
        assert got.violations and list(got.violations) == list(fresh[window].violations)
    assert modules._pair_table.cache_info().hits == 1


# (concrete spec, the same spec with symbolic parameters, their values)
TABLE_CASES = [
    (deformed(fam, alpha, fault=fault), deformed(fam, "sym", "sym", fault=fault),
     {"alpha": alpha, "alphap": 1})
    for fam in ("A1", "A2", "B1", "B2") for fault in _faults(fam)
    for alpha in (Fraction(2, 7), Fraction(-20, 7), Fraction(12, 5))
] + [
    (FamilySpec(fam, a=av, b=bv, fault=fault), FamilySpec(fam, a="sym", b="sym", fault=fault),
     {"a": av, "b": bv})
    for fam in ("Aab", "Bab") for fault in _faults(fam)
    for av, bv in ((Fraction(1, 3), Fraction(-5, 7)), (Fraction(12, 5), Fraction(2)))
] + [
    (b_zero_candidate(Fraction(1, 3)), b_zero_candidate("sym"), {"a": Fraction(1, 3)}),
] + [
    (FamilySpec(fam, a=Fraction(1, 3), b=Fraction(-5, 7), bprime="sym"),
     FamilySpec(fam, a="sym", b="sym", bprime="sym"),
     {"a": Fraction(1, 3), "b": Fraction(-5, 7)})
    for fam in ("GenericA", "GenericB")
]


# every spec of TABLE_CASES, each once (the Aab/Bab faults at symbolic
# (a, b), and A1-B2 with their faults at symbolic alpha, alpha'), the faults
# at alpha' = 3/2, the mu branch, whose RatFunc and mu-symbol strata are no
# ints, so only its entries are read, and an integral a with b symbolic,
# where b*q vanishes on L_0, so a symbolic stratum gives a constant entry,
# integral at integer k
FILL_CASES = list(dict.fromkeys([spec for c, s, _ in TABLE_CASES for spec in (c, s)] + [
    deformed(fam, Fraction(2, 7), Fraction(3, 2), fault=fault)
    for fam in ("A1", "A2", "B1", "B2") for fault in _faults(fam)
] + [FamilySpec("GenericB", a=Fraction(1, 3), b=Fraction(0), coeff_mode="mu")] + [
    FamilySpec(fam, a=Fraction(2), b="sym", fault=fault)
    for fam in ("Aab", "Bab") for fault in _faults(fam)
]))


def _fill_mismatches(spec, arrays=True):
    """The (generator, label) entries of the spec's memo, as its dict and,
    unless `arrays` is false, as its engine arrays, that differ from a
    direct table read in value, type or term order: on the window-2
    generators and the bracket targets an axiom sweep reads, at every label
    up to +-6.  The spec should be fresh, so that its memo is built here."""
    gens = generators_in_window(2) + [L(4), L(-4), T(Fraction(7, 2)), T(Fraction(-7, 2)),
                                      G(4), G(-4)]
    bad = []
    for g in gens:
        row = spec.ctx.row(g)
        # labels to +-6 and modes to +-4, doubled
        filled = row.engine_row(20, 12) if arrays else None
        for v in labels_in_window(6):
            want = tuple(((letter, idx.doubled), modules._scalar(c)) for letter, idx, c in
                         act_indexed(spec, g.kind, g.idx, v.letter, v.idx) if c)
            key = (v.letter, v.idx.doubled)
            reads = (row[key], _array_entry(filled, 20, key)) if arrays else (row[key],)
            for got in reads:
                if got != want or [type(c) for _, c in got] != [type(c) for _, c in want]:
                    bad.append((g, v))
    return bad


@pytest.mark.parametrize("spec", FILL_CASES, ids=[s.label() for s in FILL_CASES])
def test_row_fill_equals_direct_reads(spec):
    # a row evaluates one symbolic read per parity stratum; `act` and the
    # sweeps read the same rows, so only a direct read can check them.  A
    # symbolic spec's rows are direct reads, so its twin's fill is checked;
    # the mu branch has no arrays, so only its entries are
    twin = modules._twin(replace(spec), 2, 4)
    if spec.coeff_mode == "mu":
        with pytest.raises(ValueError, match=re.escape(spec.label())):
            twin.ctx.row(G(0)).engine_row(20, 12)
    assert _fill_mismatches(twin, arrays=spec.coeff_mode != "mu") == []


def test_row_fill_misses_an_index_case_without_its_own_fallback(monkeypatch):
    # a case split on v = 3 is a decision on index equality, which a read
    # at symbolic k never takes; so the fill disagrees there.  The slot,
    # the tables' one such decision, has its own strata, read at symbolic q
    # on the slot's vector (`_Ctx.slot_stratum`)
    original = modules._act_case_a

    def special(ctx, kind, g, letter, v, env):
        terms = original(ctx, kind, g, letter, v, env)
        return [(l, i, c + 1) for l, i, c in terms] if v == 3 else terms

    monkeypatch.setitem(modules._TABLES, "Aab", special)
    bad = _fill_mismatches(aab(Fraction(1, 3), Fraction(-5, 7)))
    assert bad and {v for _, v in bad} == {lbl("x", 3), lbl("y", 3)}


DEFORMED = ("A1", "A2", "B1", "B2")
# (alpha, alpha'): the deform stage's alpha, and one whose slot entries
# bring denominators the base rows lack
SLOT_ALPHAS = ((Fraction(2, 7), Fraction(1)), (Fraction(-13, 5), Fraction(3, 2)))


def _base_arrays():
    """Every filled row of the four base modules, element for element."""
    return {(fam, key, size): (row.den, [(list(t), list(c)) for t, c in row.layers])
            for fam in DEFORMED
            for key, r in modules._base_spec(*modules.BASE_FAMILY[fam][:3]).ctx.rows.items()
            for size, row in r.filled.items()}


def test_deformed_rows_copy_their_base_rows_and_never_patch_them():
    # a deformed family's arrays are its base module's, copied, with the
    # slot written over: faults, and alphas whose slots bring new dens,
    # leave the shared base rows as they were
    for fam in DEFORMED:
        assert axiom_sweep(deformed(fam, Fraction(2, 7))).ok
    before = _base_arrays()
    assert before
    rescaled = set()
    for fam in DEFORMED:
        base = modules._base_spec(*modules.BASE_FAMILY[fam][:3])
        for fault in _faults(fam):
            for alpha, alphap in SLOT_ALPHAS:
                spec = deformed(fam, alpha, alphap, fault=fault)
                assert bool(axiom_sweep(spec).violations) == (fault is not None)
                rescaled |= {(fam, alpha) for key, r in spec.ctx.rows.items() if key[0] != "C"
                             for size, row in r.filled.items()
                             if row.den != base.ctx.rows[key].filled[size].den}
    assert _base_arrays() == before
    assert {fam for fam, _ in rescaled} == set(DEFORMED)
    for fam in DEFORMED:
        assert axiom_sweep(deformed(fam, Fraction(5, 3))).ok


SLOT_CASES = [deformed(fam, alpha, alphap, fault=fault) for fam in DEFORMED
              for fault in _faults(fam) for alpha, alphap in SLOT_ALPHAS]


@pytest.mark.parametrize("spec", SLOT_CASES, ids=[s.label() for s in SLOT_CASES])
def test_slot_strata_at_each_mode_are_the_direct_reads(counted_act_indexed, spec):
    # the four slot strata, read at symbolic q, give every row of a sweep
    # its slot entry: at each mode of the window and each bracket target,
    # of both parities, with no further table read
    spec = replace(spec)
    for kind, qpar in modules.MODE_CLASSES:
        spec.ctx.slot_stratum(kind, qpar)
    assert counted_act_indexed[0] == 4
    gens = [g for _, g in modules._pair_table(2)[1] if g.kind != "C"]
    entries = {g: spec.ctx.row(g)[spec.ctx.row(g).slot] for g in gens}
    assert counted_act_indexed[0] == 4
    assert {(g.kind, g.idx.doubled & 1) for g in gens} == set(modules.MODE_CLASSES)
    for g, got in entries.items():
        letter, v = modules.slot_vector(spec.family, g.kind, g.idx)
        want = tuple(((letter2, idx.doubled), modules._scalar(c))
                     for letter2, idx, c in act_indexed(spec, g.kind, g.idx, letter, v) if c)
        assert got == want and [type(c) for _, c in got] == [type(c) for _, c in want]


@pytest.mark.parametrize("family", DEFORMED)
def test_a_second_spec_of_a_family_reads_the_table_on_its_slot_alone(monkeypatch, family):
    # the base module's rows are filled by the first spec; the second
    # reads only its four slot strata, at symbolic q on the slot's vector
    assert axiom_sweep(deformed(family, Fraction(2, 7))).ok
    reads = []
    original = modules.act_indexed

    def recording(spec, kind, g, letter, v, env=None):
        reads.append((kind, g, letter, v))
        return original(spec, kind, g, letter, v, env)

    monkeypatch.setattr(modules, "act_indexed", recording)
    assert axiom_sweep(deformed(family, Fraction(-13, 5), Fraction(3, 2))).ok
    assert len(reads) == 4
    assert all(g == modules._Q and (letter, v) == modules.slot_vector(family, kind, g)
               for kind, g, letter, v in reads)


# the deformed specs whose split sweep is compared with the full sweep: the
# deform stage's alpha, alpha = 0, a slot with new dens, the twin at
# symbolic alpha, and the 8 deformed faults
SPLIT_CASES = [*(deformed(fam, alpha, alphap) for fam in DEFORMED
                 for alpha, alphap in ((Fraction(0), Fraction(1)), *SLOT_ALPHAS)),
               *(deformed(fam, "sym") for fam in DEFORMED),
               *(spec_with_fault(fault) for fam in DEFORMED for fault in _faults(fam)[1:])]


def _slots(spec, gen_window) -> tuple:
    """The (row key, slot) of every row of a deformed spec's sweep, the
    key of `modules._slot_checks`."""
    return tuple((key, spec.ctx.row(g).slot) for key, g in modules._pair_table(gen_window)[1])


def _full_flags(rows, windows) -> list:
    """(v name, g1 name, g2 name) of every check the full sweep over these
    rows flags, every pair on every window label, as a sweep sorts them."""
    return sorted((name, n1, n2) for (n1, n2, _, _), (name, _)
                  in residual_sweep(modules._frame(*windows)[1], rows))


@pytest.mark.parametrize("windows", [(1, 2), (2, 4)], ids=["1,2", "2,4"])
@pytest.mark.parametrize("spec", SPLIT_CASES, ids=[s.label() for s in SPLIT_CASES])
def test_the_split_sweep_flags_what_the_full_sweep_flags(monkeypatch, spec, windows):
    # the base module's flags off the slot and the engine's on the checks
    # that read it are the flags of the full sweep over the same rows, and
    # the reference's violations
    spec = replace(spec)
    _, rows = _engine_input(monkeypatch, spec, *windows)
    report = axiom_sweep(spec, *windows)
    flagged = [record[:3] for record in report.violations.records]
    checks, want = (fault_reference(spec.fault) if spec.fault and windows == (2, 4)
                    else reference_sweep(replace(spec), *windows))
    assert report.checks == checks
    assert flagged == _full_flags(rows, windows) == [(w["v"], w["g1"], w["g2"]) for w in want]
    assert bool(flagged) == (spec.fault is not None)


def _off_slot_fault(original):
    """A case-A table whose G action on y gains 1: A1's base module A(0,-1)
    is no module, and fails checks that read no slot of A1, the actions on
    x_0."""
    def shifted(ctx, kind, g, letter, v, env):
        terms = original(ctx, kind, g, letter, v, env)
        return [(l, i, c + 1) for l, i, c in terms] if kind == "G" and letter == "y" else terms
    return shifted


def _base_with_no_source(original):
    """A case-A table read at a + 1: A(1,-1), a module, in place of A1's
    base module A(0,-1).  G_q maps y_-q onto x_0 at a nonzero coefficient
    there, so x_0 is no source, and a check whose one slot read is x at
    y v reads A1's slot at a nonzero coefficient."""
    def moved(ctx, kind, g, letter, v, env):
        return [(l, i + 1, c) for l, i, c in original(ctx, kind, g, letter, v - 1, env)]
    return moved


@pytest.mark.parametrize("windows", [(1, 2), (2, 4)], ids=["1,2", "2,4"])
@pytest.mark.parametrize("patch", [_off_slot_fault, _base_with_no_source],
                         ids=["fault-off-the-slot", "no-source"])
def test_a_changed_base_module_is_read_by_the_split_sweep(monkeypatch, patch, windows):
    # the split sweep merges its base module's flags, so a base module
    # fault off the slot fails A1 as it fails the full sweep; and it runs
    # the engine on every check that reads the slot, so a base module in
    # which the slot is reached (its own flags empty) fails A1 there too
    monkeypatch.setitem(modules._TABLES, "Aab", patch(modules._act_case_a))
    modules._base_spec.cache_clear()
    try:
        spec = deformed("A1", Fraction(2, 7))
        _, rows = _engine_input(monkeypatch, spec, *windows)
        report = axiom_sweep(spec, *windows)
        flagged = [record[:3] for record in report.violations.records]
        checks, want = reference_sweep(replace(spec), *windows)
        assert report.checks == checks
        assert flagged == _full_flags(rows, windows) == [(w["v"], w["g1"], w["g2"]) for w in want]
        touching = {(name, n1, n2) for (n1, n2, _, _), *_, vectors in modules._slot_checks(
            *windows, _slots(spec, windows[0])) for _, (name, _) in vectors}
        base_flags = spec.ctx.base.ctx.flags[windows]
        if patch is _off_slot_fault:
            # some of them read no slot
            assert set(flagged) - touching and base_flags
        else:
            assert flagged and set(flagged) <= touching and base_flags == []
    finally:
        modules._base_spec.cache_clear()


def _moved_slot(monkeypatch, family, how):
    """BASE_FAMILY with the family's slot moved: its index by one, its
    letter or its role."""
    base, a, b, role, (letter, idx) = modules.BASE_FAMILY[family]
    if how == "index":
        idx = idx + 1
    elif how == "letter":
        letter = "y" if letter == "x" else "x"
    elif how == "role":
        role = "sink" if role == "source" else "source"
    monkeypatch.setitem(modules.BASE_FAMILY, family, (base, a, b, role, (letter, idx)))


@pytest.mark.parametrize("how", ["index", "letter", "role"])
@pytest.mark.parametrize("family", DEFORMED)
def test_a_moved_slot_is_swept_with_its_own_slot_checks(monkeypatch, family, how):
    # a family swept with its slot in place, then moved: the split sweep of
    # the moved slot flags every check the full sweep and the reference do,
    # so no table of slot checks kept from the first sweep is read
    windows = (1, 2)
    assert axiom_sweep(deformed(family, Fraction(2, 7)), *windows).ok
    _moved_slot(monkeypatch, family, how)
    spec = deformed(family, Fraction(2, 7))
    _, rows = _engine_input(monkeypatch, spec, *windows)
    flagged = [record[:3] for record in axiom_sweep(spec, *windows).violations.records]
    _, want = reference_sweep(replace(spec), *windows)
    assert flagged == _full_flags(rows, windows) == [(w["v"], w["g1"], w["g2"]) for w in want]
    assert flagged


@pytest.mark.parametrize("windows", [(1, 2), (2, 4)], ids=["1,2", "2,4"])
@pytest.mark.parametrize("how", [None, "index", "letter", "role"])
@pytest.mark.parametrize("family", DEFORMED)
def test_the_slot_table_holds_the_checks_that_read_a_slot_position(monkeypatch, family, how,
                                                                   windows):
    # brute force over every pair and window label of the full sweep: a
    # check is in the table iff one of its five reads, by the targets of
    # the rows themselves, is a row's slot position.  A moved slot has its
    # own table, as the table is keyed by the slots and not the family
    _moved_slot(monkeypatch, family, how)
    spec = deformed(family, Fraction(2, 7))
    bound, pairs, _ = modules._frame(*windows)
    rows = _engine_rows(spec, *windows)
    slots = {key: modules._position(bound, *slot) for key, slot in _slots(spec, windows[0])
             if slot is not None}
    want = []
    for tag, k1, k2, _, xy, vectors in pairs:
        (t1, _), (t2, _) = rows[k1].layers[0], rows[k2].layers[0]
        for vp, name in vectors:
            reads = [(k2, vp), (k1, t2[vp]), (k1, vp), (k2, t1[vp]), *((kh, vp) for kh, _ in xy)]
            if any(slots.get(key) == p for key, p in reads):
                want.append((tag, name))
    table = modules._slot_checks(*windows, _slots(spec, windows[0]))
    assert [(tag, name) for tag, *_, vectors in table for _, name in vectors] == want
    assert 0 < len(want) < sum(len(pair[-1]) for pair in pairs)
    # each pair as the full sweep has it, with its own vectors in the
    # full sweep's order
    tags = {tag for tag, _ in want}
    assert [pair[:5] for pair in table] == [pair[:5] for pair in pairs if pair[0] in tags]


def test_a_warm_deformed_sweep_hands_the_engine_its_slot_checks_alone(monkeypatch):
    # with its base module swept, an A1 sweep at windows (2, 4) runs the
    # engine once, on the 495 checks that read its slot, and still reports
    # all 6 460 checks
    assert axiom_sweep(deformed("A1", Fraction(2, 7))).ok
    handed = []

    def recording(pairs, rows):
        handed.append(pairs)
        return residual_sweep(pairs, rows)

    monkeypatch.setattr(modules, "residual_sweep", recording)
    report = axiom_sweep(deformed("A1", Fraction(-13, 5), Fraction(3, 2)))
    assert report.checks == 6460 and report.ok
    assert [(len(pairs), sum(len(pair[-1]) for pair in pairs)) for pairs in handed] == [(189, 495)]


# A1-B2 with no fault and with each of their faults, at alpha = 0, at the
# deform stage's alpha, and at one whose slot entries bring dens the base
# rows lack, so the copies are rescaled
ROW_CASES = [deformed(fam, alpha, alphap, fault=fault) for fam in DEFORMED
             for fault in _faults(fam)
             for alpha, alphap in ((Fraction(0), Fraction(1)), *SLOT_ALPHAS)]


@pytest.mark.parametrize("windows", [(1, 2), (2, 4)], ids=["1,2", "2,4"])
@pytest.mark.parametrize("spec", ROW_CASES, ids=[s.label() for s in ROW_CASES])
def test_the_rows_a_split_sweep_hands_the_engine_are_direct_reads(monkeypatch, spec, windows):
    # the split sweep reads copied, rescaled base rows with the slot
    # written over: at every position a slot-touching check reads, each row
    # holds the direct table read, target and value, an empty entry as 0
    spec = replace(spec)
    pairs, rows = _engine_input(monkeypatch, spec, *windows)
    bound, full, _ = modules._frame(*windows)
    assert 0 < sum(len(pair[-1]) for pair in pairs) < sum(len(pair[-1]) for pair in full)
    reads = set()
    for _, k1, k2, _, xy, vectors in pairs:
        (t1, _), (t2, _) = rows[k1].layers[0], rows[k2].layers[0]
        for vp, _ in vectors:
            reads |= {(k2, vp), (k1, t2[vp]), (k1, vp), (k2, t1[vp]), *((kh, vp) for kh, _ in xy)}
    keys = _position_keys(bound)
    slots = {(key, modules._position(bound, *slot)) for key, slot in _slots(spec, windows[0])
             if slot is not None and abs(slot[1]) <= bound}
    assert slots & reads
    for key, p in reads - {(key, 0) for key, _ in reads}:  # position 0 is the zero vector
        (kind, gd), (letter, d), row = key, keys[p], rows[key]
        terms = [] if kind == "C" else act_indexed(spec, kind, SymIndex(gd), letter, SymIndex(d))
        want = {modules._position(bound, letter2, idx.doubled): c for letter2, idx, c in terms if c}
        got = {targets[p]: Fraction(coeffs[p], row.den) for targets, coeffs in row.layers
               if coeffs[p]}
        assert got == want, (key, keys[p])


SYMBOLIC_AB = [spec for spec in FILL_CASES
               if spec.family in ("Aab", "Bab") and spec.a == "sym"]


@pytest.mark.parametrize("spec", SYMBOLIC_AB, ids=[s.label() for s in SYMBOLIC_AB])
def test_symbolic_parameter_rows_are_filled_from_strata(spec):
    # a symbolic spec is swept as its twin, whose rows are int rows filled
    # from int strata; the bound test below compares their entries with
    # direct reads of the spec at the twin's point.  B(a,0,-3/2) is twinned
    # at an integer a, which the candidate itself refuses
    twin = modules._twin(spec, 2, 4)
    assert twin is not spec and twin.family == spec.family and twin.fault == spec.fault
    assert all(getattr(twin, field).denominator == 1 for field in ("a", "b")
               if getattr(spec, field) == "sym")
    strata = [twin.ctx.stratum(*key) for key in modules._STRATA]
    assert None not in strata and all(type(row.den) is int for row in _engine_rows(twin).values())


def _engine_rows(spec, gen_window=2, basis_window=4) -> dict:
    """The engine rows of the spec that an axiom sweep at these windows reads."""
    bound, _, radii = modules._frame(gen_window, basis_window)
    return {key: spec.ctx.row(g).engine_row(bound, radii[key])
            for key, g in modules._pair_table(gen_window)[1]}


def test_one_twin_per_spec_and_windows_whose_rows_the_partition_check_reads():
    # the sweep and the partition check of one spec at one pair of windows
    # share its twin, so the check reads the rows the sweep filled: it
    # makes no row and reads no stratum the sweep did not
    spec = aab()
    twin = modules._twin(spec, 2, 4)
    assert twin is not spec and modules._twin(spec, 2, 4) is twin
    assert modules._twin(spec, 1, 2) is not twin
    assert axiom_sweep(spec).ok
    rows, strata = dict(twin.ctx.rows), dict(twin.ctx.strata)
    forms = {key: dict(row.forms) for key, row in rows.items()}
    assert ns_partition_check(spec).ok
    assert twin.ctx.rows.keys() == rows.keys()
    assert all(twin.ctx.rows[key] is row for key, row in rows.items())
    assert twin.ctx.strata == strata
    assert {key: row.forms for key, row in rows.items()} == forms
    # a spec with no twin keeps None, not itself (`test_spec_and_its_memo_form_no_reference_cycle`)
    spec = deformed("A1", Fraction(2, 7))
    assert modules._twin(spec, 2, 4) is spec and spec.ctx.twins == {(2, 4): None}


@pytest.mark.parametrize("spec", SYMBOLIC_AB, ids=[s.label() for s in SYMBOLIC_AB])
def test_symbolic_parameter_sweep_reads_strata(monkeypatch, spec):
    # 1 133 (Aab) and 869 (Bab) direct reads when a symbolic parameter
    # got no stratum; the twin reads none (its C row is zero as filled)
    read = []
    original = modules._ActionRow._read

    def counting(self, letter, doubled):
        read.append(self.kind)
        return original(self, letter, doubled)

    monkeypatch.setattr(modules._ActionRow, "_read", counting)
    assert axiom_sweep(replace(spec)).checks == 6460
    assert read == []


def test_a_twin_whose_engine_runs_over_less_than_d_flags_the_references_violations(monkeypatch):
    # b/8 added to every G action: an int at the point, so the twin's rows
    # stay over 4 while the spec's residuals hold b**2/32 and D is 8; the
    # twin's engine flags exactly the checks where the spec's residual is
    # nonzero
    original = modules._act_case_a

    def eighth(ctx, kind, g, letter, v, env):
        terms = original(ctx, kind, g, letter, v, env)
        return [(l, i, c + ctx.b * Fraction(1, 8)) for l, i, c in terms] if kind == "G" else terms

    monkeypatch.setitem(modules._TABLES, "Aab", eighth)
    spec = aab()
    assert modules._twin_point(spec, 1, 2)[1] == 8
    twinned = axiom_sweep(spec, 1, 2)
    rows = _engine_rows(modules._twin(spec, 1, 2), 1, 2)
    assert lcm(*(row.den for row in rows.values())) == 4
    checks, want = reference_sweep(replace(spec), 1, 2)
    flagged = [record[:3] for record in twinned.violations.records]
    assert twinned.checks == checks and len(flagged) == 450
    assert flagged == [(w["v"], w["g1"], w["g2"]) for w in want]
    assert "15/32*b^2" in twinned.witness["residual"]
    assert list(twinned.violations) == want


# every twinned spec of `all`, the four faults at symbolic (a, b), the
# generic candidates at symbolic (a, b), whose T compositions are read as
# Polys, and B(a,0,-3/2) at symbolic a, twinned at an integer a
TWINNED = [aab(), bab(), *(deformed(fam, "sym", "sym") for fam in ("A1", "A2", "B1", "B2")),
           *(spec_with_fault(fault) for fault in _faults("Aab")[1:] + _faults("Bab")[1:]),
           *(FamilySpec(fam, a="sym", b="sym", bprime="sym") for fam in ("GenericA", "GenericB")),
           b_zero_candidate()]


@pytest.mark.parametrize("windows", [(1, 2), (2, 4)], ids=["1,2", "2,4"])
@pytest.mark.parametrize("spec", TWINNED, ids=[s.label() for s in TWINNED])
def test_the_twin_point_bounds_every_entry_the_sweep_reads(monkeypatch, spec, windows):
    # the twin's engine runs over a d that divides D, and every entry it
    # reads is the image of a direct read of the symbolic spec whose L1
    # norm, times D, is within the point's norm
    spec = replace(spec)
    point, den, norm, params = modules._twin_point(spec, *windows)
    _, rows = _engine_input(monkeypatch, spec, *windows)
    bound, pairs, _ = modules._frame(*windows)
    # d over every pair of the full sweep, which a deformed family's twin
    # hands the engine only in part
    d = lcm(*(row.den for row in rows.values()),
            *(scale.denominator for *_, xy, _ in pairs for _, scale in xy))
    assert den % d == 0
    values = {name: point.value(name) for name in params.values()}
    widest = 0
    for key, row in rows.items():
        gen = Gen(key[0], None if key[1] is None else SymIndex(key[1]))
        for p, label in enumerate(_position_keys(bound)):
            if p == 0 or row.layers[0][1][p] is None:  # the zero vector, or not filled
                continue
            terms = _array_entry(row, bound, label)
            want = act_indexed(spec, gen.kind, gen.idx, label[0], SymIndex(label[1]))
            want = [((l, i.doubled), ONE * modules._scalar(c)) for l, i, c in want if c]
            assert [lk for lk, _ in terms] == [lk for lk, _ in want]
            for (_, c), (_, w) in zip(terms, want):
                assert w.substitute(values) == c
                widest = max(widest, den * sum(abs(t) for t in w.terms.values()))
    assert widest <= norm


@pytest.mark.parametrize("spec", [aab(), aab(Fraction(1, 3), Fraction(-5, 7))],
                         ids=["sym", "1/3,-5/7"])
def test_a_stratum_in_another_symbol_is_left_to_direct_reads(monkeypatch, spec):
    # a coefficient holding a symbol other than m and k (here an unknown of
    # the unknowns mode) is no stratum of ints: the entries are direct
    # reads, and the row has no engine arrays
    original = modules._act_case_a
    unknown = Poly.var(unknown_name("g", SymIndex(0), SymIndex(0)))

    def with_unknown(ctx, kind, g, letter, v, env):
        terms = original(ctx, kind, g, letter, v, env)
        return [(l, i, c + unknown) for l, i, c in terms] if kind == "L" else terms

    monkeypatch.setitem(modules._TABLES, "Aab", with_unknown)
    spec = replace(spec)
    assert spec.ctx.stratum("L", 0, "x", 0) is None
    assert spec.ctx.stratum("G", 1, "x", 0) is not None
    assert _fill_mismatches(spec, arrays=False) == []
    with pytest.raises(ValueError, match=re.escape(spec.label())):
        spec.ctx.row(L(0)).engine_row(20, 12)


def test_row_fill_registers_no_symbol(monkeypatch):
    # test_golden's term order rests on the order of the symbol registry, so
    # the fill may ask it for no name but the core symbols, whichever test
    # registered a name first
    asked = set()
    register = poly.sym_slot

    def recording(name):
        asked.add(name)
        return register(name)

    monkeypatch.setattr(poly, "sym_slot", recording)
    specs = [aab(Fraction(1, 3), Fraction(-5, 7)), bab(Fraction(1, 3), Fraction(-5, 7)),
             b_zero_candidate(Fraction(1, 3)), aab(), bab(), b_zero_candidate()]
    specs += [deformed(fam, alpha, alphap) for fam in ("A1", "A2", "B1", "B2")
              for alpha, alphap in ((Fraction(2, 7), Fraction(1)), ("sym", "sym"))]
    before = len(poly._NAMES)
    for spec in specs:
        assert axiom_sweep(spec, 1, 2).checks
    assert len(poly._NAMES) == before
    assert asked <= set(poly.CORE_SYMBOLS)
    # the unknowns mode names its symbols by concrete mode and vector only
    unknowns = FamilySpec("GenericA", a="sym", b="sym", bprime="sym", coeff_mode="unknowns")
    for g in generators_in_window(1):
        for v in labels_in_window(2):
            act(unknowns, g, v)
    assert all(re.fullmatch(r"(fp?|gp?)\[-?[\d/]+;-?[\d/]+\]", name)
               for name in asked - set(poly.CORE_SYMBOLS))


def test_witness_over_a_constant_denominator_prints_as_a_polynomial():
    # the mu branch's entries are RatFuncs; `act` reads one over a constant
    # denominator as its Poly, so the residual prints as a polynomial
    spec = FamilySpec("GenericB", a=Fraction(1, 3), b=Fraction(0), bprime="sym",
                      coeff_mode="mu")
    residual = bracket_action_check(spec, G(-1), G(-1), lbl("x", -1))
    assert [type(c) for c in residual.values()] == [Poly]
    assert lincomb_str(residual) == "(-8/3*mu1*mu3 + 8/3)*x_-3"


@pytest.mark.parametrize("concrete, symbolic, values", TABLE_CASES,
                         ids=[c.label() for c, _, _ in TABLE_CASES])
def test_fraction_table_is_the_symbolic_table_evaluated(concrete, symbolic, values):
    # concrete parameters are read as Fractions, symbolic ones as Poly
    # symbols; both tables must agree entry by entry on the whole window
    for g in generators_in_window(2):
        if g.kind == "C":
            continue
        for v in labels_in_window(4):
            args = (g.kind, SymIndex.of(g.idx), v.letter, SymIndex.of(v.idx))
            got = act_indexed(concrete, *args)
            want = act_indexed(symbolic, *args)
            assert [(l, i) for l, i, _ in got] == [(l, i) for l, i, _ in want]
            for (_, _, c), (_, _, w) in zip(got, want):
                if concrete.family.startswith("Generic") and g.kind == "T":
                    assert isinstance(c, RatFunc)  # the composition T_r = [G_r, G_0]/r
                else:
                    assert isinstance(c, Fraction) or c.is_const(), (g, v, c)
                assert c == _substituted(w, values), (g, v)


nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@st.composite
def small_polys(draw):
    p = Poly.const(draw(st.fractions(min_value=-4, max_value=4, max_denominator=6)))
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
        p = p + coeff * a ** draw(st.integers(0, 2)) * b ** draw(st.integers(0, 2))
    return p


@given(nonzero_fractions, small_polys())
@settings(max_examples=150, deadline=None)
def test_mixed_fraction_and_poly_arithmetic(f, p):
    # the sweep kernel mixes plain Fraction coefficients with Poly ones
    fp = Poly.const(f)
    assert f + p == fp + p and p + f == p + fp
    assert f - p == fp - p and p - f == p - fp
    assert f * p == fp * p and p * f == p * fp
    assert all(isinstance(x, Poly) for x in (f + p, p + f, f - p, f * p, p * f))
    assert Poly.const(-1 * f) == -1 * fp
    assert str(f) == str(fp) and str(-1 * f) == str(-1 * fp)


@given(st.sampled_from(generators_in_window(2)),
       st.sampled_from(labels_in_window(3)))
@settings(max_examples=120, deadline=None)
def test_weight_additivity(g, v):
    spec = aab()
    gidx = g.idx.doubled if g.idx is not None else 0
    for label in act(spec, g, v):
        assert label.idx.doubled == v.idx.doubled + gidx


@given(st.sampled_from(generators_in_window(2)),
       st.sampled_from(labels_in_window(3)))
@settings(max_examples=120, deadline=None)
def test_parity_exchange_matches_grading(g, v):
    # odd generators always move between the two basis letters
    spec = bab()
    for label in act(spec, g, v):
        if parity(g):
            assert label.letter != v.letter
        else:
            assert label.letter == v.letter


class TestPartitions:
    def test_half_odd_fermion_stays_in_first_block(self):
        got = act(aab(), G(H), lbl("x", 0))
        assert got == {lbl("y", H): ONE}  # x integer and y half-odd share a block

    def test_current_mode_swaps_blocks(self):
        got = act(aab(), T(H), lbl("x", 0))
        assert got == {lbl("x", H): -2 * (b + 1)}  # half-odd x is the other block

    def test_full_partition_sweep(self):
        for spec in (aab(), bab()):
            report = ns_partition_check(spec)
            assert report.ok, report.violations[:1]


class TestSubmodules:
    def test_distinguished_vector_complement_is_closed(self):
        spec = aab(Fraction(0), Fraction(-1))
        assert submodule_check(spec, complement_of("x0")).ok

    def test_one_dimensional_submodule(self):
        spec = aab(Fraction(0), Fraction(-1, 2))
        assert submodule_check(spec, span_of("y0")).ok

    def test_generic_single_vector_escapes(self):
        spec = aab(Fraction(1, 3), Fraction(2, 5))
        report = submodule_check(spec, span_of("x0"))
        assert not report.ok
        assert report.witness["g"] == "L(-2)" or report.witness["g"].startswith(("L", "T", "G"))

    def test_generic_parameters_admit_no_single_vector_submodule(self):
        for av, bv in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-2, 7), Fraction(3, 4))):
            spec = aab(av, bv)
            for v in labels_in_window(4):
                assert not submodule_check(spec, span_of(v)).ok

    def test_cyclic_scan_finds_the_unique_proper_submodule(self):
        gaps = proper_submodule_scan(aab(Fraction(0), Fraction(-1)))
        assert set(map(tuple, gaps.values())) == {("x_0",)}
        assert "x_0" not in gaps  # the distinguished vector generates everything

    def test_cyclic_scan_on_generic_parameters_is_empty(self):
        assert proper_submodule_scan(aab(Fraction(1, 3), Fraction(2, 5))) == {}

    @pytest.mark.parametrize("spec, cand, windows, read", [
        (aab(Fraction(0), Fraction(-1)), complement_of("x0"), (0, 4), 8),
        (aab(Fraction(0), Fraction(-1)), complement_of("x0"), (2, 4), 16),
        (aab(Fraction(0), Fraction(-1, 2)), span_of("y0"), (2, 4), 4),
    ], ids=["complement-x0-L0-G0", "complement-x0", "span-y0"])
    def test_a_check_builds_only_the_strata_its_entries_read(self, spec, cand, windows, read):
        # each entry reads the stratum of its own mode class, letter and
        # parity of k: with L_0 and G_0 alone the half-odd and T modes read
        # none, and on y_0 alone only (y, even k) is read
        spec = replace(spec)
        assert submodule_check(spec, cand, *windows).ok
        entries = {(kind, doubled & 1, letter, d & 1)
                   for (kind, doubled), row in spec.ctx.rows.items() if kind != "C"
                   for letter, d in row}
        assert set(spec.ctx.strata) == entries and len(entries) == read


@pytest.fixture
def counted_act_indexed(monkeypatch):
    """Counts the action entries built from the tables.  The slot audit in
    `deformation` reads its spec's slot strata, so every read goes through
    the binding in `modules`."""
    calls = [0]
    original = modules.act_indexed

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(modules, "act_indexed", counting)
    return calls


class TestActionMemo:
    def test_second_sweep_of_one_spec_builds_no_entry(self, counted_act_indexed):
        spec = deformed("A1", Fraction(2, 7))
        first = axiom_sweep(spec)
        assert counted_act_indexed[0] > 0
        counted_act_indexed[0] = 0
        second = axiom_sweep(spec)
        assert counted_act_indexed[0] == 0
        assert second == first

    def test_audit_reads_the_slot_only(self, counted_act_indexed):
        # one read per kind of mode at a symbolic index, and no memo entry
        # of the spec or of its base module, which other specs share
        for family in ("A1", "A2", "B1", "B2"):
            base = modules._base_spec(*modules.BASE_FAMILY[family][:3])
            before = set(base.ctx.rows)
            counted_act_indexed[0] = 0
            spec, found = instantiate_deformation(family, Fraction(2, 7))
            assert not found
            assert 0 < counted_act_indexed[0] <= 4
            assert spec.ctx.rows == {}
            assert spec.ctx.base is base and set(base.ctx.rows) == before

    def test_deformed_specs_share_their_base_modules_strata(self):
        # off the slot a deformed family is its base module for every alpha,
        # so its strata are built once per base module
        one = deformed("A1", Fraction(2, 7))
        two = deformed("A1", Fraction(-20, 7), fault="a1.g0-coeff")
        assert one.ctx.base is two.ctx.base
        for key in modules._STRATA:
            assert one.ctx.stratum(*key) is two.ctx.stratum(*key) is one.ctx.base.ctx.stratum(*key)
        assert one.ctx.strata == two.ctx.strata == {}

    def test_spec_and_its_memo_form_no_reference_cycle(self):
        # with the cyclic collector off, a spec goes as soon as its last
        # reference does, memo and all: concrete, twinned, and twinned at a
        # value the spec refuses; a deformed spec's base module is the
        # process-wide `_base_spec` memo, and holds no reference to it
        specs = [deformed("A1", Fraction(2, 7)), bab(), b_zero_candidate(),
                 FamilySpec("GenericB", a=Fraction(1, 3), b=Fraction(-5, 7), bprime="sym")]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for spec in specs:
                axiom_sweep(spec, 1, 2)
                ns_partition_check(spec, 1, 2)
            refs = [weakref.ref(spec) for spec in specs]
            del spec, specs
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_every_entry_the_sweeps_of_all_read_has_one_term(self, monkeypatch, capsys):
        # one-dimensional weight spaces: no module row spreads over a second
        # layer, in any sweep of `all`, faults and twins included
        handed = []
        sweep = modules.residual_sweep

        def recording(pairs, rows, *args, **kwargs):
            handed.append(rows)
            return sweep(pairs, rows, *args, **kwargs)

        monkeypatch.setattr(modules, "residual_sweep", recording)
        # the four base modules are swept once each in the run, not before it
        modules._base_spec.cache_clear()
        assert main(["all", "--format", "json"]) == 0
        capsys.readouterr()
        # Aab and Bab, the four base modules of A1..B2, A1..B2 at symbolic
        # and at deform-stage alpha, 12 faults
        assert len(handed) == 2 + 4 + 4 + 4 + 12
        assert all(len(row.layers) == 1 and not row.spread
                   for rows in handed for row in rows.values())

    def test_all_leaves_no_module_state_behind(self, capsys):
        def sizes():
            return {name: len(value) for name, value in vars(modules).items()
                    if isinstance(value, (dict, list, set, tuple))}

        before = sizes()
        assert main(["all", "--format", "json"]) == 0
        capsys.readouterr()
        assert sizes() == before


class TestSpecValidation:
    def test_exceptional_candidate_rejects_half_integer_weights(self):
        with pytest.raises(ValueError):
            FamilySpec("Bab", a=Fraction(1, 2), b=Fraction(0), bprime=Fraction(-3, 2))
        with pytest.raises(ValueError):
            FamilySpec("Bab", a=Fraction(3), b=Fraction(0), bprime=Fraction(-3, 2))
        b_zero_candidate(a=Fraction(1, 3))  # allowed

    @pytest.mark.parametrize("family", ["Aab", "Bab", "A1"])
    @pytest.mark.parametrize("mode", ["unknowns", "alpha", "beta", "mu"])
    def test_printed_family_takes_no_coefficient_mode(self, family, mode):
        # only the generic candidates read unknowns or symbolic constants
        params = dict(alpha="sym") if family == "A1" else dict(a="sym", b="sym")
        with pytest.raises(ValueError, match="coefficient mode"):
            FamilySpec(family, coeff_mode=mode, **params)

    @pytest.mark.parametrize("family, mode", [("GenericA", "beta"), ("GenericA", "mu"),
                                              ("GenericB", "alpha")])
    def test_generic_candidate_takes_only_its_own_case_modes(self, family, mode):
        # each table reads only its own case's constants; another case's mode
        # would be shown in the label and never read
        with pytest.raises(ValueError, match="coefficient mode"):
            FamilySpec(family, a="sym", b="sym", bprime="sym", coeff_mode=mode)

    @pytest.mark.parametrize("family, fault", [
        ("Aab", "no-such-fault"), ("A1", "aab.t-sign"), ("B2", "b1.t0-coeff"),
        ("GenericA", "aab.gy-coeff")])
    def test_fault_must_be_a_catalogued_fault_of_the_family(self, family, fault):
        params = dict(alpha="sym") if family in ("A1", "B2") else dict(a="sym", b="sym")
        with pytest.raises(ValueError, match="catalogued fault"):
            FamilySpec(family, fault=fault, **params)

    def test_unsupported_bprime_is_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("Bab", a="sym", b=Fraction(0), bprime=Fraction(7))

    def test_label_shows_alphap_off_its_printed_value(self):
        assert FamilySpec("A1", alpha=Fraction(2, 7)).label() == "A1 alpha=2/7"
        assert deformed("B2", "sym", "sym").label() == "B2 alpha=sym alphap=sym"
        assert deformed("A2", Fraction(1), Fraction(3)).label() == "A2 alpha=1 alphap=3"

    def test_deformed_families_need_alpha(self):
        with pytest.raises(ValueError):
            FamilySpec("A1")

    def test_basis_label_is_concrete(self):
        assert BasisLabel("x", "1/2") == lbl("x", H) and BasisLabel("y", 2).idx == SymIndex(4)
        with pytest.raises(ValueError):
            BasisLabel("x", SymIndex.var("k"))
        with pytest.raises(ValueError):
            BasisLabel("x", Fraction(1, 3))

    def test_exceptional_candidate_kills_currents_and_integer_fermions(self):
        spec = b_zero_candidate(a=Fraction(1, 3))
        assert act(spec, T(H), lbl("x", 0)) == {}
        assert act(spec, G(1), lbl("x", 0)) == {}
        assert act(spec, G(H), lbl("x", 0)) == {lbl("y", H): ONE}
