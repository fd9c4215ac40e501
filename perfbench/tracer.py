"""Per-layer trace of `twistn2`, installed from outside the package.

Timed functions get one span per call: name, start, end and parent span.
Spans stay in memory (four flat arrays) and are written once, at exit.
Hot operators get a call count only: in one concrete-sweep pass
`Poly.__mul__` runs ~700 k times and the `HalfInt` methods ~5 M times, so a
span there would cost more than the operator.  Their time stays in the
calling span's self time.

A wrapper replaces every binding of the wrapped object, not only the one in
its home module: `constraints.act_indexed`, `cli.axiom_sweep` and the
`__rmul__ = __mul__` aliases are all rebound, and `install` fails if any
binding of an original is left behind.
"""

from __future__ import annotations

import sys
import time
from array import array

PACKAGE = "twistn2"

# span name -> the (module, attribute) bindings whose calls it records;
# a "Class.method" attribute is looked up on the class.
TIMED = {
    "modules.act": [("modules", "act")],
    "modules.act_indexed": [("modules", "act_indexed")],
    "modules.bracket_action_check": [("modules", "bracket_action_check")],
    "modules.axiom_sweep": [("modules", "axiom_sweep")],
    "modules.lincomb_str": [("modules", "lincomb_str")],
    "algebra.bracket": [("algebra", "bracket")],
    "algebra.super_jacobi_sweep": [("algebra", "super_jacobi_sweep")],
    "poly.substitute": [("poly", "Poly.substitute")],
    "poly.exact_divide": [("poly", "exact_divide")],
    "constraints.intersection_scan": [("constraints", "intersection_scan")],
    "constraints.delta3_vanishes_at": [("constraints", "delta3_vanishes_at")],
    "constraints.system_determinant": [("constraints", "system_determinant")],
    "constraints.root_set": [("constraints", "root_set")],
    "constraints.compare_delta_closed_form": [("constraints", "compare_delta_closed_form")],
    "constraints.coeff_solution_check": [("constraints", "coeff_solution_check")],
    "constraints.alpha_beta_solve": [("constraints", "alpha_beta_solve")],
    "constraints.recurrence_propagation_check": [("constraints",
                                                  "recurrence_propagation_check")],
    "constraints.derive_T_composition": [("constraints", "derive_T_composition")],
    "deformation.instantiate_deformation": [("deformation", "instantiate_deformation")],
    "deformation.recurrences": [("deformation", "e_closed_form_check"),
                                ("deformation", "g_solution_check"),
                                ("deformation", "f_derivation")],
    "report.render": [("report", "Report.to_json"), ("report", "Report.to_text")],
}


def _methods(module: str, cls: str, *names) -> list:
    return [(module, f"{cls}.{n}") for n in names]


# Operator counts.  Aliases such as `__rmul__ = __mul__` are one object, so
# naming either binding counts calls through both.
COUNTED = {
    "poly.mul": _methods("poly", "Poly", "__mul__"),
    "poly.add": _methods("poly", "Poly", "__add__", "__sub__", "__rsub__"),
    "poly.init": _methods("poly", "Poly", "__init__"),
    "poly.ratfunc": _methods("poly", "RatFunc", "__init__", "__eq__", "__add__", "__neg__",
                             "__sub__", "__rsub__", "__mul__", "substitute", "as_poly"),
    "halfint.ops": _methods("halfint", "HalfInt", "__init__", "of", "is_integer",
                            "is_half_odd", "parity", "__add__", "__sub__", "__neg__",
                            "__eq__", "__lt__", "__le__", "__hash__"),
    "indices.ops": _methods("indices", "SymIndex", "__init__", "of", "__add__", "__neg__",
                            "__sub__", "__rsub__", "scaled", "is_const", "const_value",
                            "parity", "substitute", "as_poly", "__eq__", "__hash__"),
}


class HygieneError(RuntimeError):
    pass


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _lookup(module: str, attr: str):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def _slots(mod):
    """(container, key, value) for each module global and each attribute of
    a class the module defines."""
    for name, value in list(vars(mod).items()):
        yield mod, name, value
        if isinstance(value, type) and value.__module__ == mod.__name__:
            for attr, entry in list(value.__dict__.items()):
                yield value, attr, entry


def rebind(old, new) -> None:
    """Point every binding of `old` in the package at `new`, and fail if a
    reference to `old` survives in a global, a class attribute, or a dict,
    list or tuple held by a global."""
    fn = getattr(old, "__func__", old)
    left = []
    for mod in _package_modules():
        for owner, key, value in _slots(mod):
            if value is old:
                setattr(owner, key, new)
                continue
            pool = (value.values() if isinstance(value, dict)
                    else value if isinstance(value, (list, tuple)) else (value,))
            if any(e is fn or getattr(e, "__func__", None) is fn for e in pool):
                left.append(f"{getattr(owner, '__name__', owner)}.{key}")
    if left:
        raise HygieneError(f"{fn.__qualname__}: bindings left unwrapped: {left}")


def wrap_bindings(bindings, make) -> None:
    """Replace the function behind each binding by `make(function)`,
    keeping staticmethods static; an alias already wrapped is skipped."""
    done = set()
    for module, attr in bindings:
        entry = _lookup(module, attr)
        if id(entry) in done:
            continue
        fn = getattr(entry, "__func__", entry)
        new = make(fn)
        if isinstance(entry, staticmethod):
            new = staticmethod(new)
        rebind(entry, new)
        done.add(id(new))


class Tracer:
    def __init__(self):
        self.names = list(TIMED)
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n     # seconds inside outermost spans of the name
        self.self_s = [0.0] * n    # span time not covered by child spans
        self.depth = [0] * n
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {label: [0] for label in COUNTED}
        self._stack: list = []     # [span index, seconds covered by child spans]

    def _timed(self, nid: int, fn):
        stack, name, parent, start, end = (
            self._stack, self.name, self.parent, self.start, self.end)
        calls, total, self_s, depth = self.calls, self.total, self.self_s, self.depth
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                depth[nid] -= 1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not depth[nid]:
                    total[nid] += dur

        return span

    @staticmethod
    def _counted(cell: list, fn):
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> "Tracer":
        for nid, label in enumerate(self.names):
            wrap_bindings(TIMED[label], lambda fn, nid=nid: self._timed(nid, fn))
        for label, bindings in COUNTED.items():
            cell = self.counts[label]
            wrap_bindings(bindings, lambda fn, cell=cell: self._counted(cell, fn))
        return self

    def act_hits(self) -> int:
        """act calls with no act_indexed span directly under them."""
        act = self.names.index("modules.act")
        indexed = self.names.index("modules.act_indexed")
        name, parent = self.name, self.parent
        misses = sum(1 for i, nid in enumerate(name)
                     if nid == indexed and parent[i] >= 0 and name[parent[i]] == act)
        return self.calls[act] - misses

    def metrics(self) -> dict:
        out = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = self.calls[nid]
            out[f"{label}.total_s"] = self.total[nid]
            out[f"{label}.self_s"] = self.self_s[nid]
        for label, cell in self.counts.items():
            out[f"{label}.calls"] = cell[0]
        act_calls = out["modules.act.calls"]
        out["modules.act.hit_ratio"] = self.act_hits() / act_calls if act_calls else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """A line of tab-separated span names, a line with the span count,
        then the name, parent, start and end arrays in native binary form."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + f"\n{len(self.name)}\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
