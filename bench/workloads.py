"""The four workloads: inputs, the timed calls into each layer, and the
untimed reference check of every output.

A run times every item once per pass, over several passes, and keeps
each item's median time. Item costs are heavy-tailed (one formula in a
hundred costs a hundred times the median), so the item list is mostly a
core catalogue drawn once from CATALOGUE_SEED and shared by every run
seed, plus a fresh share drawn from the run seed: a few hundred items
drawn afresh per seed would move items_per_s by 15% between seeds, while
the fresh share still gives every seed inputs of its own.

`run` is the only timed code. It wraps every call into a layer in a span
named after the layer and returns the outputs; `check` compares them with
a reference and returns None, or the name of the layer that answered
wrongly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import gen
import refs
from defifix.compiler import compile_singleton, formula_to_neighbourhood, neighbourhood_to_formula
from defifix.curve_lab import CurveData, build_closure, verify_closure
from defifix.fields import element_str, enumerate_elements, make_field
from defifix.formulas import Equal, definable_set, parse, parse_term, print_formula
from defifix.neighbourhood import (
    Neighbourhood,
    certify_by_propagation,
    enumerate_arithmetic_maps,
    fixed_subfield,
    is_neighbourhood,
    nbhd_rational,
)
from defifix.normalize import normalize, normalized_definable_set
from defifix.schemas import SCHEMA_NAMES, SchemaParams, emit
from defifix.terms import Term

CATALOGUE_SEED = 20050216
EXPECTED = Path(__file__).resolve().parent / "expected"
ROOT = Path(__file__).resolve().parent.parent


class Workload:
    name = ""
    specs: tuple[str, ...] = ()  # fields built during set-up

    def __init__(self):
        self.fields = {s: make_field(s) for s in self.specs}
        self._ref = {}  # reference answers, reused when an input repeats

    def core(self, rng: Random) -> list:
        return []

    def fresh(self, rng: Random) -> list:
        return []

    def items(self, seed: int) -> list:
        """The run's items: the shared core, then the seed's fresh items."""
        return self.core(Random(CATALOGUE_SEED)) + self.fresh(Random(seed))

    def reference(self, key, compute):
        if key not in self._ref:
            self._ref[key] = compute()
        return self._ref[key]

    def ref_field(self, spec: str) -> refs.RefField:
        return self.reference(("field", spec), lambda: refs.RefField.of(self.fields[spec]))

    # probe inputs: what the workload's own items hand to each layer
    def probe_terms(self, items) -> list:
        return []

    def probe_neighbourhoods(self, items) -> list:
        return []

    def probe_rationals(self, items) -> list:
        return []


# -- formula-solve ---------------------------------------------------------------


class FormulaSolve(Workload):
    """parse(print(f)) -> normalize -> normalized_definable_set; the
    reference is the brute-force definable_set."""

    name = "formula-solve"
    specs = ("F5", "F7", "F2^2", "F3^2")
    # bound variables per field: |K|^(1+bound) stays within 125..729 points
    BOUND = {"F5": 2, "F2^2": 3, "F7": 2, "F3^2": 2}
    # formulas per field; F3^2 items cost the most, so fewer of them. The
    # fresh formulas come from the two fields whose costs have light tails,
    # so that no seed's inputs hold a one-second formula the others lack.
    CORE = {"F5": 31, "F7": 24, "F2^2": 31, "F3^2": 12}
    FRESH = {"F5": 1, "F2^2": 1}

    def _items(self, rng, counts):
        return [(s, gen.random_formula(rng, self.BOUND[s])) for s, n in counts.items() for _ in range(n)]

    def core(self, rng):
        return self._items(rng, self.CORE)

    def fresh(self, rng):
        return self._items(rng, self.FRESH)

    def run(self, item, tr):
        spec, f = item
        with tr.span("formulas.print"):
            text = print_formula(f)
        with tr.span("formulas.parse"):
            g = parse(text)
        with tr.span("normalize.normalize"):
            nf = normalize(g)
        with tr.span("normalize.solve"):
            points = normalized_definable_set(nf, self.fields[spec])
        if tr.on:
            tr.note("formulas.parse.chars", len(text))
            tr.note("normalize.disjuncts", len(nf.systems))
            tr.note("normalize.atoms", sum(len(s.atoms) for s in nf.systems))
            tr.note("normalize.variables", sum(len(s.variables) for s in nf.systems))
            tr.note("normalize.solve.points", len(points))
        return text, g, nf, points

    def check(self, item, out):
        spec, f = item
        text, g, nf, points = out
        if g != f:
            return "formulas"
        want = self.reference((spec, text), lambda: definable_set(f, self.fields[spec], "x"))
        return None if points == want else "normalize"

    def chars(self, item, out):
        return len(out[0]) + len(out[2].to_text())

    def probe_terms(self, items):
        return [(side, spec) for spec, f in items for eq in _equalities(f) for side in (eq.lhs, eq.rhs)]


# -- nbhd-decide -------------------------------------------------------------------


class NbhdDecide(Workload):
    """Map search and extension-field arithmetic: neighbourhood decisions
    on random subsets, fixed subfields, rational neighbourhoods over F_p
    and Q, and curve closures."""

    name = "nbhd-decide"
    SUBSET = ("F13", "F17", "F2^4", "F3^3", "F5^2")
    FIXED = ("F2^3", "F2^4", "F3^2", "F5^2", "F7^2")
    PRIME = ("F5", "F7", "F11", "F13")
    specs = tuple(dict.fromkeys(SUBSET + FIXED + PRIME + ("Q",)))
    # (subsets per field, rationals per prime field, rationals over Q,
    # curves per prime field). Fresh subsets come from the prime fields,
    # whose decisions stay near a millisecond: one random F2^4 subset in
    # the core takes seconds.
    CORE = (12, 3, 10, 4)
    FRESH = (1, 0, 2, 0)

    def _items(self, rng, counts, subset_fields=SUBSET):
        subsets, rationals, over_q, curves = counts
        items = []
        for spec in subset_fields:
            elems = enumerate_elements(self.fields[spec])
            for _ in range(subsets):
                chosen, target = gen.random_subset(rng, len(elems))
                items.append(("subset", spec, Neighbourhood(
                    self.fields[spec], tuple(elems[i] for i in chosen), chosen.index(target))))
        for spec in self.PRIME:
            p = self.fields[spec].p
            items += [("rational", spec, gen.random_rational(rng, p)) for _ in range(rationals)]
            items += [("curve", spec, gen.random_curve(rng, p)) for _ in range(curves)]
        items += [("certify", "Q", gen.random_rational(rng)) for _ in range(over_q)]
        return items

    def core(self, rng):
        return self._items(rng, self.CORE) + [("fixed", spec, None) for spec in self.FIXED]

    def fresh(self, rng):
        return self._items(rng, self.FRESH, ("F13", "F17"))

    def run(self, item, tr):
        kind, spec, x = item
        K = self.fields[spec]
        if kind == "subset":
            with tr.span("neighbourhood.decide"):
                d = is_neighbourhood(x)
            tr.note("neighbourhood.decide.yes_ratio", d.yes)
            return d
        if kind == "fixed":
            with tr.span("neighbourhood.fixed_subfield"):
                return fixed_subfield(K)
        if kind in ("rational", "certify"):
            with tr.span("neighbourhood.rational"):
                A = nbhd_rational(x, K)
            tr.note("neighbourhood.rational.size", len(A.elements))
            if kind == "certify":
                with tr.span("neighbourhood.certify"):
                    ok = certify_by_propagation(A)
                tr.note("neighbourhood.certify.certified_ratio", ok)
                return A, ok
            with tr.span("neighbourhood.decide"):
                d = is_neighbourhood(A)
            tr.note("neighbourhood.decide.yes_ratio", d.yes)
            with tr.span("neighbourhood.maps"):
                maps = enumerate_arithmetic_maps(A)
            tr.note("neighbourhood.maps.count", len(maps))
            return A, d, maps
        with tr.span("curve_lab.build"):
            data = CurveData.build(x, K)
        with tr.span("curve_lab.closure"):
            recipe = build_closure(data)
        tr.note("curve_lab.closure.size", len(recipe.elements))
        with tr.span("curve_lab.verify"):
            report = verify_closure(data, recipe)
        return data, recipe, report

    def check(self, item, out):
        kind, spec, x = item
        if kind == "certify":
            A, ok = out
            return None if ok and A.r.value == x else "neighbourhood"
        F = self.ref_field(spec)
        if kind == "subset":
            elems = [F.index(a) for a in x.elements]
            r = elems[x.target_index]
            if out.yes:
                yes = self.reference(("pins", spec, tuple(elems), r), lambda: refs.pins(F, elems, r))
                return None if yes else "neighbourhood"
            w = out.witness
            values = [F.index(v) for v in w.values]
            good = (w.domain == x.elements and refs.is_arithmetic(F, elems, values)
                    and values[x.target_index] != r)
            return None if good else "neighbourhood"
        if kind == "fixed":
            return None if {F.index(a) for a in out} == set(range(F.p)) else "neighbourhood"
        if kind == "rational":
            A, d, maps = out
            elems = [F.index(a) for a in A.elements]
            want = self.reference(("maps", spec, tuple(elems)), lambda: set(refs.naive_maps(F, elems)))
            got = {tuple(F.index(v) for v in m.values) for m in maps}
            r = elems[A.target_index]
            good = (r == F.rational(x) and d.yes and got == want
                    and all(m[A.target_index] == r for m in want))
            return None if good else "neighbourhood"
        data, recipe, report = out
        p = F.p
        abscissas = [F.index(u) for u in data.abscissas]
        claims = [report["identity_on_w_image"], report["abscissas_into_abscissas"],
                  report["injective_on_abscissas"]]
        claims += [row["in_closure"] and row["is_neighbourhood"] for row in report["per_k"]]
        good = (abscissas == refs.curve_abscissas(x, p)
                and [F.index(t) for t in recipe.targets] == refs.elementary_symmetric(abscissas, p)
                and all(claims))
        return None if good else "curve_lab"

    def chars(self, item, out):
        kind = item[0]
        if kind == "subset":
            return len(json.dumps(out.witness.as_pairs() if out.witness else True))
        if kind == "fixed":
            return len(json.dumps(sorted(element_str(a) for a in out)))
        if kind in ("rational", "certify"):
            return len(json.dumps([element_str(a) for a in out[0].elements]))
        return len(json.dumps(out[1].to_json())) + len(json.dumps(out[2]))

    def probe_terms(self, items):
        return [(x, spec) for kind, spec, x in items if kind == "curve"]

    def probe_neighbourhoods(self, items):
        return [x for kind, _, x in items if kind == "subset"]

    def probe_rationals(self, items):
        return [x for kind, _, x in items if kind == "certify"]


# -- compile-roundtrip ----------------------------------------------------------------

# Every rational class with |A| <= 4 and <= 6 kept facts among c/d,
# |c|, d <= 12: each entry lists the rationals whose nbhd_rational is the
# same set, and the run seed picks one of them.
CASES = {
    "F5": [["0"], ["-1"], ["1"], ["1/2", "1/7", "1/12"], ["2"], ["1/3"], ["3"], ["1/4"],
           ["4"], ["1/6", "6"], ["7", "7/6", "12"], ["2/7", "7/2", "7/12", "12/7"], ["6/7"]],
    "F7": [["0"], ["-1"], ["1"], ["-2"], ["2"], ["3"]],
    "F11": [["0"], ["-1"], ["1"], ["-2"], ["1/2"], ["2"], ["3"], ["4"], ["5"]],
    "F13": [["0"], ["-1"], ["1"], ["-2"], ["1/2"], ["2"], ["1/3"], ["3"], ["1/4"], ["4"],
            ["5"], ["6"], ["8"]],
    "Q": [["0"], ["-1"], ["1"], ["-2"], ["1/2"], ["2"], ["1/3"], ["3"], ["1/4"], ["4"],
          ["5"], ["6"], ["8"]],
}
# items that took 0.8 s or more each at the commit that added this
# benchmark (15 s for the F11 5 single-eq); with them a pass would take
# over 10 s, too long to time every item several times in one run
SKIP = {
    ("single", "F5", "4"), ("single", "F11", "5"), ("single", "F13", "1/3"),
    ("single", "F13", "1/4"), ("single", "F13", "8"), ("single", "Q", "8"),
    ("roundtrip", "F13", "-2"), ("roundtrip", "F13", "1/3"), ("roundtrip", "F13", "1/4"),
    ("roundtrip", "F13", "5"), ("roundtrip", "F13", "6"), ("roundtrip", "F13", "8"),
}


def _schema_params():
    y = Term.variable("y")
    U = y**2 - 2
    return {
        "robinson": SchemaParams(U=U, V=y),
        "theorem2": SchemaParams(phi=parse("x = x1^2"), U=U, V=y),
        "theorem7_sentence": SchemaParams(i=-2),
        "theorem7_def": SchemaParams(i=-2),
    }


def _witness(A, free: str) -> dict:
    # the compiler's naming: the target is `free`, the rest x2, x3, ... in order
    names, counter = {}, 2
    for i, a in enumerate(A.elements):
        if i == A.target_index:
            names[free] = a.value
        else:
            names[f"x{counter}"] = a.value
            counter += 1
    return names


def _equalities(f) -> list:
    """The equations of a formula built from Exists, Not, And and Or."""
    if isinstance(f, Equal):
        return [f]
    if hasattr(f, "parts"):
        return [eq for part in f.parts for eq in _equalities(part)]
    return _equalities(f.body)


def _vanishes_at(f, values: dict) -> bool:
    """Every equation of an existential conjunction is zero at `values`
    (exact rationals)."""
    for eq in _equalities(f):
        total = Fraction(0)
        for side, sign in ((eq.lhs, 1), (eq.rhs, -1)):
            for mono, c in side.coeffs:
                v = Fraction(c) * sign
                for name, e in mono:
                    if name not in values:
                        return False
                    v *= values[name] ** e
                total += v
        if total:
            return False
    return True


class CompileRoundtrip(Workload):
    """neighbourhood -> formula -> text -> formula -> neighbourhood, the
    single-equation fold, and the schema catalogue."""

    name = "compile-roundtrip"
    specs = ("F5", "F7", "F11", "F13", "Q")

    def __init__(self):
        super().__init__()
        self.params = _schema_params()
        with open(EXPECTED / "schemas.json", encoding="utf-8") as handle:
            self.expected = json.load(handle)

    def fresh(self, rng):
        items = []
        for spec, classes in CASES.items():
            for alternatives in classes:
                q = Fraction(rng.choice(alternatives))
                items += [(kind, spec, q) for kind in ("roundtrip", "single")
                          if (kind, spec, alternatives[0]) not in SKIP]
        return items + [("schema", None, name) for name in SCHEMA_NAMES]

    def run(self, item, tr):
        kind, spec, x = item
        if kind == "schema":
            with tr.span("schemas.emit"):
                f = emit(x, self.params.get(x))
            with tr.span("formulas.print"):
                return print_formula(f)
        K = self.fields[spec]
        with tr.span("neighbourhood.rational"):
            A = nbhd_rational(x, K)
        tr.note("neighbourhood.rational.size", len(A.elements))
        if kind == "single":
            with tr.span("compiler.single_eq"):
                f = compile_singleton(A)
            with tr.span("formulas.print"):
                text = print_formula(f)
            tr.note("compiler.single_eq.chars", len(text))
            return A, f, text
        with tr.span("compiler.to_formula"):
            f = neighbourhood_to_formula(A)
        with tr.span("formulas.print"):
            text = print_formula(f)
        tr.note("compiler.to_formula.chars", len(text))
        with tr.span("formulas.parse"):
            g = parse(text)
        tr.note("formulas.parse.chars", len(text))
        if not K.is_finite:
            with tr.span("neighbourhood.certify"):
                ok = certify_by_propagation(A)
            tr.note("neighbourhood.certify.certified_ratio", ok)
            return A, f, text, g, ok
        with tr.span("compiler.from_formula"):
            B = formula_to_neighbourhood(g, K)
        with tr.span("neighbourhood.decide"):
            d = is_neighbourhood(B)
        tr.note("neighbourhood.decide.yes_ratio", d.yes)
        return A, f, text, g, B, d

    def check(self, item, out):
        kind, spec, x = item
        if kind == "schema":
            return None if out == self.expected[x] else "schemas"
        A, f, text = out[:3]
        free = "x" if kind == "single" else "x1"
        if kind == "roundtrip" and out[3] != f:
            return "formulas"
        if spec == "Q":
            good = A.r.value == x and _vanishes_at(f, _witness(A, free))
            if kind == "roundtrip":
                good = good and out[4]
            return None if good else "compiler"
        F = self.ref_field(spec)
        q = F.rational(x)
        got = self.reference((spec, text), lambda: refs.prime_definable_set(f, F.p, free))
        if got != {q} or F.index(A.r) != q:
            return "compiler"
        if kind == "roundtrip":
            B, d = out[4], out[5]
            elems = [F.index(b) for b in B.elements]
            r = elems[B.target_index]
            pinned = self.reference(("pins", spec, tuple(elems), r), lambda: refs.pins(F, elems, r))
            if r != q or not pinned:
                return "compiler"
            if not d.yes:
                return "neighbourhood"
        return None

    def chars(self, item, out):
        return len(out) if item[0] == "schema" else len(out[2])

    def probe_terms(self, items):
        return [(eq.lhs, spec) for kind, spec, x in items if kind == "roundtrip" and spec != "Q"
                for eq in _equalities(neighbourhood_to_formula(nbhd_rational(x, self.fields[spec])))]

    def probe_neighbourhoods(self, items):
        return [nbhd_rational(x, self.fields[spec]) for kind, spec, x in items if kind == "roundtrip"]

    def probe_rationals(self, items):
        return [x for kind, spec, x in items if spec == "Q"]


# -- cli-calls ----------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("DEFIFIX_CAP", None)  # the expected outputs use the default caps
    return env


class CliCalls(Workload):
    """The README commands, one subprocess at a time; exit code and stdout
    must match the stored output byte for byte."""

    name = "cli-calls"
    # each command 7 times a pass, for at least 100 items a run; equal
    # items pool their timings, so a command's latency is its median run
    COPIES = 7

    def __init__(self):
        super().__init__()
        with open(EXPECTED / "cli.json", encoding="utf-8") as handle:
            self.calls = json.load(handle)
        self.env = cli_env()

    def core(self, rng):
        return list(range(len(self.calls))) * self.COPIES

    def run(self, item, tr):
        argv = self.calls[item]["argv"]
        with tr.span("cli.call"):
            done = subprocess.run(
                [sys.executable, "-m", "defifix.cli", *argv],
                capture_output=True, env=self.env, cwd=ROOT, timeout=120,
            )
        return done.returncode, done.stdout.decode("utf-8")

    def check(self, item, out):
        want = self.calls[item]
        return None if out == (want["code"], want["stdout"]) else "cli"

    def chars(self, item, out):
        return len(out[1])

    def probe_terms(self, items):
        return [(parse_term(argv[argv.index("--poly") + 1]), argv[argv.index("--field") + 1])
                for argv in (call["argv"] for call in self.calls) if "--poly" in argv]


WORKLOADS = {w.name: w for w in (FormulaSolve, NbhdDecide, CompileRoundtrip, CliCalls)}
