"""Tests of the benchmark's own code: seeded inputs, reference checks,
spans and the frozen CLI expectations. Run with
`python3 -m pytest bench/tests` from the repository root."""

import json
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import refs
from defifix.fields import enumerate_elements, make_field
from defifix.formulas import parse
from defifix.neighbourhood import ArithmeticMap, Decision, is_neighbourhood, neighbourhood
from spans import Tracer
from workloads import ROOT, WORKLOADS, FormulaSolve, NbhdDecide, cli_env


@pytest.fixture(scope="module")
def loads():
    return {name: cls() for name, cls in WORKLOADS.items()}


def first_pass(wl, seed):
    return wl.items(seed)


# -- inputs -------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(loads, name):
    wl = loads[name]
    assert wl.items(7) == wl.items(7)


@pytest.mark.parametrize("cls", [FormulaSolve, NbhdDecide])
def test_other_seed_other_inputs(cls):
    wl = cls()
    assert set(map(repr, first_pass(wl, 1))) != set(map(repr, first_pass(wl, 2)))


def test_formulas_meet_the_stated_shape(loads):
    from defifix.formulas import Exists, Not, free_variables
    wl = loads["formula-solve"]
    for spec, f in first_pass(wl, 3):
        assert free_variables(f) == {"x"}
        bound = 0
        while isinstance(f, Exists):
            bound, f = bound + 1, f.body
        assert bound == wl.BOUND[spec]
        negations, stack = 0, [f]
        while stack:
            node = stack.pop()
            negations += isinstance(node, Not)
            if hasattr(node, "lhs"):
                assert node.lhs.degree() <= 3 and node.rhs.degree() <= 3
            stack += getattr(node, "parts", ()) + ((node.body,) if hasattr(node, "body") else ())
        assert negations <= 2


# -- the references themselves ------------------------------------------------------------


@pytest.mark.parametrize("spec", ["F5", "F2^2", "F3^2", "F2^4"])
def test_ref_field_matches_enumeration_and_arithmetic(spec):
    K = make_field(spec)
    F = refs.RefField.of(K)
    elems = enumerate_elements(K)
    assert [F.index(a) for a in elems] == list(range(K.order))
    for a in elems[: min(len(elems), 9)]:
        for b in elems:
            assert F.add[F.index(a)][F.index(b)] == F.index(a + b)
            assert F.mul[F.index(a)][F.index(b)] == F.index(a * b)


def test_prime_definable_set_both_evaluators():
    squares = parse("exists y. x = y*y")
    assert refs.prime_definable_set(squares, 7, "x") == {0, 1, 2, 4}
    # more monomials than the field has elements takes the dense path
    dense = parse("exists y. y + y^2 + y^3 + y^4 + y^5 + y^6 + x*y + x^2*y + x^3*y = 0")
    want = {a for a in range(7)
            if any((sum(y**k for k in range(1, 7)) + (a + a * a + a**3) * y) % 7 == 0 for y in range(7))}
    assert refs.prime_definable_set(dense, 7, "x") == want


def test_naive_maps_on_a_prime_field_are_the_identity():
    F = refs.RefField.of(make_field("F5"))
    assert refs.naive_maps(F, list(range(5))) == [tuple(range(5))]


# -- every reference rejects a wrong answer ------------------------------------------------


def test_formula_solve_rejects_wrong_answers(loads):
    wl = loads["formula-solve"]
    item = first_pass(wl, 1)[0]
    spec, f = item
    text, g, nf, points = wl.run(item, Tracer())
    assert wl.check(item, (text, g, nf, points)) is None
    K = wl.fields[spec]
    extra = next(a for a in enumerate_elements(K) if a not in points)
    assert wl.check(item, (text, g, nf, points | {extra})) == "normalize"
    assert wl.check(item, (text, parse("exists y. x = y"), nf, points)) == "formulas"


def test_nbhd_decide_rejects_wrong_answers(loads):
    wl = loads["nbhd-decide"]
    items = first_pass(wl, 1)
    tr = Tracer()
    no = next(i for i in items if i[0] == "subset" and not is_neighbourhood(i[2]).yes)
    assert wl.check(no, Decision(True)) == "neighbourhood"
    A = no[2]
    identity = ArithmeticMap(A.elements, A.elements)  # arithmetic, but fixes r
    assert wl.check(no, Decision(False, identity)) == "neighbourhood"
    K = make_field("F13")
    yes = ("subset", "F13", neighbourhood(K, [1, 2, 4], 4))
    assert wl.check(yes, is_neighbourhood(yes[2])) is None
    assert wl.check(yes, Decision(False, ArithmeticMap(yes[2].elements, yes[2].elements))) == "neighbourhood"

    fixed = next(i for i in items if i[0] == "fixed")
    out = wl.run(fixed, tr)
    assert wl.check(fixed, out) is None
    assert wl.check(fixed, out - {next(iter(out))}) == "neighbourhood"

    rational = next(i for i in items if i[0] == "rational")
    A, d, maps = wl.run(rational, tr)
    assert wl.check(rational, (A, d, maps)) is None
    assert wl.check(rational, (A, Decision(False), maps)) == "neighbourhood"
    assert wl.check(rational, (A, d, maps + maps)) is None  # same set of maps
    assert wl.check(rational, (A, d, [])) == "neighbourhood"

    certify = next(i for i in items if i[0] == "certify")
    A, ok = wl.run(certify, tr)
    assert wl.check(certify, (A, ok)) is None
    assert wl.check(certify, (A, False)) == "neighbourhood"

    curve = next(i for i in items if i[0] == "curve")
    data, recipe, report = wl.run(curve, tr)
    assert wl.check(curve, (data, recipe, report)) is None
    assert wl.check(curve, (data, recipe, dict(report, injective_on_abscissas=False))) == "curve_lab"
    wrong = replace(recipe, targets=(recipe.targets[0] + 1,) + recipe.targets[1:])
    assert wl.check(curve, (data, wrong, report)) == "curve_lab"


def test_compile_roundtrip_rejects_wrong_answers(loads):
    wl = loads["compile-roundtrip"]
    tr = Tracer()
    for kind in ("roundtrip", "single"):
        item = (kind, "F7", Fraction(2))
        out = wl.run(item, tr)
        assert wl.check(item, out) is None
        other = wl.run((kind, "F7", Fraction(3)), tr)
        # a formula for 3 handed in as the answer for 2
        assert wl.check(item, (out[0],) + other[1:4] + out[4:]) == "compiler"
    for kind in ("roundtrip", "single"):
        item = (kind, "Q", Fraction(1, 2))
        out = wl.run(item, tr)
        assert wl.check(item, out) is None
        other = wl.run((kind, "Q", Fraction(3)), tr)
        assert wl.check(item, (out[0],) + other[1:4] + out[4:]) == "compiler"
    item = ("schema", None, "lt6")
    assert wl.check(item, wl.run(item, tr)) is None
    assert wl.check(item, "exists y. x = y") == "schemas"


def test_cli_calls_rejects_wrong_answers(loads):
    wl = loads["cli-calls"]
    call = wl.calls[0]
    assert wl.check(0, (call["code"], call["stdout"])) is None
    assert wl.check(0, (call["code"], call["stdout"] + " ")) == "cli"
    assert wl.check(0, (1 - call["code"], call["stdout"])) == "cli"


# -- frozen CLI output ----------------------------------------------------------------------


def test_fixed_field_matches_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    shown = re.search(r"\$ defifix fixed-field --field F2\^2\n(.*)\n", readme).group(1)
    expected = json.loads((Path(__file__).parent.parent / "expected" / "cli.json").read_text())
    stored = next(c for c in expected if c["argv"] == ["fixed-field", "--field", "F2^2"])
    assert stored["stdout"] == shown + "\n"
    live = subprocess.run([sys.executable, "-m", "defifix.cli", "fixed-field", "--field", "F2^2"],
                          capture_output=True, text=True, env=cli_env(), cwd=ROOT)
    assert (live.returncode, live.stdout) == (0, shown + "\n")


# -- spans -------------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.item = 0
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.spans[0][1:3] = [0.0, 10.0]
    tr.spans[1][1:3] = [2.0, 5.0]
    assert tr.self_times() == {"outer": (1, 7.0), "inner": (1, 3.0)}
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 0  # parent and item id


def test_span_records_the_layer_an_exception_left():
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.span("item"):
            with tr.span("normalize.solve"):
                1 / 0
    assert tr.raised_in == "normalize.solve"


# -- timing -------------------------------------------------------------------------------------


def test_item_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    import run
    from spans import NullTracer

    now = [0.0]

    class Fake:
        def run(self, item, tr):
            now[0] += 0.1  # every item takes 0.1 CPU seconds
            return item

        def check(self, item, out):
            return None

        def chars(self, item, out):
            return 1

    calibrations = iter([run.REFERENCE_S, 3 * run.REFERENCE_S, 5 * run.REFERENCE_S])
    monkeypatch.setattr(run, "cpu_seconds", lambda: now[0])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    m = run.Measured(["a", "b", "c"])
    run.run_pass(Fake(), ["a", "b", "c"], m, NullTracer())
    # a and b run before the second calibration, c between the second and the third
    assert {k: v for k, [v] in m.samples.items()} == pytest.approx({"a": 0.05, "b": 0.05, "c": 0.025})
    assert len(m.calibrations) == 3
    assert m.passes == 1 and m.chars == 3


# -- the contract ----------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((ROOT / "bench" / "layers.json").read_text(encoding="utf-8"))
    assert bench["per_layer"] == [{k: d[k] for k in ("name", "unit", "better")} for d in layers]
    assert all(d["moves"] for d in layers)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_run_refuses_without_the_program(tmp_path):
    import shutil

    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-calls", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert "{" not in done.stdout
