"""A seeded parity corpus: one digest per family of library outcomes.

Each family runs a fixed, seeded list of calls and folds every outcome
into one sha256. An outcome is the call's result in plain values, or the
error it raised (class name and message), so a change that moves a
result, a witness, an order or an error message moves that family's
digest. `tests/test_parity.py` pins the digests; a change meant to keep
every output byte-identical keeps them all.

Families:

- decide: `is_neighbourhood` verdicts and witnesses;
- maps: `enumerate_arithmetic_maps` under small caps;
- certify: `certify_by_propagation`, over finite fields and Q;
- automorphisms: `automorphisms` and `fixed_subfield`;
- normalize: `normalize` text and `normalized_witnesses`;
- compile: `formula_to_neighbourhood`;
- rational: `nbhd_rational` over F_p and Q;
- curve: curve-lab data, closure and report, in both modes;
- text: tokens or error of "x" + c + "1" for every BMP code point c
  outside the surrogates, tokens and parse of seeded fuzz strings,
  `parse(print_formula(f))`, and readings of element and field specs;
- cli: exit code and stdout of `cli.main` on a seeded call list, the
  calls of `bench/expected/cli.json` among them, in both formats.

Run `PYTHONPATH=src python tests/_parity.py` to print every digest and
the time each family takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

from _gen import random_existential_formula

from defifix import cli, curve_lab, formulas
from defifix.compiler import formula_to_neighbourhood, neighbourhood_to_formula
from defifix.fields import element_str, enumerate_elements, make_field, parse_element
from defifix.formulas import parse, parse_term, print_formula
from defifix.neighbourhood import (
    Neighbourhood,
    automorphisms,
    certify_by_propagation,
    enumerate_arithmetic_maps,
    fixed_subfield,
    is_neighbourhood,
    nbhd_rational,
)
from defifix.normalize import normalize, normalized_witnesses

CLI_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected" / "cli.json"

SMALL_FIELDS = ("F2", "F3", "F5", "F7", "F11", "F13", "F2^2", "F2^3", "F3^2", "F5^2")
SOLVE_FIELDS = ("F5", "F7", "F2^2", "F3^2")


def _outcome(call, *args):
    """call(*args), or the class and message of what it raised."""
    try:
        return call(*args)
    except Exception as e:  # every error is an outcome to pin
        return ("error", type(e).__name__, str(e))


def _strs(elements) -> list[str]:
    return [element_str(a) for a in elements]


def _random_sets(seed: int, count: int, fields=SMALL_FIELDS, largest: int = 6):
    """Seeded neighbourhoods: distinct elements of a small field, with a
    random target among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        K = make_field(rng.choice(fields))
        pool = enumerate_elements(K)
        elements = rng.sample(pool, rng.randint(1, min(largest, len(pool))))
        out.append(Neighbourhood(K, tuple(elements), rng.randrange(len(elements))))
    return out


def _rational_sets(seed: int, count: int):
    rng = random.Random(seed)
    Q = make_field("Q")
    out = []
    for _ in range(count):
        values = {Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))}
        elements = [Q.element(v) for v in sorted(values)]
        out.append(Neighbourhood(Q, tuple(elements), rng.randrange(len(elements))))
    return out


def _head(A: Neighbourhood):
    return (A.field.spec(), _strs(A.elements), A.target_index)


# -- library families -------------------------------------------------------------


def family_decide():
    for A in _random_sets(1, 600):
        def decide(A=A):
            d = is_neighbourhood(A)
            return d.yes, d.witness.as_pairs() if d.witness else None
        yield _head(A), _outcome(decide)
    for A in _rational_sets(2, 5):
        yield _head(A), _outcome(is_neighbourhood, A)


def family_maps():
    rng = random.Random(3)
    for A in _random_sets(4, 150, largest=5):
        cap = rng.choice((1, 2, 5, 1000))

        def maps(A=A, cap=cap):
            return [(_strs(m.values), m.is_identity) for m in enumerate_arithmetic_maps(A, cap)]
        yield _head(A), cap, _outcome(maps)


def family_certify():
    for A in _random_sets(5, 300, largest=8):
        yield _head(A), _outcome(certify_by_propagation, A)
    for A in _rational_sets(6, 150):
        yield _head(A), _outcome(certify_by_propagation, A)


def family_automorphisms():
    specs = ("F2", "F3", "F7", "F13", "F2^2", "F2^3", "F2^4", "F3^2", "F3^3",
             "F5^2", "F7^2", "F3^2:2,2,1", "F2^3:1,0,1,1")
    for spec in specs:
        K = make_field(spec)
        yield spec, _outcome(lambda: list(automorphisms(K)))
        for cap in (1, 2, 1000):
            yield spec, cap, _outcome(lambda: sorted(_strs(fixed_subfield(K, cap))))
    yield "Q", _outcome(fixed_subfield, make_field("Q"))


def _formulas(seed: int, count: int):
    rng = random.Random(seed)
    return [random_existential_formula(rng) for _ in range(count)]


def family_normalize():
    for i, f in enumerate(_formulas(7, 60)):
        nf = _outcome(normalize, f)
        if isinstance(nf, tuple):
            yield print_formula(f), nf
            continue
        K = make_field(SOLVE_FIELDS[i % len(SOLVE_FIELDS)])
        witnesses = _outcome(lambda: sorted(normalized_witnesses(nf, K).items()))
        yield print_formula(f), nf.to_text(), K.spec(), witnesses


def family_compile():
    texts = []
    for A in _random_sets(8, 200, largest=5):
        f = _outcome(neighbourhood_to_formula, A)
        if isinstance(f, tuple):
            yield _head(A), f
        else:
            texts.append(print_formula(f))
    texts += [print_formula(f) for f in _formulas(9, 40)]
    for i, text in enumerate(texts):
        K = make_field(SOLVE_FIELDS[i % len(SOLVE_FIELDS)])
        yield text, K.spec(), _outcome(lambda: formula_to_neighbourhood(parse(text), K).to_json())


def family_rational():
    rng = random.Random(10)
    specs = ("Q", "F2", "F3", "F5", "F7", "F11", "F101", "F2^2", "F3^2")
    for _ in range(200):
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        K = make_field(rng.choice(specs))
        yield str(q), K.spec(), _outcome(lambda: nbhd_rational(q, K).to_json())
    for q in ("5/3", "-7/4", "1.5", "1/0", "٣", "1_0"):
        yield q, _outcome(lambda: nbhd_rational(q, make_field("Q")).to_json())


def family_curve():
    polys = ("y^2 - x^3 - x", "y - x^2", "y - x", "x^3 - 2*x", "x^2 + y^2",
             "y^2 - x^3 - 1", "x*y - 1", "y^2 + 1", "x")
    for spec in ("F3", "F5", "F7", "F11", "F13"):
        K = make_field(spec)
        for poly in polys:
            g = parse_term(poly)
            data = _outcome(curve_lab.CurveData.build, g, K)
            if isinstance(data, tuple):
                yield spec, poly, data
                continue
            for mode in ("prefix", "paper"):
                def lab(data=data, mode=mode):
                    recipe = curve_lab.build_closure(data, mode=mode)
                    return recipe.to_json(), curve_lab.verify_closure(data, recipe)
                yield spec, poly, mode, data.to_json(), _outcome(lab)


# -- text ------------------------------------------------------------------------


def _tokens(text: str):
    return [(kind, text, pos) for kind, text, pos in formulas._tokenize(text)]


_FUZZ_ALPHABET = ("x", "y", "z", "_a1", "exists", "forall", "P", "0", "1", "12", " ", "\n",
                  "\t", "(", ")", "+", "-", "*", "^", "=", "!=", ",", ".", "|", "&", "~",
                  "/", "->", "<->", "<", ">", "!", "[", "é", "٣", "²", " ")


def _fuzz(seed: int, count: int):
    rng = random.Random(seed)
    return ["".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(1, 14)))
            for _ in range(count)]


def _element_texts(rng: random.Random, K) -> list[str]:
    """Well-formed element spellings of K, with random spacing."""
    def sp():
        return rng.choice(("", "", " ", "  "))

    def num():
        return str(rng.randint(-30, 30))

    texts = [sp() + num() + sp(), f"{num()}/{rng.randint(1, 9)}"]
    if K.is_finite:
        vec = [sp() + num() + sp() for _ in range(rng.randint(1, K.degree))]
        texts += ["[" + ",".join(vec) + "]", sp() + "[" + ",".join(vec) + "]" + sp()]
    return texts


def _spec_texts(rng: random.Random) -> list[str]:
    p, k = rng.choice(((2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 3), (2, 4)))
    coeffs = [str(rng.randint(-p, 2 * p)) for _ in range(k)] + [rng.choice(("1", str(p + 1), "2"))]
    spaced = [rng.choice(("", " ")) + c + rng.choice(("", " ")) for c in coeffs]
    return [f"F{p}^{k}:" + ",".join(coeffs), f"F{p}^{k}:[" + ",".join(spaced) + "]",
            f"F{p}^{k}: " + ",".join(spaced)]


def family_text():
    for c in range(0x10000):
        if not 0xD800 <= c < 0xE000:
            yield c, _outcome(_tokens, f"x{chr(c)}1")
    for text in _fuzz(11, 3000):
        yield text, _outcome(_tokens, text), _outcome(lambda: print_formula(parse(text)))
    for f in _formulas(12, 100):
        text = print_formula(f)
        yield text, _outcome(lambda: parse(text) == f)
    rng = random.Random(13)
    fields = [make_field(s) for s in ("Q", "F7", "F2^2", "F3^2", "F5^3", "F2^4")]
    for _ in range(400):
        K = rng.choice(fields)
        for text in _element_texts(rng, K):
            yield K.spec(), text, _outcome(lambda: element_str(parse_element(text, K)))
    for K in fields:
        for text in ("[]", "[ ]", "[٣]", "[1,]", "+5", "1_0", "3/0", "1/7", "", "x"):
            yield K.spec(), text, _outcome(lambda: element_str(parse_element(text, K)))
    specs = ["Q", " F7 ", "F2", "F4", "F1", "F7^0", "F7^5", "F101^2", "F2305843009213693951",
             "F7^2:[1,0,1]", "F7^2: 1 , 0 , 1 ", "F7^2:[1,1,1]", "F7^2:1,0", "F7^2:[ ]",
             "F7^2:[]", "F7^2:a,b,c", "G7", "F7^2:1,0,2"]
    for _ in range(300):
        specs += _spec_texts(rng)
    for spec in specs:
        yield spec, _outcome(lambda: (lambda K: (K.spec(), K.modulus))(make_field(spec)))


# -- cli -------------------------------------------------------------------------


def _cli_calls() -> list[list[str]]:
    with open(CLI_EXPECTED, encoding="utf-8") as handle:
        calls = [call["argv"] for call in json.load(handle)]
    rng = random.Random(14)
    for _ in range(40):
        A = _random_sets(rng.randrange(1 << 30), 1, fields=("F5", "F7", "F2^2", "F3^2"),
                         largest=4)[0]
        field, elements = A.field.spec(), ",".join(_strs(A.elements))
        target = element_str(A.r)
        kind = rng.choice(("check", "certify", "maps", "to-formula", "single-eq"))
        if kind == "maps":
            calls.append(["nbhd", "maps", "--field", field, "--elements", elements, "--cap", "50"])
        elif kind in ("check", "certify"):
            calls.append(["nbhd", kind, "--field", field, "--elements", elements, "--target", target])
        else:
            calls.append(["compile", kind, "--field", field, "--elements", elements,
                          "--target", target])
    for f in _formulas(15, 10):
        text = print_formula(f)
        calls.append(["parse", "--formula", text])
        calls.append(["normalize", "--formula", text])
        calls.append(["eval", "--formula", text, "--field", "F5", "--assign",
                      f"x={rng.randrange(5)}"])
        calls.append(["compile", "from-formula", "--field", "F3", "--formula", text])
    calls += [
        ["parse", "--formula", "x = = 1"],
        ["parse", "--formula", "x ? 1"],
        ["eval", "--formula", "P(x)", "--field", "F5", "--assign", "x=2", "--pred", "P=1;2"],
        ["eval", "--formula", "x = 1", "--field", "F4", "--assign", "x=1"],
        ["eval", "--formula", "x = 1", "--field", "F7^2", "--assign", "x=[1, 2]"],
        ["nbhd", "check", "--field", "F7", "--elements", "1,2", "--target", "3"],
        ["nbhd", "check", "--field", "Q", "--elements", "1,2", "--target", "2"],
        ["nbhd", "check", "--field", "F7", "--elements", "", "--target", "2"],
        ["nbhd", "check", "--field", "F7", "--elements", "1,1,2,2", "--target", "2"],
        ["nbhd", "certify", "--field", "F7^2: 1 , 0 , 1 ", "--elements", "[1],[0,1]",
         "--target", "[0,1]"],
        ["nbhd", "maps", "--field", "F3^2", "--elements", "[1],[0,1],[1,1]", "--cap", "1"],
        ["nbhd", "rational", "--q", "1/0"],
        ["nbhd", "rational", "--q", "3/7", "--field", "F7"],
        ["fixed-field", "--field", "F3^2"],
        ["fixed-field", "--field", "Q"],
        ["compile", "single-eq", "--field", "F5", "--elements", "1,2,3", "--target", "3",
         "--prefer-linear"],
        ["curve-lab", "--field", "F7", "--poly", "y - x^2", "--mode", "paper"],
        ["curve-lab", "--field", "F3", "--poly", "y^2 - x^3 - x"],
        ["schema", "emit", "--name", "theorem2"],
        ["schema", "emit", "--name", "succ", "--N", "x = 1"],
        ["normalize", "--formula", "x = y"],
        ["nbhd", "check", "--field", "F7", "--elements", "1,2", "--target", "2", "--cap", "0"],
    ]
    return calls


def family_cli():
    saved = os.environ.pop("DEFIFIX_CAP", None)
    try:
        for argv in _cli_calls():
            for fmt in ("json", "text"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([*argv, "--format", fmt])
                yield argv, fmt, code, out.getvalue()
    finally:
        if saved is not None:
            os.environ["DEFIFIX_CAP"] = saved


FAMILIES = {
    "decide": family_decide,
    "maps": family_maps,
    "certify": family_certify,
    "automorphisms": family_automorphisms,
    "normalize": family_normalize,
    "compile": family_compile,
    "rational": family_rational,
    "curve": family_curve,
    "text": family_text,
    "cli": family_cli,
}


def digest(family: str) -> str:
    """The sha256 of one family's outcomes, one repr per line."""
    h = hashlib.sha256()
    for outcome in FAMILIES[family]():
        h.update(repr(outcome).encode("utf-8", "backslashreplace") + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    for name in FAMILIES:
        start = time.process_time()
        value = digest(name)
        print(f"{name:14} {value}  {time.process_time() - start:.3f} s")
