import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defifix.errors import EvaluationError
from defifix.fields import enumerate_elements, int_field, make_field
from defifix.formulas import parse, print_formula
from defifix.terms import Term

x, y, z = Term.variable("x"), Term.variable("y"), Term.variable("z")


def test_constructors_and_flags():
    assert Term.zero().is_zero
    assert Term.constant(0) == Term.zero()
    assert Term.constant(5).is_constant
    assert Term.constant(5).constant_value() == 5
    assert not x.is_constant
    assert x.free_variables() == {"x"}


def test_ring_identities():
    rng = random.Random(403)
    pool = [x, y, z, Term.constant(2), Term.constant(-1), x * y, y**2]
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a - b == a + (-b)
        assert (a * b) * c == a * (b * c)
        assert a + Term.zero() == a
        assert a * Term.constant(1) == a
        assert a * Term.zero() == Term.zero()


def test_cancellation():
    assert (x + y) - (x + y) == Term.zero()
    assert (x + 1) * (x - 1) == x**2 - 1
    assert x * x == x**2


def test_print_order_descending_degree():
    assert str(1 + x + y**2) == "y^2 + x + 1"
    assert str(x**2 + x * y + y**2) == "x^2 + x*y + y^2"
    assert str(y**2 - 2) == "y^2 - 2"
    assert str(-x + 1) == "-x + 1"
    assert str(Term.zero()) == "0"
    assert str(2 * x) == "2*x"
    assert str(Fraction(1, 2) * x) == "1/2*x"
    assert str(-(x**2) - 3) == "-x^2 - 3"


def test_substitute():
    t = x**2 + y
    assert t.substitute({"x": y}) == y**2 + y
    assert t.substitute({"y": Term.zero()}) == x**2
    # simultaneous, not sequential
    assert (x + y).substitute({"x": y, "y": x}) == x + y


def test_evaluate_over_finite_field():
    K = make_field("F5")
    t = 1 + x + y**2
    val = t.evaluate({"x": K.element(1), "y": K.element(3)}, K)
    assert val == K.element(1 + 1 + 9)
    with pytest.raises(EvaluationError):
        t.evaluate({"x": K.element(1)}, K)


def test_evaluate_rational_coefficients():
    Q = make_field("Q")
    t = Fraction(1, 2) * x + 1
    assert t.evaluate({"x": Q.element(3)}, Q) == Q.element(Fraction(5, 2))
    K = make_field("F7")
    # 1/2 = 4 in F_7
    assert t.evaluate({"x": K.element(2)}, K) == K.element(4 * 2 + 1)
    K5 = make_field("F5")
    with pytest.raises(EvaluationError):
        (Fraction(1, 5) * x).evaluate({"x": K5.element(1)}, K5)


def test_evaluate_agrees_pointwise_with_operators():
    rng = random.Random(404)
    K = make_field("F7")
    elems = enumerate_elements(K)
    t = 3 * x**2 * y - y + 2
    for _ in range(30):
        a, b = rng.choice(elems), rng.choice(elems)
        direct = K.element(3) * a**2 * b - b + K.element(2)
        assert t.evaluate({"x": a, "y": b}, K) == direct


def test_clear_denominators():
    t = Fraction(1, 2) * x + Fraction(1, 3) * y
    cleared, mult = t.clear_denominators()
    assert mult == 6
    assert cleared == 3 * x + 2 * y
    t2 = x + 1
    assert t2.clear_denominators() == (t2, 1)


def test_degree_and_pow():
    assert (x**3 + y).degree() == 3
    assert Term.zero().degree() == 0
    assert x**0 == Term.constant(1)
    with pytest.raises(ValueError):
        x ** (-1)


def test_pow_matches_repeated_multiplication():
    for t in (x, x + 1, 2 * x * y - y + 3, Fraction(1, 2) * x - z, Term.zero()):
        product = Term.constant(1)
        for n in range(8):
            assert t**n == product, (t, n)
            product = product * t


def test_pow_huge_exponent_of_a_variable():
    # square-and-multiply: about log2(n) products, not n
    f = parse("x^100000000 = 1")
    assert f.lhs == Term((((("x", 100000000),), 1),))
    assert (x * y) ** 10**9 == Term((((("x", 10**9), ("y", 10**9)), 1),))


def test_lone_monomial_products_and_powers():
    # a lone monomial scales the other side in order, and its power is one
    # pair; integral products of Fractions come out as ints
    half = Fraction(-1, 2) * x
    assert _typed((half**3).coeffs) == [((("x", 3),), Fraction(-1, 8), Fraction)]
    assert _typed(((2 * y) * (x * y + half)).coeffs) == [
        ((("x", 1), ("y", 2)), 2, int),
        ((("x", 1), ("y", 1)), -1, int),
    ]
    assert _typed(((x + 1) * Fraction(3, 2) * Fraction(2, 3)).coeffs) == [
        ((("x", 1),), 1, int),
        ((), 1, int),
    ]


def test_packing_is_bounded_by_every_monomial():
    # a hand-built Term out of order: its first monomial has degree 1, so a
    # bound read from that monomial alone would overflow the packed fields
    t = Term((((("x", 1),), 1), ((("x", 7),), 1)))
    assert t**2 == x**14 + 2 * x**8 + x**2
    assert t * (x + y) == x**8 + x**7 * y + x**2 + x * y
    assert (x + y).substitute({"y": t}) == x**7 + 2 * x


def test_expanded_text_is_pinned():
    text = print_formula(parse("(x+y+z+1)^12 = 0"))
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
        7252,
        "3239039533c54ea83b9cc798f4c60823524095bacd3bad5951b93206f304856e",
    )


def test_expanding_a_thirtieth_power_is_quick():
    # 5,456 monomials, each product one integer addition on packed exponents
    start = time.process_time()
    f = parse("(x+y+z+1)^30 = 0")
    assert time.process_time() - start < 1.0
    assert len(f.lhs.coeffs) == 5456


def _random_term(rng):
    t = Term.zero()
    for _ in range(rng.randint(1, 4)):
        c = rng.choice([1, -1, 2, 3, -7, 10**12 + 1, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)])
        part = Term.constant(c)
        for v in rng.sample(["x", "y", "z"], rng.randint(0, 3)):
            part = part * Term.variable(v) ** rng.choice([1, 2, 3, 7, 40, 10**9 + 3])
        t = t + part
    return t


def test_compile_agrees_with_evaluate():
    rng = random.Random(7070)
    for spec in ("F2", "F3", "F5", "F7", "F2^2", "F3^2", "F2^3"):
        K = make_field(spec)
        T = int_field(K)
        elems = enumerate_elements(K)
        for _ in range(80):
            t = _random_term(rng)
            at = t.compile(T)
            for _ in range(8):
                env = {v: rng.randrange(K.order) for v in rng.sample(["x", "y", "z"], rng.randint(2, 3))}
                try:
                    want = t.evaluate({v: elems[i] for v, i in env.items()}, K)
                except EvaluationError as exc:
                    with pytest.raises(EvaluationError) as got:
                        at(env)
                    assert str(got.value) == str(exc)
                else:
                    assert elems[at(env)] == want


def test_compile_errors_match_evaluate():
    K = make_field("F5")
    T = int_field(K)
    for t, env in [
        (Fraction(1, 5) * x + y, {"x": 1, "y": 2}),
        (x + Fraction(1, 10) * y, {}),
        (x * y + 1, {"x": 3}),
    ]:
        with pytest.raises(EvaluationError) as want:
            t.evaluate({v: T.element(i) for v, i in env.items()}, K)
        with pytest.raises(EvaluationError) as got:
            t.compile(T)(env)
        assert str(got.value) == str(want.value)


# -- differential check against a naive dict polynomial ------------------------
#
# The reference keeps {monomial: coefficient} with monomials as sorted
# (variable, exponent) tuples, expands everything one product at a time,
# and sorts by the documented graded-lex key only when it is read back.

# every LOW name precedes every HIGH one; x10 precedes x2 as a string
LOW, HIGH = ("a", "b"), ("x", "x10", "x2", "y")
_SMALL = st.integers(1, 3)
# 2^k - 1 and 2^k fill or overflow a packed field of k bits
_EXPONENT = st.one_of(_SMALL, st.sampled_from([7, 8, 15, 16, 31, 32, 10**9]))


def _ref_mono(exps: dict) -> tuple:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _ref_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = _ref_mono(exps)
            out[m] = out.get(m, 0) + Fraction(c1) * c2
    return out


def _ref_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def _ref_pow(p: dict, n: int) -> dict:
    out = {(): 1}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_substitute(p: dict, mapping: dict) -> dict:
    out: dict = {}
    for m, c in p.items():
        part = {(): c}
        for v, e in m:
            part = _ref_mul(part, _ref_pow(mapping.get(v, {((v, 1),): 1}), e))
        out = _ref_add(out, part)
    return out


def _graded_lex(m: tuple):
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


def _ref_coeffs(p: dict) -> tuple:
    """Nonzero pairs, integral coefficients as int, in printing order."""
    pairs = []
    for m, c in p.items():
        c = Fraction(c)
        if c:
            pairs.append((m, c.numerator if c.denominator == 1 else c))
    return tuple(sorted(pairs, key=lambda mc: _graded_lex(mc[0])))


def _typed(coeffs) -> list:
    # Fraction(2) == 2, so the int normalisation needs the type as well
    return [(m, c, type(c)) for m, c in coeffs]


_coeff = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _poly(names, size: int = 4, exponent=_EXPONENT, min_size: int = 0) -> st.SearchStrategy:
    """Up to `size` monomials, each in up to three of `names`."""
    mono = st.dictionaries(st.sampled_from(names), exponent, max_size=3)
    return st.lists(st.tuples(mono, _coeff), min_size=min_size, max_size=size).map(
        lambda pairs: {_ref_mono(exps): c for exps, c in pairs}
    )


@st.composite
def _operands(draw):
    """Two polynomials over overlapping variables, or over disjoint ones
    in either order. Either may be a lone monomial; otherwise the second
    may cancel some monomials of the first."""
    first, second = draw(st.sampled_from([(LOW + HIGH, LOW + HIGH), (LOW, HIGH), (HIGH, LOW)]))
    lone = draw(st.sampled_from([None, 0, 1]))
    p = draw(_poly(first, 1, min_size=1) if lone == 0 else _poly(first))
    q = draw(_poly(second, 1, min_size=1) if lone == 1 else _poly(second))
    if lone is None and p:
        for m in draw(st.lists(st.sampled_from(sorted(p)), unique=True)):
            q[m] = -p[m]
    return p, q


@settings(max_examples=300, deadline=None)
@given(_operands(), st.integers(0, 6))
def test_arithmetic_matches_the_naive_reference(operands, n):
    p, q = operands
    a, b = Term(_ref_coeffs(p)), Term(_ref_coeffs(q))
    assert _typed(a.coeffs) == _typed(_ref_coeffs(p))
    assert _typed((a + b).coeffs) == _typed(_ref_coeffs(_ref_add(p, q)))
    assert _typed((a - b).coeffs) == _typed(_ref_coeffs(_ref_add(p, q, -1)))
    assert _typed((a * b).coeffs) == _typed(_ref_coeffs(_ref_mul(p, q)))
    assert _typed((a**n).coeffs) == _typed(_ref_coeffs(_ref_pow(p, n)))
    assert _typed(Term.sum([a, b, a]).coeffs) == _typed(_ref_coeffs(_ref_add(_ref_add(p, q), p)))


@settings(max_examples=200, deadline=None)
@given(
    _poly(LOW + HIGH, 3, _SMALL),
    st.dictionaries(st.sampled_from(LOW + HIGH), _poly(LOW + HIGH, 2)),
)
def test_substitute_matches_the_naive_reference(p, mapping):
    a = Term(_ref_coeffs(p))
    terms = {v: Term(_ref_coeffs(q)) for v, q in mapping.items()}
    assert _typed(a.substitute(terms).coeffs) == _typed(_ref_coeffs(_ref_substitute(p, mapping)))
