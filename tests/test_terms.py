import random
from fractions import Fraction

import pytest

from defifix.errors import EvaluationError
from defifix.fields import enumerate_elements, int_field, make_field
from defifix.formulas import parse
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
