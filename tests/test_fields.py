import random
import re
from fractions import Fraction

import pytest

from defifix import fields
from defifix.errors import FieldMismatchError, FieldSpecError, InfiniteFieldError
from defifix.fields import (
    RATIONALS,
    FieldElement,
    IntField,
    element_str,
    enumerate_elements,
    frobenius,
    int_field,
    make_field,
    parse_element,
    ring,
)
from defifix.normalize import ConstraintSearch, ConstraintSystem, Plus, Times


def test_make_field_rationals():
    K = make_field("Q")
    assert K.kind == "rationals"
    assert not K.is_finite
    assert K == RATIONALS


def test_make_field_prime():
    K = make_field("F5")
    assert K.kind == "prime"
    assert K.p == 5
    assert K.order == 5
    assert K.characteristic == 5


def test_make_field_extension_canonical_modulus():
    K = make_field("F2^2")
    # smallest monic irreducible quadratic over F_2 is x^2 + x + 1
    assert K.modulus == (1, 1, 1)
    assert K.order == 4
    K9 = make_field("F3^2")
    # x^2 + 1 has no root mod 3
    assert K9.modulus == (1, 0, 1)


def test_make_field_explicit_modulus():
    K = make_field("F2^3:1,1,0,1")
    assert K.modulus == (1, 1, 0, 1)
    assert K.order == 8


def test_make_field_rejects_composite_base():
    with pytest.raises(FieldSpecError):
        make_field("F4")
    with pytest.raises(FieldSpecError):
        make_field("F6")


def test_make_field_rejects_bad_specs():
    for bad in ["", "GF(5)", "F", "F5^0", "F2^9", "F2^2:1,1", "F2^2:1,0,1"]:
        with pytest.raises(FieldSpecError):
            make_field(bad)


def test_rational_arithmetic():
    Q = make_field("Q")
    a = Q.element(Fraction(1, 2))
    b = Q.element(Fraction(1, 3))
    assert (a + b).value == Fraction(5, 6)
    assert (a * b).value == Fraction(1, 6)
    assert (a - b).value == Fraction(1, 6)
    assert (a / b).value == Fraction(3, 2)
    assert (-a).value == Fraction(-1, 2)


def test_prime_field_inverse():
    K = make_field("F5")
    assert K.element(2).inverse() == K.element(3)
    assert K.one() / K.element(2) == K.element(3)
    with pytest.raises(ZeroDivisionError):
        K.element(0).inverse()


def test_extension_generator_square():
    K = make_field("F2^2")
    x = K.element([0, 1])
    assert (x * x).value == (1, 1)  # x^2 = x + 1 mod the modulus
    assert (x * x * x).is_one  # multiplicative group has order 3


def test_mixed_field_operands_rejected():
    a = make_field("F5").element(1)
    b = make_field("F7").element(1)
    with pytest.raises(FieldMismatchError):
        a + b


def test_enumerate_elements_order():
    K = make_field("F2^2")
    elems = enumerate_elements(K)
    assert [e.value for e in elems] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(InfiniteFieldError):
        enumerate_elements(RATIONALS)


def test_frobenius_fixes_exactly_prime_subfield():
    for spec in ["F2^2", "F3^2", "F2^3"]:
        K = make_field(spec)
        elems = enumerate_elements(K)
        images = {frobenius(a) for a in elems}
        assert len(images) == K.order  # bijective
        fixed = [a for a in elems if frobenius(a) == a]
        assert len(fixed) == K.p
        assert all(element_str(a) in (f"[{i}]" for i in range(K.p)) for a in fixed)


def test_frobenius_needs_finite_field():
    with pytest.raises(InfiniteFieldError):
        frobenius(RATIONALS.element(2))


def test_element_str_forms():
    Q = make_field("Q")
    assert element_str(Q.element(3)) == "3"
    assert element_str(Q.element(Fraction(-1, 2))) == "-1/2"
    K = make_field("F2^2")
    assert element_str(K.element(0)) == "[0]"
    assert element_str(K.element(1)) == "[1]"
    assert element_str(K.element([0, 1])) == "[0,1]"


def test_parse_element_round_trip():
    rng = random.Random(401)
    Q = make_field("Q")
    for _ in range(50):
        v = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        a = Q.element(v)
        assert parse_element(element_str(a), Q) == a
    for spec in ["F7", "F2^2", "F3^2"]:
        K = make_field(spec)
        for a in enumerate_elements(K):
            assert parse_element(element_str(a), K) == a


def test_parse_element_integer_embedding():
    K = make_field("F5")
    assert parse_element("7", K) == K.element(2)
    assert parse_element("1/2", K) == K.element(3)  # 2*3 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        parse_element("1/5", K)


def test_coefficient_vectors_are_checked_and_reduced():
    with pytest.raises(FieldSpecError, match="coefficient-vector syntax is only for finite fields"):
        parse_element("[1,2]", RATIONALS)
    K = make_field("F2^2")
    with pytest.raises(FieldSpecError, match="vector of length 3 too long for degree 2"):
        parse_element("[1,1,1]", K)
    # a longer sequence is reduced by the modulus x^2 + x + 1
    assert element_str(K.element([0, 0, 1])) == "[1,1]"


def test_numbers_are_ascii_digits():
    # int(), Fraction and re's \d read any Unicode decimal digit; field
    # specs, moduli and elements take -?[0-9]+ with spaces around it
    for bad in ["F٧", "F7^٢", "F7^2:١,0,1", "F7^2:+1,0,1", "F7^2:1,0,1_0"]:
        with pytest.raises(FieldSpecError, match="malformed"):
            make_field(bad)
    assert make_field("F7^2: 1 , 0 , 1 ") == make_field("F7^2:1,0,1")
    K = make_field("F7")
    for bad in ["٣", "1_0", "+3", "3 4"]:
        with pytest.raises(FieldSpecError, match=re.escape(f"malformed element {bad!r}")):
            parse_element(bad, K)
    for bad in ["٣/2", "3/٢", "1_0/3", "[٣]", "[1_0]"]:
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_element(bad, make_field("F7^2") if bad[0] == "[" else K)
    assert parse_element(" -3 ", K) == K.element(4)
    assert parse_element("-3/ 2", K) == K.element(Fraction(-3, 2))
    assert parse_element("[ 1, -2 ]", make_field("F7^2")) == make_field("F7^2").element([1, 5])


def test_field_axioms_sampled():
    rng = random.Random(402)
    fields = [make_field(s) for s in ["Q", "F7", "F2^2", "F3^2", "F2^3"]]
    for K in fields:
        if K.is_finite:
            pool = enumerate_elements(K)
            pick = lambda: rng.choice(pool)
        else:
            pick = lambda: K.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        zero, one = K.zero(), K.one()
        for _ in range(40):
            a, b, c = pick(), pick(), pick()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if not a.is_zero:
                assert a * a.inverse() == one


def test_inverse_in_extension():
    for spec in ["F2^2", "F3^2", "F2^3", "F5^2"]:
        K = make_field(spec)
        for a in enumerate_elements(K):
            if a.is_zero:
                continue
            assert a * a.inverse() == K.one()
    rng = random.Random(1009)
    for spec in ["F1000003", "F1009^2", "F101^4"]:
        K = make_field(spec)
        samples = [K.element([rng.randrange(K.p) for _ in range(K.degree)]) for _ in range(30)]
        for a in [K.one(), K.element(-1), *samples]:
            if not a.is_zero:
                assert a * a.inverse() == K.one()
                assert a.inverse().inverse() == a


def test_inverse_by_euclid_matches_the_power_q_minus_2():
    for spec in ["F2^4", "F3^3", "F5^2"]:
        K = make_field(spec)
        for a in enumerate_elements(K):
            if not a.is_zero:
                assert a.inverse() == a ** (K.order - 2)


def test_elements_of_different_fields_are_unequal():
    # equal-looking values in F7, F7^2 and F7^2 under another modulus
    F49 = make_field("F7^2")
    other = make_field("F7^2:3,1,1")
    assert F49 != other
    a, b, c = make_field("F7").element(3), F49.element(3), other.element(3)
    assert a != b and b != c
    assert F49.element([3, 0]) == b and hash(F49.element([3, 0])) == hash(b)
    assert len({a, b, c}) == 3
    with pytest.raises(FieldMismatchError):
        b + c


def test_descriptor_spec_round_trip():
    for spec in ["Q", "F5", "F2^2", "F3^2", "F2^3:1,1,0,1"]:
        K = make_field(spec)
        assert make_field(K.spec()) == K


def test_pow_and_arith_dispatch():
    K = make_field("F7")
    a = K.element(3)
    assert a**0 == K.one()
    assert a**6 == K.one()  # Fermat
    assert a**-1 == a.inverse()
    assert a + a == K.element(6)
    assert -a == K.element(4)


KERNEL_SPECS = ["F2", "F3", "F5", "F7", "F13", "F2^2", "F2^3", "F2^4", "F3^2", "F3^3", "F5^2"]


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_int_field_agrees_with_field_elements(spec):
    # the integer arithmetic, as the engine does it, on one-atom systems:
    # pin two places of x+y=z or x*y=z and read the third
    K = make_field(spec)
    T = int_field(K)
    elems = enumerate_elements(K)
    assert [T.element(i) for i in range(K.order)] == elems
    assert [T.index(a) for a in elems] == list(range(K.order))
    assert T.element(0) == K.zero() and T.element(1) == K.one()
    xyz = ("x", "y", "z")
    plus = ConstraintSearch(ConstraintSystem(xyz, (Plus(0, 1, 2),), 0), K)
    times = ConstraintSearch(ConstraintSystem(xyz, (Times(0, 1, 2),), 0), K)

    def read(search, pins, var):
        (solution,) = search.solutions(pins)
        return elems[solution[var]]

    for i, a in enumerate(elems):
        assert elems[T.neg[i]] == -a
        for j, b in enumerate(elems):
            assert read(plus, [(0, i), (1, j)], 2) == a + b
            assert read(plus, [(1, i), (2, j)], 0) == b - a
            assert read(plus, [(0, i), (2, j)], 1) == b - a
            assert read(times, [(0, i), (1, j)], 2) == a * b
            if i:
                assert read(times, [(1, i), (2, j)], 0) == b / a
                assert read(times, [(0, i), (2, j)], 1) == b / a


def test_int_field_is_built_once_and_only_for_finite_fields():
    K = make_field("F3^2")
    assert int_field(K) is int_field(make_field("F3^2"))
    with pytest.raises(InfiniteFieldError):
        int_field(RATIONALS)


OPERATION_SPECS = ["F2", "F3", "F5", "F7", "F11", "F13", "F2^2", "F2^3", "F2^4", "F3^2", "F3^3", "F5^2"]


@pytest.mark.parametrize("spec", OPERATION_SPECS)
def test_int_field_operations_agree_with_field_elements(spec):
    K = make_field(spec)
    T = int_field(K)
    elems = enumerate_elements(K)
    exponents = [-3, -2, -1, *range(K.order + 2), 10**20]
    # both rings through the same interface, and K's agreeing with the operators
    for i, a in enumerate(elems):
        assert T.element(i) == a and T.index(a) == i and K.index(a) == a
        assert T.element(T.neg[i]) == -a
        for j, b in enumerate(elems):
            assert T.element(T.add(i, j)) == K.add(a, b) == a + b
            assert T.element(T.mul(i, j)) == K.mul(a, b) == a * b
        for n in exponents:
            if i or n >= 0:
                assert T.element(T.pow(i, n)) == K.pow(a, n) == a**n
        if i:
            assert T.element(T.inv(i)) == a.inverse()
    with pytest.raises(ZeroDivisionError):
        T.inv(0)
    with pytest.raises(ZeroDivisionError):
        T.pow(0, -1)
    p = K.p
    for c in [*range(-2 * p, 2 * p + 1), 10**30 + 7]:
        assert T.coeff(c) == T.index(K.coeff(c)) == T.index(K.element(c))
        for d in range(1, 2 * p + 1):
            q = Fraction(c, d)
            if q.denominator % p:
                assert T.coeff(q) == T.index(K.coeff(q)) == T.index(K.element(q))
            else:
                with pytest.raises(ZeroDivisionError):
                    T.coeff(q)
                with pytest.raises(ZeroDivisionError):
                    K.coeff(q)
    assert T.spec() == K.spec()
    other = make_field("F3" if p != 3 else "F5").one()
    for R in (T, K):
        with pytest.raises(FieldMismatchError):
            R.index(other)


def test_ring_builds_the_kernel_only_when_it_pays(monkeypatch):
    monkeypatch.setattr(fields, "_INT_FIELDS", {})
    assert ring(RATIONALS, 10**9) is RATIONALS
    big = make_field("F1000003")
    assert ring(big, 100) is big
    assert big not in fields._INT_FIELDS
    F7 = make_field("F7")
    assert ring(F7, 6) is F7
    assert F7 not in fields._INT_FIELDS
    T = ring(F7, 7)
    assert isinstance(T, IntField) and T is int_field(F7)
    assert ring(F7, 0) is T and ring(F7, 10**9) is T


def test_int_field_is_built_from_ints_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("FieldElement arithmetic while building the kernel")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__", "inverse"):
        monkeypatch.setattr(FieldElement, op, refuse)
    for spec in ("F2", "F101", "F2^4", "F7^2", "F3^3"):
        T = IntField(make_field(spec))
        assert sorted(T.exp[: T.q - 1]) == list(range(1, T.q))
        assert all(T.mul(a, T.inv(a)) == 1 for a in range(1, T.q))
        assert all(T.add(a, T.neg[a]) == 0 for a in range(T.q))
