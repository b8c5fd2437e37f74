"""Polynomial terms over the formula language: sparse multivariate
polynomials with exact integer or rational coefficients.

A monomial is a tuple of (variable, exponent) pairs sorted by variable name
with every exponent >= 1; the empty tuple is the constant monomial. A Term
stores nonzero (monomial, coefficient) pairs in descending graded
lexicographic order (higher total degree first, ties by variable name then
by higher exponent), which is also the printing order.

Only a finished result is in that order. The arithmetic in between works
on unsorted (monomial, coefficient) pairs, where zero coefficients and
Fractions with denominator 1 may stand; `_canon` sorts, drops the zeros and
turns those Fractions into ints once, on the result of each `*`, `**`,
`substitute` and sum.

`Term.compile` turns a term into an evaluator on any ring of the fields
module's ring interface, FieldElements or kernel indices alike;
`Term.evaluate` is that evaluator on FieldElements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .errors import EvaluationError

Monomial = tuple[tuple[str, int], ...]

Coefficient = int | Fraction

_ONE = (((), 1),)  # the pairs of the constant 1


def _norm_coeff(c: Coefficient) -> Coefficient:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    degree = 0
    names = []
    for v, e in m:
        degree += e
        names.append((v, -e))
    return (-degree, tuple(names))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mul_into(acc: dict, xs, ys) -> dict:
    """Add the product of two sequences of (monomial, coefficient) pairs
    into `acc`, unsorted, and return it."""
    get, mono_mul = acc.get, _mono_mul
    for m1, c1 in xs:
        for m2, c2 in ys:
            m = mono_mul(m1, m2)
            acc[m] = get(m, 0) + c1 * c2
    return acc


def _power(pairs, n: int):
    """pairs**n by square-and-multiply, as unsorted pairs."""
    out = None
    while n:
        if n & 1:
            out = pairs if out is None else _mul_into({}, out, pairs).items()
        n >>= 1
        if n:
            pairs = _mul_into({}, pairs, pairs).items()
    return _ONE if out is None else out


def _canon(pairs: dict[Monomial, Coefficient]) -> tuple[tuple[Monomial, Coefficient], ...]:
    items = [(m, _norm_coeff(c)) for m, c in pairs.items() if c]
    items.sort(key=lambda mc: _mono_key(mc[0]))
    return tuple(items)


@dataclass(frozen=True)
class Term:
    coeffs: tuple[tuple[Monomial, Coefficient], ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Coefficient) -> "Term":
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return Term((((), c),) if c != 0 else ())

    @staticmethod
    def variable(name: str) -> "Term":
        return Term(((((name, 1),), 1),))

    @staticmethod
    def zero() -> "Term":
        return Term(())

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return all(m == () for m, _ in self.coeffs)

    def constant_value(self) -> Coefficient:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0][1] if self.coeffs else 0

    def degree(self) -> int:
        return _mono_degree(self.coeffs[0][0]) if self.coeffs else 0

    def free_variables(self) -> set[str]:
        return {v for m, _ in self.coeffs for v, _ in m}

    def as_dict(self) -> dict[Monomial, Coefficient]:
        return dict(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Term":
        if isinstance(other, Term):
            return other
        return Term.constant(other)

    @staticmethod
    def sum(terms) -> "Term":
        """The sum of an iterable of terms, put in canonical order once."""
        acc: dict[Monomial, Coefficient] = {}
        get = acc.get
        for t in terms:
            for m, c in t.coeffs:
                acc[m] = get(m, 0) + c
        return Term(_canon(acc))

    def __add__(self, other) -> "Term":
        return Term.sum((self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Term":
        return Term(tuple((m, _norm_coeff(-c)) for m, c in self.coeffs))

    def __sub__(self, other) -> "Term":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Term":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Term":
        return Term(_canon(_mul_into({}, self.coeffs, self._coerce(other).coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Term":
        if n < 0:
            raise ValueError("negative exponent")
        return Term(_canon(dict(_power(self.coeffs, n))))

    # -- semantics ---------------------------------------------------------

    def substitute(self, mapping: dict[str, "Term"]) -> "Term":
        """Simultaneous substitution; an unmapped variable stays itself.
        Each power of a mapped variable is expanded once per call."""
        powers: dict[tuple[str, int], object] = {}
        acc: dict[Monomial, Coefficient] = {}
        get = acc.get
        for m, c in self.coeffs:
            part = None
            for v, e in m:
                factor = powers.get((v, e))
                if factor is None:
                    t = mapping.get(v)
                    factor = ((((v, e),), 1),) if t is None else _power(t.coeffs, e)
                    powers[v, e] = factor
                part = factor if part is None else _mul_into({}, part, factor).items()
            for mono, coef in _ONE if part is None else part:
                acc[mono] = get(mono, 0) + c * coef
        return Term(_canon(acc))

    def evaluate(self, assignment: dict[str, "FieldElement"], field) -> "FieldElement":
        """Value of the term under a variable assignment, in the given field.

        Integer and rational coefficients embed through the characteristic
        map; a coefficient whose denominator vanishes in the field is an
        evaluation error, as is an unassigned variable.
        """
        return self.compile(field)(assignment)

    def compile(self, R) -> Callable[[dict], object]:
        """The term as a function from an assignment of values of the ring
        `R` to a value of R: a `fields.FieldDescriptor` on FieldElements,
        or a `fields.IntField` on element indices, through R's ring
        interface (`coeff`, `add`, `mul`, `pow`).

        Coefficients are mapped into R once; one that is undefined there,
        like an unassigned variable, is an `EvaluationError` when its
        monomial is reached.
        """
        add, mul, pow = R.add, R.mul, R.pow
        zero = R.coeff(0)
        monomials = []
        for mono, c in self.coeffs:
            try:
                image = R.coeff(c)
            except ZeroDivisionError:
                image = None
            monomials.append((c, image, mono))

        def value(env: dict) -> object:
            total = zero
            for c, part, mono in monomials:
                if part is None:
                    raise EvaluationError(f"coefficient {c} undefined in {R.spec()}")
                for v, e in mono:
                    a = env.get(v)
                    if a is None:
                        raise EvaluationError(f"variable {v!r} has no value")
                    part = mul(part, a if e == 1 else pow(a, e))
                total = add(total, part)
            return total

        return value

    def clear_denominators(self) -> tuple["Term", int]:
        """Scale by the least common denominator of the coefficients.

        Returns (integer-coefficient term, multiplier). Over a field of
        characteristic p the scaling preserves zero sets only when p does
        not divide the multiplier, which holds whenever the original
        coefficients are themselves defined in the field.
        """
        dens = [c.denominator for _, c in self.coeffs if isinstance(c, Fraction)]
        if not dens:
            return self, 1
        mult = lcm(*dens)
        return self * mult, mult

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.coeffs):
            neg = c < 0
            mag = -c if neg else c
            body = _coeff_str(mag) if (m == () or mag != 1) else ""
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            if body and mono:
                body = f"{body}*{mono}"
            else:
                body = body or mono
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Term({str(self)!r})"


def _coeff_str(c: Coefficient) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))
