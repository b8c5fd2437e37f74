"""Polynomial terms over the formula language: sparse multivariate
polynomials with exact integer or rational coefficients.

A monomial is a tuple of (variable, exponent) pairs sorted by variable name
with every exponent >= 1; the empty tuple is the constant monomial. A Term
stores nonzero (monomial, coefficient) pairs in descending graded
lexicographic order (higher total degree first, ties by variable name then
by higher exponent), which is also the printing order.

Products expand on packed monomials, each one int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", 2007). Each `*`, `**` and `substitute` fixes one packing from
its operands (see `_packing`): a field per variable, wide enough for any
exponent or total degree its result can have, so a product of monomials
is one integer addition. The expansion works on unsorted (packed,
coefficient) pairs, where zero coefficients and Fractions with
denominator 1 may stand; the unpacking drops the zeros, turns those
Fractions into ints and sorts once, on the result of each call.

A lone monomial c*m needs no expansion. Graded lex is a monomial order,
so multiplying every monomial of a Term by m keeps their order: `t * (c*m)`
scales t's pairs where they stand, and `(c*m) ** n` is the one pair
(m with each exponent times n, c ** n). A sum sorts once through `_canon`.

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


def _scan(pairs, names: set) -> int:
    """Add the variables of the pairs' monomials to `names` and return the
    largest total degree among them, read from every monomial, so that a
    hand-built Term out of order is bounded too."""
    top = 0
    for m, _ in pairs:
        d = 0
        for v, e in m:
            names.add(v)
            d += e
        if d > top:
            top = d
    return top


def _packing(names, bound: int):
    """Pack and unpack for monomials over `names` whose exponents and total
    degree stay at most `bound`, as in every partial product of one call.

    A packed monomial has a field of w = bound.bit_length() bits for the
    total degree, on top, then one per name in ascending string order
    (`x10` before `x2`). No field exceeds bound < 2^w, so adding two packed
    monomials carries between no fields: the sum is the packed product.

    `unpack` takes {packed: coefficient}, drops the zeros, turns integral
    Fractions into ints and returns the pairs by descending packed int.
    That is the printing order: the degree field compares first, and
    within one degree the first name whose exponents differ decides, the
    larger exponent first. `_mono_key`'s (name, -exponent) tuples compare
    the same way: a name only one monomial has counts as exponent 0 in the
    other, and at equal degree neither tuple is a prefix of the other.
    """
    w = bound.bit_length()
    top = s = w * len(names)
    shifts = []
    for v in sorted(names):
        s -= w
        shifts.append((v, s))
    shift = dict(shifts)
    mask = (1 << w) - 1

    def pack(pairs) -> list:
        out = []
        for m, c in pairs:
            k = d = 0
            for v, e in m:
                k += e << shift[v]
                d += e
            out.append(((d << top) + k, c))
        return out

    def unpack(acc: dict) -> tuple:
        out = []
        for k in sorted([k for k, c in acc.items() if c], reverse=True):
            m = []
            for v, s in shifts:
                e = k >> s & mask
                if e:
                    m.append((v, e))
            out.append((tuple(m), _norm_coeff(acc[k])))
        return tuple(out)

    return pack, unpack


def _mul_packed(acc: dict, xs, ys) -> dict:
    """Add the product of two sequences of (packed, coefficient) pairs of
    one packing into `acc`, unsorted, and return it."""
    get = acc.get
    for m1, c1 in xs:
        for m2, c2 in ys:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


def _pow_packed(pairs, n: int):
    """pairs**n for packed pairs, as unsorted pairs: a lone pair scales its
    monomial by n, more pairs go by square-and-multiply."""
    if len(pairs) == 1:
        (m, c), = pairs
        return ((m * n, c**n),)
    out = None
    while n:
        if n & 1:
            out = pairs if out is None else _mul_packed({}, out, pairs).items()
        n >>= 1
        if n:
            pairs = _mul_packed({}, pairs, pairs).items()
    return ((0, 1),) if out is None else out


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
        """The product. A lone monomial on either side scales the other
        side's pairs in order; otherwise both sides expand on one packing,
        bounded by the sum of their degrees."""
        a, b = self.coeffs, self._coerce(other).coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (m, c), = b
            return Term(tuple((_mono_mul(m1, m), _norm_coeff(c1 * c)) for m1, c1 in a))
        names: set[str] = set()
        bound = _scan(a, names) + _scan(b, names)
        pack, unpack = _packing(names, bound)
        return Term(unpack(_mul_packed({}, pack(a), pack(b))))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Term":
        """self ** n for n >= 0. A lone monomial c*m gives one pair, m with
        each exponent times n and c ** n; a longer term goes by
        square-and-multiply on one packing, bounded by n times its degree."""
        if n < 0:
            raise ValueError("negative exponent")
        pairs = self.coeffs
        if n == 0:
            return Term((((), 1),))
        if len(pairs) == 1:
            (m, c), = pairs
            return Term(((tuple((v, e * n) for v, e in m), _norm_coeff(c**n)),))
        names: set[str] = set()
        bound = n * _scan(pairs, names)
        pack, unpack = _packing(names, bound)
        return Term(unpack(dict(_pow_packed(pack(pairs), n))))

    # -- semantics ---------------------------------------------------------

    def substitute(self, mapping: dict[str, "Term"]) -> "Term":
        """Simultaneous substitution; an unmapped variable stays itself.

        The result expands on one packing. Its degree bound is the largest,
        over self's monomials, of the sum of e * deg(mapping[v]) over their
        powers v^e, an unmapped variable counting degree 1. Each power of a
        variable is expanded once per call.
        """
        images = {}
        for m, _ in self.coeffs:
            for v, _ in m:
                if v not in images:
                    t = mapping.get(v)
                    images[v] = ((((v, 1),), 1),) if t is None else t.coeffs
        names: set[str] = set()
        degree = {v: _scan(pairs, names) for v, pairs in images.items()}
        bound = max((sum(e * degree[v] for v, e in m) for m, _ in self.coeffs), default=0)
        pack, unpack = _packing(names, bound)
        images = {v: pack(pairs) for v, pairs in images.items()}
        powers: dict[tuple[str, int], object] = {}
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for m, c in self.coeffs:
            part = None
            for v, e in m:
                factor = powers.get((v, e))
                if factor is None:
                    factor = powers[v, e] = _pow_packed(images[v], e)
                part = factor if part is None else _mul_packed({}, part, factor).items()
            for k, coef in ((0, 1),) if part is None else part:
                acc[k] = get(k, 0) + c * coef
        return Term(unpack(acc))

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
