"""Exact arithmetic over the supported computable fields: Q, F_p, and F_{p^k}.

Field elements are immutable values: rationals are stdlib Fractions in
canonical form, finite-field elements are coefficient vectors of length k
(entries reduced mod p) with respect to a fixed monic irreducible modulus.
Everything here is pure; elements and descriptors hash and compare
structurally.

A field and its integer kernel offer one ring interface: `index` (an
element as the ring's value), `add`, `mul`, `pow` and `coeff` (the image
of an int or Fraction), with zero and one as `coeff(0)` and `coeff(1)`.
A `FieldDescriptor` implements it on `FieldElement`s. `IntField`, the
integer kernel of a finite field, implements it on element indices
through tables of O(q) entries, and adds `neg`, `inv` and `element` (an
index back to its FieldElement). Code written once on these operations
runs on either; `ring(K, work)` picks the kernel when its tables are
built or cost no more than the work at hand (q <= work), and K itself
otherwise, so a few operations in a large field never tabulate it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatchError, FieldSpecError, InfiniteFieldError

_SPEC_RE = re.compile(r"^F([0-9]+)(?:\^([0-9]+))?(?::(.+))?$")
_INT_RE = re.compile(r"-?[0-9]+")


def _read_int(text: str) -> int:
    """An integer written as ASCII digits, with an optional minus sign and
    spaces around it. Anything else, `+5`, `1_0` and `٣` included, raises
    the ValueError that int() raises on text it cannot read."""
    body = text.strip()
    if not _INT_RE.fullmatch(body):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(body)

MAX_EXTENSION_DEGREE = 4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- dense univariate polynomial helpers over F_p (ascending coefficients) --


def _poly_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _poly_pow(a, n, m, p):
    """a^n modulo the monic m over F_p, by squaring; n >= 0."""
    out = [1]
    while n:
        if n & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        n >>= 1
    return out


def _poly_inverse(a, m, p):
    """The inverse of a nonzero a modulo the irreducible monic m over F_p,
    by the extended Euclidean algorithm: each row (r, s) keeps s*a = r
    modulo m, from (m, 0) and (a, 1) down to a nonzero constant r."""
    r0, s0 = list(m), []
    r1, s1 = _poly_trim(list(a)), [1]
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            # subtract c x^shift times the row (r1, s1) from (r0, s0)
            c = r0[-1] * inv % p
            shift = len(r0) - len(r1)
            r0 = _poly_submul(r0, c, shift, r1, p)
            s0 = _poly_submul(s0, c, shift, s1, p)
        r0, s0, r1, s1 = r1, s1, r0, s0
    c = pow(r1[0], -1, p)
    return [x * c % p for x in s1]


def _poly_submul(a, c, shift, b, p):
    """a - c x^shift b over F_p."""
    out = list(a) + [0] * (len(b) + shift - len(a))
    for i, y in enumerate(b):
        out[shift + i] = (out[shift + i] - c * y) % p
    return _poly_trim(out)


def _digits(n: int, p: int, k: int) -> list[int]:
    """The k base-p digits of n, least significant first: an element index
    as its coefficient vector, and the counting order of vectors."""
    out = []
    for _ in range(k):
        n, c = divmod(n, p)
        out.append(c)
    return out


def _poly_is_irreducible(m, p):
    """Exhaustive divisor search; adequate for the supported degrees (<= 4)."""
    k = len(m) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for n in range(p**d):
            if not _poly_mod(m, _digits(n, p, d) + [1], p):
                return False
    # degree 1: irreducible by definition; degrees 2, 3 need only the (root)
    # search above; degree 4 also rules out quadratic factors there
    return True


def _canonical_modulus(p: int, k: int):
    """Smallest monic irreducible of degree k over F_p, in base-p counting
    order of the non-leading coefficient vector (constant term least
    significant)."""
    for n in range(p**k):
        c = _digits(n, p, k) + [1]
        if _poly_is_irreducible(c, p):
            return tuple(c)
    raise FieldSpecError(f"no irreducible monic polynomial of degree {k} over F_{p}")


@dataclass(frozen=True)
class FieldDescriptor:
    """One of Q (p is None), a prime field F_p, or an extension F_{p^k}.

    For finite fields `modulus` is a monic irreducible polynomial over F_p
    given as an ascending coefficient tuple of length k+1; prime fields use
    the degree-1 modulus x.
    """

    p: int | None
    modulus: tuple[int, ...] | None

    @property
    def kind(self) -> str:
        if self.p is None:
            return "rationals"
        return "prime" if self.degree == 1 else "extension"

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1 if self.modulus else 1

    @property
    def order(self) -> int:
        if self.p is None:
            raise InfiniteFieldError("Q is infinite")
        return self.p**self.degree

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def spec(self) -> str:
        if self.p is None:
            return "Q"
        if self.degree == 1:
            return f"F{self.p}"
        mods = ",".join(str(c) for c in self.modulus)
        return f"F{self.p}^{self.degree}:{mods}"

    def __repr__(self):
        return f"FieldDescriptor({self.spec()!r})"

    # -- element construction -------------------------------------------

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction, coefficient sequence, or string to an
        element of this field. Integers embed via the characteristic map."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"element of {value.field.spec()} used in {self.spec()}")
            return value
        if isinstance(value, str):
            return parse_element(value, self)
        if self.p is None:
            return FieldElement(self, Fraction(value))
        if isinstance(value, Fraction):
            num = self.element(value.numerator)
            return num / self.element(value.denominator)
        if isinstance(value, int):
            vec = (value % self.p,) + (0,) * (self.degree - 1)
            return FieldElement(self, vec)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.degree:
            reduced = _poly_mod(list(coeffs), list(self.modulus), self.p)
            coeffs = tuple(reduced)
        coeffs = coeffs + (0,) * (self.degree - len(coeffs))
        return FieldElement(self, coeffs)

    # -- the ring interface, on FieldElements ------------------------------

    def index(self, a: "FieldElement") -> "FieldElement":
        return self.element(a)

    def add(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        return a + b

    def mul(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        return a * b

    def pow(self, a: "FieldElement", n: int) -> "FieldElement":
        return a**n

    def coeff(self, c: int | Fraction) -> "FieldElement":
        return self.element(c)


@dataclass(frozen=True)
class FieldElement:
    """Immutable field element; arithmetic via the usual operators.

    `value` is a canonical Fraction over Q, or a coefficient tuple of
    length k (entries in [0, p)) over a finite field.
    """

    field: FieldDescriptor
    value: Fraction | tuple[int, ...]

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            return self.field.element(other)
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError(
                f"mixed operands: {self.field.spec()} and {other.field.spec()}"
            )
        return other

    # Equal elements have equal values, so the value alone is the hash;
    # equality still compares the fields, by identity first.
    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and (
            other.field is self.field or other.field == self.field
        )

    def __hash__(self):
        return hash(self.value)

    @property
    def is_zero(self) -> bool:
        if self.field.p is None:
            return self.value == 0
        return all(c == 0 for c in self.value)

    @property
    def is_one(self) -> bool:
        return self == self.field.one()

    def __add__(self, other):
        other = self._check(other)
        if self.field.p is None:
            return FieldElement(self.field, self.value + other.value)
        p = self.field.p
        vec = tuple((a + b) % p for a, b in zip(self.value, other.value))
        return FieldElement(self.field, vec)

    def __sub__(self, other):
        other = self._check(other)
        if self.field.p is None:
            return FieldElement(self.field, self.value - other.value)
        p = self.field.p
        vec = tuple((a - b) % p for a, b in zip(self.value, other.value))
        return FieldElement(self.field, vec)

    def __neg__(self):
        if self.field.p is None:
            return FieldElement(self.field, -self.value)
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.value))

    def __mul__(self, other):
        other = self._check(other)
        if self.field.p is None:
            return FieldElement(self.field, self.value * other.value)
        p = self.field.p
        prod = _poly_mul(list(self.value), list(other.value), p)
        prod = _poly_mod(prod, list(self.field.modulus), p)
        vec = tuple(prod) + (0,) * (self.field.degree - len(prod))
        return FieldElement(self.field, vec)

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero")
        K = self.field
        if K.p is None:
            return FieldElement(K, 1 / self.value)
        vec = _poly_inverse(self.value, K.modulus, K.p)
        return FieldElement(K, tuple(vec) + (0,) * (K.degree - len(vec)))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        K = self.field
        if K.p is None:
            return FieldElement(K, self.value**n)
        vec = _poly_pow(list(self.value), n, list(K.modulus), K.p)
        return FieldElement(K, tuple(vec) + (0,) * (K.degree - len(vec)))

    def __str__(self):
        return element_str(self)

    def __repr__(self):
        return f"<{element_str(self)} in {self.field.spec()}>"


def make_field(spec: str) -> FieldDescriptor:
    """Build a field descriptor from a specification string.

    Accepted forms: "Q", "F<p>", "F<p>^<k>", and "F<p>^<k>:<c0,c1,...,ck>"
    with an explicit monic modulus (ascending coefficients). When the
    modulus is omitted the canonical (smallest) irreducible one is chosen.
    """
    spec = spec.strip()
    if spec == "Q":
        return FieldDescriptor(None, None)
    m = _SPEC_RE.match(spec)
    if not m:
        raise FieldSpecError(f"malformed field spec {spec!r}")
    p = int(m.group(1))
    if not _is_prime(p):
        raise FieldSpecError(f"{p} is not prime; use extension syntax F<p>^<k> for prime powers")
    k = int(m.group(2)) if m.group(2) else 1
    if k < 1 or k > MAX_EXTENSION_DEGREE:
        raise FieldSpecError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}, got {k}")
    if m.group(3) is not None:
        raw = m.group(3).strip().strip("[]")
        try:
            coeffs = tuple(_read_int(c) % p for c in raw.split(","))
        except ValueError:
            raise FieldSpecError(f"malformed modulus {m.group(3)!r}") from None
        if len(coeffs) != k + 1 or coeffs[-1] != 1:
            raise FieldSpecError(f"modulus must be monic of degree {k}")
        if not _poly_is_irreducible(list(coeffs), p):
            raise FieldSpecError(f"modulus {list(coeffs)} is reducible over F_{p}")
        modulus = coeffs
    elif k == 1:
        modulus = (0, 1)
    else:
        modulus = _canonical_modulus(p, k)
    return FieldDescriptor(p, modulus)


def enumerate_elements(field: FieldDescriptor) -> list[FieldElement]:
    """All elements of a finite field, in base-p counting order of the
    coefficient vector (so the prime subfield comes first as 0, 1, ..., p-1)."""
    if not field.is_finite:
        raise InfiniteFieldError("cannot enumerate Q")
    p, k = field.p, field.degree
    return [FieldElement(field, tuple(_digits(n, p, k))) for n in range(p**k)]


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class IntField:
    """A finite field with its elements as ints, for search loops.

    Element i is the one whose coefficient vector holds the base-p digits
    of i, constant term least significant: `enumerate_elements(K)[i]`, so
    0 is zero, 1 is one and the prime subfield is 0..p-1. `index` and
    `element` convert at the edges; everything between runs on ints.

    Arithmetic goes through tables of O(q) entries built from the first
    primitive element g in that order: `exp[n] = g^n` (two periods, so log
    sums need no reduction), `log[a]` for a != 0 (-1 for 0), `neg[a] = -a`,
    and the Zech logarithms `zech[n] = log(1 + g^n)`, -1 where 1 + g^n = 0.
    Then a*b = exp[log a + log b] and a+b = a*(1 + b/a) = exp[log a +
    zech[log b - log a]]; a negative index into `zech` (length q-1) or
    `exp` wraps round by one period, which is the reduction mod q-1. The
    tables come from ints alone: multiplication mod p for a prime field,
    one polynomial product on base-p digit vectors per power otherwise.

    It implements the ring interface (`index`, `add`, `mul`, `pow`,
    `coeff`) on indices, plus `inv`, the table `neg` and `element`.
    """

    def __init__(self, K: FieldDescriptor):
        if not K.is_finite:
            raise InfiniteFieldError("integer arithmetic needs a finite field")
        self.field = K
        self.p = p = K.p
        self.q = q = K.order
        self.m = m = q - 1
        exp = _powers_of_first_generator(K)
        log = [-1] * q
        for n, i in enumerate(exp):
            log[i] = n
        # adding 1 raises the lowest base-p digit of the index by one
        self.zech = tuple(log[i - i % p + (i + 1) % p] for i in exp)
        self.exp = tuple(exp + exp)
        self.log = tuple(log)
        # negation is digit by digit: the low digit varies fastest
        digit = [0, *range(p - 1, 0, -1)]
        neg = digit
        for _ in range(K.degree - 1):
            neg = [a + p * b for b in neg for a in digit]
        self.neg = tuple(neg)

    def spec(self) -> str:
        return self.field.spec()

    def index(self, a: FieldElement) -> int:
        n = 0
        for c in reversed(self.field.element(a).value):
            n = n * self.p + c
        return n

    def element(self, i: int) -> FieldElement:
        return FieldElement(self.field, tuple(_digits(i, self.p, self.field.degree)))

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        log = self.log
        z = self.zech[log[b] - log[a]]
        return 0 if z < 0 else self.exp[log[a] + z]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return self.exp[self.m - self.log[a]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return 1
        return 0 if a == 0 else self.exp[self.log[a] * n % self.m]

    def coeff(self, c: int | Fraction) -> int:
        """The image of an integer or rational; ZeroDivisionError when the
        denominator vanishes in the field."""
        if isinstance(c, Fraction):
            return self.mul(c.numerator % self.p, self.inv(c.denominator % self.p))
        return c % self.p


def _powers_of_first_generator(K: FieldDescriptor) -> list[int]:
    """[g^0, ..., g^(q-2)] as element indices, g the first primitive element
    in index order: the first g with g^((q-1)/r) != 1 for every prime r
    dividing q-1."""
    p, q, k = K.p, K.order, K.degree
    m = q - 1
    factors = _prime_factors(m)
    if k == 1:
        g = next(a for a in range(1, p) if all(pow(a, m // r, p) != 1 for r in factors))
        out, a = [], 1
        for _ in range(m):
            out.append(a)
            a = a * g % p
        return out
    modulus = list(K.modulus)
    g = next(
        v
        for v in (_poly_trim(_digits(i, p, k)) for i in range(1, q))
        if all(_poly_pow(v, m // r, modulus, p) != [1] for r in factors)
    )
    weights = [p**d for d in range(k)]
    out, a = [], [1]
    for _ in range(m):
        out.append(sum(c * w for c, w in zip(a, weights)))
        a = _poly_mod(_poly_mul(a, g, p), modulus, p)
    return out


_INT_FIELDS: dict[FieldDescriptor, IntField] = {}


def int_field(K: FieldDescriptor) -> IntField:
    """The integer tables of a finite field, built on first use and kept."""
    T = _INT_FIELDS.get(K)
    if T is None:
        T = _INT_FIELDS[K] = IntField(K)
    return T


def ring(K: FieldDescriptor, work: int | float) -> IntField | FieldDescriptor:
    """The ring to compute in K for a task of about `work` element
    operations: `int_field(K)` when its tables are already built or K has
    at most `work` elements, else K itself, whose FieldElement operations
    need no O(q) set-up. Over Q always K."""
    T = _INT_FIELDS.get(K)
    if T is None and K.is_finite and K.order <= work:
        T = int_field(K)
    return K if T is None else T


def frobenius(a: FieldElement) -> FieldElement:
    """The map x -> x^p on a finite field."""
    if not a.field.is_finite:
        raise InfiniteFieldError("Frobenius endomorphism needs a finite field")
    return a ** a.field.p


def element_str(a: FieldElement) -> str:
    """Canonical text form: "c" or "c/d" for rationals, "[c0,c1,...]" with
    trailing zeros trimmed for finite-field coefficient vectors."""
    if a.field.p is None:
        v = a.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    vec = list(a.value)
    while len(vec) > 1 and vec[-1] == 0:
        vec.pop()
    return "[" + ",".join(str(c) for c in vec) + "]"


def parse_element(text: str, field: FieldDescriptor) -> FieldElement:
    """Parse the canonical element forms; bare integers and "c/d" embed into
    finite fields through the characteristic map."""
    text = text.strip()
    if text.startswith("["):
        if not field.is_finite:
            raise FieldSpecError("coefficient-vector syntax is only for finite fields")
        body = text.strip("[]")
        coeffs = [_read_int(c) for c in body.split(",")] if body else [0]
        if len(coeffs) > field.degree:
            raise FieldSpecError(
                f"vector of length {len(coeffs)} too long for degree {field.degree}"
            )
        return field.element(coeffs)
    if "/" in text:
        num, den = (_read_int(t) for t in text.split("/", 1))
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        frac = Fraction(num, den)
        if field.is_finite and frac.denominator % field.p == 0:
            raise ZeroDivisionError(f"denominator {frac.denominator} vanishes in {field.spec()}")
        return field.element(frac)
    try:
        return field.element(_read_int(text))
    except ValueError:
        raise FieldSpecError(f"malformed element {text!r}") from None


RATIONALS = FieldDescriptor(None, None)
