"""Arithmetic maps and arithmetic neighbourhoods.

A map f: A -> K on a finite subset A of a field K is arithmetic when
f(1)=1 if 1 is in A, f(a+b)=f(a)+f(b) whenever a, b, a+b all lie in A,
and f(a*b)=f(a)*f(b) likewise. A is an arithmetic neighbourhood of r in A
when every arithmetic map on A fixes r.

Over a finite field the decision is exact. The relation triples holding
inside A are found by one scan (`_scan`) that tests each unordered pair
once, in the ring `fields.ring` picks for the |A|^2 pairs: the field's
integer kernel when its tables are built (the decision builds them
first, since its search needs them) or no larger, else the field's own
FieldElements, so certifying or compiling a few elements of a large
field builds no O(q) tables. `fact_system` is the one place that decides
which facts are written down, as a constraint system with one variable
per element whose solutions are exactly the arithmetic maps; the
compiler writes the same atoms as formulas. Its scan never tests a pair
whose fact f(1) = 1 and f(0) = 0 imply; `facts`, the complete table in
both orders, is the same scan with nothing skipped. Maps, decisions
and certificates are runs of the engine (`engine`) on that system: the
maps are its solutions, the decision enumerates only the target's
component (`ConstraintSearch.split`), and over any field the one-sided
certificate is the part of its root propagation that reads no values
(`forced_variables`), so a certified target is set at the root.
Over Q, `facts` narrows the pairs it tests by their residues modulo a
prime, so a large set costs one C-level pass per element, not exact
arithmetic per pair. The fixed subfield of a finite field K is read off
the maps on A = K, computed with no search as evaluation at the roots of
K's modulus, the conjugates x^(p^i) of its variable (`automorphisms`),
the same maps in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from typing import Container, Iterator, Sequence

from .engine import (
    ConstraintSearch,
    ConstraintSystem,
    One,
    Plus,
    ThreeAddressAtom,
    Times,
    forced_variables,
)
from .errors import CapExceededError, FieldMismatchError, InfiniteFieldError
from .fields import (
    FieldDescriptor,
    FieldElement,
    IntField,
    element_str,
    int_field,
    ring,
)

DEFAULT_MAP_CAP = 10**6


@dataclass(frozen=True)
class Neighbourhood:
    field: FieldDescriptor
    elements: tuple[FieldElement, ...]
    target_index: int

    def __post_init__(self):
        if not 0 <= self.target_index < len(self.elements):
            raise ValueError("distinguished index out of range")
        seen = set()
        for a in self.elements:
            if a.field != self.field:
                raise FieldMismatchError(
                    f"element of {a.field.spec()} in a {self.field.spec()} neighbourhood"
                )
            if a in seen:
                raise ValueError(f"duplicate element {element_str(a)}")
            seen.add(a)

    @property
    def r(self) -> FieldElement:
        return self.elements[self.target_index]

    def to_json(self) -> dict:
        return {
            "field": self.field.spec(),
            "elements": [element_str(a) for a in self.elements],
            "target_index": self.target_index,
        }


def neighbourhood(field: FieldDescriptor, elements, target: FieldElement) -> Neighbourhood:
    """Build a Neighbourhood from possibly-duplicated elements (first
    occurrence wins) and a distinguished element that must be among them."""
    out: list[FieldElement] = []
    seen = set()
    for a in elements:
        a = field.element(a)
        if a not in seen:
            seen.add(a)
            out.append(a)
    target = field.element(target)
    if target not in seen:
        raise ValueError(f"target {element_str(target)} not among the elements")
    return Neighbourhood(field, tuple(out), out.index(target))


@dataclass(frozen=True)
class FactSet:
    """Complete relation triples inside A, by element index: every
    satisfied instance a_i + a_j = a_k and a_i * a_j = a_k over ordered
    pairs (i, j), plus the indices of 1."""

    ones: frozenset[int]
    sums: frozenset[tuple[int, int, int]]
    products: frozenset[tuple[int, int, int]]


# residues of rationals modulo this prime pick the pairs worth testing over
# Q; the largest prime below 2^30, so a residue is a one-digit Python int
_RESIDUE_PRIME = (1 << 30) - 35


def _tails(n: int, skip: Container[int]) -> Iterator[Sequence[int]]:
    """For each i < n in turn, the j >= i outside skip; none for i in skip."""
    kept = [j for j in range(n) if j not in skip]
    t = 0
    for i in range(n):
        if i in skip:
            yield ()
        else:
            yield kept[t:]
            t += 1


def _pair_candidates(
    A: Neighbourhood, no_sum: Container[int], no_product: Container[int]
) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
    """For each index i in turn, i with the indices j >= i to test as
    a_i + a_j and as a_i * a_j (both commute, so (j, i) gives the same
    triple), leaving out every pair with a place in no_sum, respectively
    no_product: every other one over a finite field.  Over Q only the j
    whose residue modulo a 30-bit prime makes the sum or product land on
    some element's residue, found by C-level map and set intersection over
    the rest of the row of residues; a collision only costs one exact
    test.  An element whose denominator the prime divides sends Q to the
    full scan."""
    n = len(A.elements)
    P = _RESIDUE_PRIME
    if A.field.is_finite or any(a.value.denominator % P == 0 for a in A.elements):
        yield from zip(range(n), _tails(n, no_sum), _tails(n, no_product))
        return
    res = [a.value.numerator * pow(a.value.denominator, -1, P) % P for a in A.elements]
    by_res: dict[int, list[int]] = {}
    for j, r in enumerate(res):
        by_res.setdefault(r, []).append(j)
    landing = set(by_res)
    sum_landing = landing | {r + P for r in landing}  # a sum of residues is below 2P
    for i, ri in enumerate(res):
        row = res[i:]
        sum_js: Sequence[int] = ()
        if i not in no_sum:
            sums = sum_landing.intersection(map(ri.__add__, row))
            sum_js = [j for s in sums for j in by_res[(s - ri) % P] if j >= i and j not in no_sum]
        if i in no_product:
            yield i, sum_js, ()
        elif not ri:
            yield i, sum_js, [j for j in range(i, n) if j not in no_product]
        else:
            inv = pow(ri, -1, P)
            products = landing.intersection(map(P.__rmod__, map(ri.__mul__, row)))
            yield i, sum_js, [
                j for h in products for j in by_res[h * inv % P] if j >= i and j not in no_product
            ]


def _scan(
    A: Neighbourhood, pruned: bool
) -> tuple[int | None, list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """The one pass over the pairs of A: the index of 1 (None when 1 is not
    in A) and the sum and product triples (i, j, k), i <= j, each tested
    exactly on the pairs `_pair_candidates` offers, in the ring
    `ring(K, |A|^2)`: the integer kernel when its tables are built or cost
    no more than the |A|^2 pairs, else K's own FieldElements (always so
    over Q), so a small set in a large field never pays for the whole
    field's tables.  When pruned, no pair is tested whose fact f(1) = 1 and
    f(0) = 0 imply: no sum with a summand 0, no product with a factor 0 or
    1; 0 + 0 = 0, which pins f(0) = 0, is written without a test."""
    R = ring(A.field, len(A.elements) ** 2)
    values = [R.index(a) for a in A.elements]
    add, mul = R.add, R.mul
    index = {a: i for i, a in enumerate(values)}
    zero, one = index.get(R.coeff(0)), index.get(R.coeff(1))
    sums: list[tuple[int, int, int]] = []
    products: list[tuple[int, int, int]] = []
    no_sum: Container[int] = ()
    no_product: Container[int] = ()
    if pruned:
        no_sum, no_product = {zero}, {zero, one}
        if zero is not None:
            sums.append((zero, zero, zero))
    for i, sum_js, product_js in _pair_candidates(A, no_sum, no_product):
        a = values[i]
        for j in sum_js:
            k = index.get(add(a, values[j]))
            if k is not None:
                sums.append((i, j, k))
        for j in product_js:
            k = index.get(mul(a, values[j]))
            if k is not None:
                products.append((i, j, k))
    return one, sums, products


def facts(A: Neighbourhood) -> FactSet:
    """Every sum and product triple inside A, in both orders: the unpruned
    `_scan`, the same pass over the pairs that `fact_system` makes, with
    no pair skipped."""
    one, sums, products = _scan(A, pruned=False)
    return FactSet(
        frozenset(() if one is None else (one,)),
        frozenset(sums + [(j, i, k) for i, j, k in sums]),
        frozenset(products + [(j, i, k) for i, j, k in products]),
    )


@dataclass(frozen=True)
class ArithmeticMap:
    domain: tuple[FieldElement, ...]
    values: tuple[FieldElement, ...]

    def __call__(self, a: FieldElement) -> FieldElement:
        return self.values[self.domain.index(a)]

    @property
    def is_identity(self) -> bool:
        return self.domain == self.values

    def as_pairs(self) -> list[list[str]]:
        return [[element_str(a), element_str(v)] for a, v in zip(self.domain, self.values)]


def fact_system(A: Neighbourhood) -> ConstraintSystem:
    """A's facts as a constraint system with one variable per element of A
    (named by its element string): its solutions are the arithmetic maps
    on A, and its free variable is the distinguished element.

    This is the one place that decides which facts are written down: the
    ones, then the sums, then the products, each in sorted order.  A sum or
    product is written once, as (i, j, k) with i <= j, and left out when
    f(1) = 1 and f(0) = 0 already imply it: a sum with a summand 0 (other
    than 0 + 0 = 0, which is what pins f(0) = 0) and a product with a
    factor 0 or 1.  The pruned atoms hold under every map the kept ones
    force, so the solutions are those of the full fact list.  The pruned
    `_scan` never tests the pairs it leaves out; `facts` is the same scan
    with nothing skipped."""
    one, sums, products = _scan(A, pruned=True)
    sums.sort()
    products.sort()
    atoms: list[ThreeAddressAtom] = [] if one is None else [One(one)]
    atoms += starmap(Plus, sums)
    atoms += starmap(Times, products)
    names = tuple(element_str(a) for a in A.elements)
    return ConstraintSystem(names, tuple(atoms), A.target_index)


def _map_search(A: Neighbourhood) -> ConstraintSearch:
    """The search over `fact_system(A)` on the integer kernel of A's
    field: its solutions are the value tuples of the total arithmetic maps
    on A as ints, in lexicographic order (A's order, field enumeration
    order per slot)."""
    if not A.field.is_finite:
        raise InfiniteFieldError("map enumeration needs a finite field")
    int_field(A.field)  # the search needs the tables, so facts may use them
    return ConstraintSearch(fact_system(A), A.field)


def _capped(solutions: Iterator[Sequence[int]], cap: int) -> Iterator[Sequence[int]]:
    """The solutions as read, raising CapExceededError on the one after
    the first cap."""
    for count, vals in enumerate(solutions, 1):
        if count > cap:
            raise CapExceededError(f"more than {cap} arithmetic maps")
        yield vals


def _arithmetic_map(A: Neighbourhood, T: IntField, vals: tuple[int, ...]) -> ArithmeticMap:
    return ArithmeticMap(A.elements, tuple(T.element(v) for v in vals))


def enumerate_arithmetic_maps(A: Neighbourhood, cap: int = DEFAULT_MAP_CAP) -> list[ArithmeticMap]:
    """All total arithmetic maps on A, deterministically ordered; the cap
    counts the maps."""
    search = _map_search(A)
    return [_arithmetic_map(A, search.kernel, vals) for vals in _capped(search.solutions(), cap)]


@dataclass(frozen=True)
class Decision:
    yes: bool
    witness: ArithmeticMap | None = None

    def __bool__(self) -> bool:
        return self.yes


def is_neighbourhood(A: Neighbourhood, cap: int = DEFAULT_MAP_CAP) -> Decision:
    """Exact decision over a finite field: Yes iff every arithmetic map on
    A fixes the distinguished element; otherwise No with the first
    violating map (in the order of `enumerate_arithmetic_maps`) as witness.

    It reads only what decides the answer. A target set at the search
    root is a Yes with no search: the identity is an arithmetic map, so a
    value forced there is the target itself. Otherwise the target is
    split off (`ConstraintSearch.split`, the same split that `projection`
    makes for a free variable): one search sets every other unset
    variable to its value in the first map, and only the target's
    component is enumerated from that state. The maps are the product of
    the components' solutions, and the first point of a product is the
    first point of each factor, so the first moving map found this way is
    the first moving map of all. The cap counts the target-component maps
    read; a root-forced decision reads none."""
    search = _map_search(A)
    ri = A.target_index
    if search.root[ri] >= 0:
        return Decision(True)
    state = search.split(ri)
    T = search.kernel
    r = T.index(A.r)
    for vals in _capped(search.solutions(start=state), cap):
        if vals[ri] != r:
            return Decision(False, _arithmetic_map(A, T, vals))
    return Decision(True)


def certify_by_propagation(A: Neighbourhood) -> bool:
    """Sound one-sided check valid over any field: True (Certified) only
    when the facts force f(r)=r. False means Unknown, not refuted.

    This is `forced_variables(fact_system(A))`, the part of the engine's
    root propagation that reads no values. It is sound: the identity on A
    is an arithmetic map, so every forced value is the element itself, and
    the fact system has no product with a factor 0. Over a finite field
    the root can set more, since the characteristic solves a + a = k or
    a * a = k there (1/2 + 1/2 = 1 stays Unknown over Q)."""
    return A.target_index in forced_variables(fact_system(A))


# -- combinators -----------------------------------------------------------------


def combine(kind: str, *inputs: Neighbourhood, field: FieldDescriptor | None = None) -> Neighbourhood:
    """Closure steps: zero, one (no inputs, field required), neg, inv (one
    input), add, mul (two inputs). The output set is the new distinguished
    element(s) followed by the input sets, duplicates merged keeping the
    first occurrence."""
    if kind in ("zero", "one"):
        if inputs or field is None:
            raise ValueError(f"{kind} takes no inputs and an explicit field")
        a = field.zero() if kind == "zero" else field.one()
        return neighbourhood(field, [a], a)
    if kind in ("neg", "inv"):
        if len(inputs) != 1:
            raise ValueError(f"{kind} takes exactly one input")
        (A,) = inputs
        if kind == "neg":
            unit, target = A.field.zero(), -A.r
        else:
            unit, target = A.field.one(), A.r.inverse()
        return neighbourhood(A.field, [unit, target, *A.elements], target)
    if kind in ("add", "mul"):
        if len(inputs) != 2:
            raise ValueError(f"{kind} takes exactly two inputs")
        A, B = inputs
        if A.field != B.field:
            raise FieldMismatchError("combining neighbourhoods over different fields")
        r = A.r + B.r if kind == "add" else A.r * B.r
        return neighbourhood(A.field, [r] + list(A.elements) + list(B.elements), r)
    raise ValueError(f"unknown combinator {kind!r}")


def nbhd_rational(q, K: FieldDescriptor) -> Neighbourhood:
    """A neighbourhood of the image of the rational q in K, built from the
    closure combinators with binary doubling (O(log) size), the doubling
    chains of the integers done in one pass each. In characteristic p the
    denominator must be invertible. A string is an ASCII fraction such as
    "5/3" or "1.5", without `_`."""
    if isinstance(q, float):
        raise TypeError(f"{q!r} is a float; give an int, a Fraction or a string")
    if isinstance(q, str) and (not q.isascii() or "_" in q):
        # Fraction also reads Unicode digits and `_`; numbers here are ASCII
        raise ValueError(f"Invalid literal for Fraction: {q!r}")
    try:
        q = Fraction(q)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {q!r}") from None
    c, d = q.numerator, q.denominator
    if K.is_finite and d % K.p == 0:
        raise ZeroDivisionError(f"denominator {d} vanishes in {K.spec()}")
    if c == 0:
        return combine("zero", field=K)

    def ints(n: int) -> Neighbourhood:
        # n >= 1 by doubling along the bits of n from the top: k -> 2k, then
        # 2k + 1 on a set bit.  Each step of add(A(k), A(k)) and
        # add(A(2k), A(1)) puts its new value first, so the set is the
        # produced values newest first, first occurrence winning.
        values = [1]
        for bit in bin(n)[3:]:
            values.append(2 * values[-1])
            if bit == "1":
                values.append(values[-1] + 1)
        return neighbourhood(K, reversed(values), values[-1])

    if c == 1 and d > 1:
        return combine("inv", ints(d))
    num = ints(abs(c))
    if c < 0:
        num = combine("neg", num)
    if d == 1:
        return num
    return combine("mul", num, combine("inv", ints(d)))


def automorphisms(K: FieldDescriptor) -> Iterator[list[int]]:
    """The arithmetic maps on A = K, the automorphisms of the finite field
    K, each as its list of images in `IntField` index order, in the
    lexicographic order the map search yields them.

    On A = K an arithmetic map f is a ring map, so it fixes 1 and with it
    F_p, the indices below p. Index a is (a % p) + x * (a // p), x being
    index p, the class of the modulus's variable, which generates K over
    F_p. So f is fixed by v = f(x): by Horner's rule it sends a to
    s(a) = (a % p) + v * s(a // p), with s(c) = c for c < p. The modulus
    m has m(x) = 0, so m(v) = f(m(x)) = 0. Conversely, evaluation at any
    root of the irreducible m is an automorphism, so it keeps every fact
    of K. The k roots of m are the conjugates x^(p^i), i < k, the images
    of x under the powers of Frobenius. The maps first differ at x = p,
    where s has v, so the roots in index order give the maps in
    lexicographic order. A prime field has the one map s(c) = c: the
    identity, whatever its degree-1 modulus (x is taken as 0 there)."""
    T = int_field(K)
    p, add, mul = T.p, T.add, T.mul
    x = p if K.degree > 1 else 0
    for v in sorted(T.pow(x, p**i) for i in range(K.degree)):
        images = list(range(p))
        for a in range(p, T.q):
            images.append(add(a % p, mul(v, images[a // p])))
        yield images


def fixed_subfield(K: FieldDescriptor, cap: int = DEFAULT_MAP_CAP) -> set[FieldElement]:
    """The arithmetically fixed elements of a finite field: the elements
    every arithmetic map on A = K fixes. The maps are `automorphisms(K)`,
    those the search over the fact system of A = K yields, in the same
    order, so the cap counts them as `enumerate_arithmetic_maps` would."""
    if not K.is_finite:
        raise InfiniteFieldError("fixed-subfield computation needs a finite field")
    T = int_field(K)
    fixed = range(T.q)
    for images in _capped(automorphisms(K), cap):
        fixed = [i for i in fixed if images[i] == i]
    return {T.element(i) for i in fixed}
