"""Symmetric values of a plane curve's abscissas, with a constructed
neighbourhood certifying each of them.

Given g(x,y) over a finite field, the abscissa set P collects every u with a
partner s on the curve.  The elementary symmetric values t_k of P acquire an
explicit neighbourhood: the coefficient heights and exponents of g bound a
rational grid W(m), the grid scales monomials in each point into a set N,
k-fold products of distinct abscissas form M_k, and a sum closure over these
plus the abscissa differences and their inverses assembles the candidate
set.  Every arithmetic map on the result is then pinned on W(m), sends
abscissas to abscissas injectively, and so fixes each t_k.

The assembly stops once the set holds all of K, which most curves reach
within their first point's grid-scaled monomials, so their 2^n - 1
products are never built, and the products cap is never consulted.  On
such a closure, A = K, the arithmetic maps are the automorphisms of K
(`neighbourhood.automorphisms`), read without a search; a smaller closure
has its maps searched.

Each abscissa is paired with its first partner in O(q) evaluations when
g separates as a(y) + b(x), from a table of a's values; a g with a
monomial in both x and y is scanned at up to q^2 points.  W(m) is built
once per height.  The partner search and the whole closure construction
run on the element indices of the field's integer kernel
(`fields.int_field`), with g compiled once (`Term.compile`). The on-curve
check of `CurveData` runs in `fields.ring(K, n)`, so n points given by
hand in a large field do not tabulate it. Points, closure elements,
targets and the grid image become FieldElements only in `CurveData` and
`ClosureRecipe`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations
from math import prod

from .errors import CapExceededError, InfiniteFieldError
from .fields import FieldDescriptor, FieldElement, element_str, int_field, ring
from .formulas import Equal, Exists, Formula, Not, conj
from .neighbourhood import (
    DEFAULT_MAP_CAP,
    Neighbourhood,
    _capped,
    automorphisms,
    enumerate_arithmetic_maps,
)
from .terms import Term

DEFAULT_CLOSURE_CAP = 10**6


def _first_partners(g: Term, K: FieldDescriptor) -> list[tuple[int, int]]:
    """(u, s) as element indices of `int_field(K)`, s the first partner of u
    in enumeration order, for every abscissa u of g = 0 in enumeration
    order.

    A g with no monomial in both x and y is a(y) + b(x), and g(u, s) = 0
    exactly when a(s) = -b(u). So a is evaluated once at every s, keeping
    the first s for each value, and each u costs one evaluation of b and
    one lookup: 2q evaluations. Any other g is scanned at up to q^2
    points. g is first evaluated at (0, 0), the scan's first point, so an
    undefined coefficient or a variable besides x and y raises the same
    `EvaluationError` on either path."""
    if not K.is_finite:
        raise InfiniteFieldError("abscissa scan needs a finite field")
    T = int_field(K)
    g_at = g.compile(T)
    g_at({"x": 0, "y": 0})
    in_y, in_x = [], []
    for mono, c in g.coeffs:
        names = {v for v, _ in mono}
        if names == {"x", "y"}:
            return _scanned_partners(g_at, T.q)
        (in_x if "x" in names else in_y).append((mono, c))
    a_at, b_at = Term(tuple(in_y)).compile(T), Term(tuple(in_x)).compile(T)
    first: dict[int, int] = {}
    for s in range(T.q):
        first.setdefault(a_at({"y": s}), s)
    neg = T.neg
    return [(u, first[v]) for u in range(T.q) if (v := neg[b_at({"x": u})]) in first]


def _scanned_partners(g_at, q: int) -> list[tuple[int, int]]:
    """`_first_partners` by evaluating the compiled g at up to q^2 points."""
    out = []
    for u in range(q):
        for s in range(q):
            if g_at({"x": u, "y": s}) == 0:
                out.append((u, s))
                break
    return out


def abscissa_set(g: Term, K: FieldDescriptor) -> list[FieldElement]:
    """{u : some s has g(u,s)=0}, in field enumeration order."""
    points = _first_partners(g, K)
    element = int_field(K).element
    return [element(u) for u, _ in points]


def coefficient_table(g: Term) -> tuple[int, dict]:
    """Minimal m with every coefficient c/d satisfying |c|,|d| <= m and every
    exponent <= m, plus the full {0..m}x{0..m} coefficient table."""
    if g.is_zero:
        raise ValueError("the zero polynomial has no coefficient table")
    extra = g.free_variables() - {"x", "y"}
    if extra:
        raise ValueError(f"expected a curve in x and y, found {sorted(extra)}")
    m = 1
    entries = {}
    for mono, c in g.as_dict().items():
        powers = dict(mono)
        i = powers.get("x", 0)
        j = powers.get("y", 0)
        frac = Fraction(c)
        m = max(m, i, j, abs(frac.numerator), abs(frac.denominator))
        entries[(i, j)] = c
    h = {(i, j): entries.get((i, j), 0) for i in range(m + 1) for j in range(m + 1)}
    return m, h


@cache
def w_set(m: int) -> tuple[Fraction, ...]:
    """0 together with all c/d for c,d in +-{1..m}, ascending; built once
    per m."""
    out = {Fraction(0)}
    for c in range(1, m + 1):
        for d in range(1, m + 1):
            out.add(Fraction(c, d))
            out.add(Fraction(-c, d))
    return tuple(sorted(out))


def elementary_symmetric(k: int, values) -> FieldElement:
    """Sum of all k-fold products of distinct entries, by the product
    recurrence."""
    values = list(values)
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    return _symmetric_values(values, values[0].field)[k - 1]


def _symmetric_values(values, R) -> list:
    """[t_1, ..., t_n] of values of the ring R (`fields.ring`), by the
    product recurrence."""
    add, mul = R.add, R.mul
    e = [R.coeff(1)] + [R.coeff(0)] * len(values)
    for v in values:
        for i in range(len(values), 0, -1):
            e[i] = add(e[i], mul(e[i - 1], v))
    return e[1:]


@dataclass(frozen=True)
class CurveData:
    """A curve over a finite carrier with its abscissas and witnesses.

    Solvable only when the characteristic exceeds the height bound m, so
    that every W(m) denominator stays invertible.
    """

    g: Term
    field: FieldDescriptor
    m: int
    h: dict
    abscissas: tuple[FieldElement, ...]
    witnesses: tuple[FieldElement, ...]

    def __post_init__(self):
        if self.field.characteristic <= self.m:
            raise ValueError(f"need characteristic > {self.m}")
        if len(set(self.abscissas)) != len(self.abscissas):
            raise ValueError("abscissas must be pairwise distinct")
        if len(self.witnesses) != len(self.abscissas):
            raise ValueError("one witness per abscissa")
        # `build` has made the tables already; a few points given by hand
        # in a large field are checked on FieldElements instead
        R = ring(self.field, self.n)
        g_at, zero = self.g.compile(R), R.coeff(0)
        for u, z in zip(self.abscissas, self.witnesses):
            if g_at({"x": R.index(u), "y": R.index(z)}) != zero:
                raise ValueError(f"({element_str(u)}, {element_str(z)}) is not on the curve")

    @classmethod
    def build(cls, g: Term, K: FieldDescriptor) -> "CurveData":
        if not K.is_finite:
            raise InfiniteFieldError("curve data needs a finite field")
        m, h = coefficient_table(g)
        if K.characteristic <= m:
            raise ValueError(f"need characteristic > {m}")
        points = _first_partners(g, K)
        if not points:
            raise ValueError("the curve has no points over this field")
        element = int_field(K).element
        abscissas, witnesses = (tuple(map(element, col)) for col in zip(*points))
        return cls(g, K, m, h, abscissas, witnesses)

    @property
    def n(self) -> int:
        return len(self.abscissas)

    def to_json(self) -> dict:
        return {
            "g": str(self.g),
            "field": self.field.spec(),
            "m": self.m,
            "h": [
                [i, j, str(self.h[(i, j)])]
                for (i, j) in sorted(self.h)
                if self.h[(i, j)] != 0
            ],
            "abscissas": [element_str(u) for u in self.abscissas],
            "witnesses": [element_str(z) for z in self.witnesses],
        }


@dataclass(frozen=True)
class ClosureRecipe:
    """The assembled candidate set with its targets and the image of W(m)."""

    mode: str
    elements: tuple[FieldElement, ...]
    targets: tuple[FieldElement, ...]
    w_image: tuple[FieldElement, ...]

    def neighbourhood(self, k: int) -> Neighbourhood:
        """The candidate set distinguished at t_k."""
        target = self.targets[k - 1]
        if target not in self.elements:
            raise ValueError(f"t_{k} fell outside the closure")
        return Neighbourhood(
            self.targets[0].field, self.elements, self.elements.index(target)
        )

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "size": len(self.elements),
            "elements": [element_str(a) for a in self.elements],
            "targets": [element_str(t) for t in self.targets],
        }


def _first_distinct(rows, q: int) -> list[int]:
    """The values of rows in order, first occurrences only, reading rows
    only until q distinct values are found: in a field of q elements no
    later value can be new."""
    seen: dict[int, None] = {}
    for row in rows:
        seen.update(dict.fromkeys(row))
        if len(seen) == q:
            break
    return list(seen)


def _subset_sums(block: list[int], add, cap: int):
    """The sums of the non-empty subsets of block in mask order (bit i
    stands for block[i]), as one row per block value: the masks with top
    bit i are those below 2^i with block[i] added. A row that would take
    the count of sums built past cap raises instead, so a reader that
    stops early (once the closure holds all of K) never meets the cap."""
    sums = [0]
    for b in block:
        if 2 * len(sums) - 1 > cap:
            raise CapExceededError(f"{len(block)} block values give more than {cap} subset sums")
        row = [add(s, b) for s in sums]
        yield row
        sums += row


def build_closure(
    c: CurveData, mode: str = "prefix", cap: int = DEFAULT_CLOSURE_CAP
) -> ClosureRecipe:
    """Assemble the neighbourhood candidate for every symmetric value.

    mode="paper" keeps the literal construction: all non-empty subset sums
    of the block values (exponential, so the sums read before the closure
    holds all of K must stay within cap).  mode="prefix" keeps only the
    prefix sums of each point's monomial sequence and of each product list
    M_k — linear-size, and still forcing: each prefix chain pins the next
    partial sum by induction, and any superset of a neighbourhood is one.
    Both modes read the 2^n - 1 products of distinct abscissas, so n must
    stay within log2(cap) too when the closure needs them; that is checked
    before any product is built.

    The candidates are read as one stream, first occurrence winning, and
    the stream stops once the closure holds all of K: nothing after that
    can change the set or its order.  So a curve whose grid-scaled
    monomials already fill K never builds its products or subset sums,
    and no number of abscissas makes it exceed the products cap.
    All of it runs on the element indices of `int_field`; only the
    recipe's elements, targets and grid image are made FieldElements.
    """
    if mode not in ("paper", "prefix"):
        raise ValueError(f"unknown mode {mode!r}")
    n = c.n
    T = int_field(c.field)
    add, mul, power = T.add, T.mul, T.pow
    u = [T.index(a) for a in c.abscissas]
    z = [T.index(a) for a in c.witnesses]
    w_image = list(dict.fromkeys(map(T.coeff, w_set(c.m))))
    span = range(c.m + 1)

    @cache
    def monomials(kk: int) -> list[list[int]]:
        # u_k^i * z_k^j by i, then j
        return [[mul(power(u[kk], i), power(z[kk], j)) for j in span] for i in span]

    @cache
    def products() -> list[list[int]]:
        # M_1, ..., M_n: the products of k distinct abscissas; the product
        # over a mask is its lowest abscissa times the product over the rest
        if 2**n - 1 > cap:
            raise CapExceededError(f"{n} abscissas give more than {cap} products")
        by_mask = [1] * (1 << n)
        for mask in range(1, len(by_mask)):
            low = mask & -mask
            by_mask[mask] = mul(by_mask[mask ^ low], u[low.bit_length() - 1])
        return [
            [by_mask[sum(1 << i for i in combo)] for combo in combinations(range(n), kk + 1)]
            for kk in range(n)
        ]

    def block_rows():
        # the grid-scaled monomials of each point, then M_1, ..., M_n
        for kk in range(n):
            yield [mul(b, pw) for row in monomials(kk) for pw in row for b in w_image]
        yield from products()

    def prefix_sums():
        # of each point's monomial sequence under g's coefficients, then
        # of each M_k
        terms = [(i, j, T.coeff(c.h[(i, j)])) for i in span for j in span if c.h[(i, j)] != 0]
        for kk in range(n):
            point = monomials(kk)
            yield accumulate((mul(h, point[i][j]) for i, j, h in terms), add)
        for row in products():
            yield accumulate(row, add)

    def differences():
        d = [add(u[i], T.neg[u[j]]) for i in range(n) for j in range(n) if i != j]
        yield d
        yield [T.inv(a) for a in d]

    if mode == "paper":
        block = _first_distinct(block_rows(), T.q)
        rows = chain(_subset_sums(block, add, cap), differences())
    else:
        rows = chain([w_image], block_rows(), prefix_sums(), differences())
    assembled = _first_distinct(rows, T.q)
    if len(assembled) > cap:
        raise CapExceededError(f"closure size {len(assembled)} exceeds cap {cap}")

    element = T.element
    return ClosureRecipe(
        mode=mode,
        elements=tuple(map(element, assembled)),
        targets=tuple(map(element, _symmetric_values(u, T))),
        w_image=tuple(map(element, w_image)),
    )


def verify_closure(
    c: CurveData, recipe: ClosureRecipe, cap: int = DEFAULT_MAP_CAP
) -> dict:
    """Check the recipe end to end against every arithmetic map on it.

    Reports, per k, whether t_k lies in the closure and is fixed by every
    arithmetic map, plus the three intermediate claims: maps restrict to
    the identity on W(m)'s image, send abscissas into the abscissa set, and
    are injective on it.

    A closure that holds all of K reads its maps from
    `automorphisms(K)`: on A = K the arithmetic maps are the field's
    automorphisms, in the order the search would yield them.  A smaller
    closure has its maps searched (`enumerate_arithmetic_maps`).  Either
    way the cap counts the maps, and each map is read as element index to
    image index in `int_field`, so the checks run on ints.
    """
    T = int_field(c.field)
    closure = set(recipe.elements)
    if len(closure) == T.q:
        maps = list(_capped(automorphisms(c.field), cap))
    else:
        A = Neighbourhood(c.field, recipe.elements, 0)
        domain = [T.index(a) for a in A.elements]
        maps = [
            dict(zip(domain, map(T.index, f.values)))
            for f in enumerate_arithmetic_maps(A, cap=cap)
        ]
    w = [T.index(a) for a in recipe.w_image]
    u = [T.index(a) for a in c.abscissas]
    in_p = set(u)
    identity_on_w = all(f[a] == a for f in maps for a in w)
    into_p = all(f[uk] in in_p for f in maps for uk in u)
    injective = all(len({f[uk] for uk in u}) == len(u) for f in maps)
    per_k = []
    for k in range(1, c.n + 1):
        t = recipe.targets[k - 1]
        present = t in closure
        ti = T.index(t)
        fixed = present and all(f[ti] == ti for f in maps)
        per_k.append(
            {
                "k": k,
                "target": element_str(t),
                "in_closure": present,
                "is_neighbourhood": fixed,
            }
        )
    return {
        "mode": recipe.mode,
        "size": len(recipe.elements),
        "maps": len(maps),
        "identity_on_w_image": identity_on_w,
        "abscissas_into_abscissas": into_p,
        "injective_on_abscissas": injective,
        "per_k": per_k,
    }


def symmetric_value_formula(g: Term, n: int, k: int) -> Formula:
    """exists u1 s1 ... un sn: each (u_i, s_i) on the curve, abscissas
    pairwise distinct, and v = t_k(u_1,...,u_n)."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    us = [Term.variable(f"u{i}") for i in range(1, n + 1)]
    ss = [Term.variable(f"s{i}") for i in range(1, n + 1)]
    parts = [
        Equal(g.substitute({"x": us[i], "y": ss[i]}), Term.zero()) for i in range(n)
    ]
    parts += [
        Not(Equal(us[i], us[j])) for i in range(n) for j in range(i + 1, n)
    ]
    sym = Term.sum(prod(us[i] for i in combo) for combo in combinations(range(n), k))
    parts.append(Equal(Term.variable("v"), sym))
    f: Formula = conj(parts)
    for i in range(n, 0, -1):
        f = Exists(f"u{i}", Exists(f"s{i}", f))
    return f
