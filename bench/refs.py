"""Reference answers computed by the benchmark's own code.

Nothing here calls into defifix: finite fields are rebuilt as integer
tables from the field's modulus, arithmetic maps are enumerated naively,
and polynomial equations are solved by exhaustive evaluation. Program
values are read only as data (`FieldElement.value`, `Term.coeffs`,
formula nodes), so a wrong answer from the program cannot leak into its
own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from defifix.formulas import And, Equal, Exists


class RefField:
    """F_{p^k} as the integers 0..q-1 in the program's enumeration order:
    index n has base-p digits equal to the coefficient vector, constant
    term first, so the prime subfield is 0..p-1."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = len(modulus) - 1
        self.q = p**self.k
        vecs = [self._digits(n) for n in range(self.q)]
        self.add = [[self._index([(a + b) % p for a, b in zip(u, v)]) for v in vecs] for u in vecs]
        self.mul = [[self._index(self._polymul(u, v, modulus)) for v in vecs] for u in vecs]

    @classmethod
    def of(cls, K) -> "RefField":
        return cls(K.p, tuple(K.modulus))

    def _digits(self, n: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(n % self.p)
            n //= self.p
        return out

    def _index(self, vec) -> int:
        return sum(c * self.p**i for i, c in enumerate(vec))

    def _polymul(self, u, v, modulus) -> list[int]:
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = (prod[i + j] + a * b) % p
        for d in range(len(prod) - 1, k - 1, -1):
            lead = prod[d]
            if lead:
                for i, c in enumerate(modulus):
                    prod[d - k + i] = (prod[d - k + i] - lead * c) % p
        return prod[:k]

    def index(self, element) -> int:
        """Index of a program FieldElement, read from its coefficient vector."""
        return self._index(element.value)

    def rational(self, q: Fraction) -> int:
        """Image of q under the characteristic map (prime-field index)."""
        return q.numerator * pow(q.denominator, -1, self.p) % self.p


# -- arithmetic maps ---------------------------------------------------------------


def ref_facts(F: RefField, elems: list[int]):
    """(ones, sums, products) over element positions, every ordered pair."""
    pos = {a: i for i, a in enumerate(elems)}
    ones = [i for i, a in enumerate(elems) if a == 1]
    sums, prods = [], []
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            k = pos.get(F.add[a][b])
            if k is not None:
                sums.append((i, j, k))
            k = pos.get(F.mul[a][b])
            if k is not None:
                prods.append((i, j, k))
    return ones, sums, prods


def is_arithmetic(F: RefField, elems: list[int], values: list[int]) -> bool:
    ones, sums, prods = ref_facts(F, elems)
    if any(values[i] != 1 for i in ones):
        return False
    if any(F.add[values[i]][values[j]] != values[k] for i, j, k in sums):
        return False
    return all(F.mul[values[i]][values[j]] == values[k] for i, j, k in prods)


def naive_maps(F: RefField, elems: list[int]) -> list[tuple[int, ...]]:
    """Every arithmetic map on `elems`, as value tuples in `elems` order.

    Plain backtracking: positions take every value in turn and each fact
    is tested once all three of its positions hold a value. No
    propagation, so it shares no logic with the program's map search.
    """
    ones, sums, prods = ref_facts(F, elems)
    n = len(elems)
    facts = [(F.add,) + t for t in sums] + [(F.mul,) + t for t in prods]
    # placing well-connected positions first lets facts prune early; the
    # set of maps does not depend on the order
    order: list[int] = sorted(set(ones))
    while len(order) < n:
        placed = set(order)
        order.append(max(
            (i for i in range(n) if i not in placed),
            key=lambda i: sum(1 for t in facts if i in t[1:] and set(t[1:]) - {i} <= placed),
        ))
    rank = {pos: r for r, pos in enumerate(order)}
    due: list[list] = [[] for _ in range(n)]
    for t in facts:
        due[max(rank[i] for i in t[1:])].append(t)
    one_at = set(ones)
    vals = [0] * n
    out = []

    def place(r: int):
        if r == n:
            out.append(tuple(vals))
            return
        pos = order[r]
        for v in ([1] if pos in one_at else range(F.q)):
            vals[pos] = v
            if all(table[vals[i]][vals[j]] == vals[k] for table, i, j, k in due[r]):
                place(r + 1)

    place(0)
    return out


def component(F: RefField, elems: list[int], target: int) -> list[int]:
    """Elements linked to `target` through facts; a map's value at the
    target depends on these alone, since facts only tie linked elements."""
    ones, sums, prods = ref_facts(F, elems)
    links: dict[int, set[int]] = {i: set() for i in range(len(elems))}
    for tri in sums + prods:
        for i in tri:
            links[i].update(tri)
    start = elems.index(target)
    seen, todo = {start}, [start]
    while todo:
        for j in links[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return [elems[i] for i in sorted(seen)]


def pins(F: RefField, elems: list[int], target: int) -> bool:
    """True when every arithmetic map on `elems` fixes `target`."""
    part = component(F, elems, target)
    t = part.index(target)
    return all(m[t] == target for m in naive_maps(F, part))


# -- polynomial equations over F_p ----------------------------------------------------


def _coeff_mod(c, p: int) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _reduced(poly: dict, term, sign: int, names: list[str], p: int):
    # x^e and x^(e mod (p-1), but >= 1) agree as functions on F_p
    for mono, c in term.coeffs:
        key = [0] * len(names)
        for v, e in mono:
            key[names.index(v)] = (e - 1) % (p - 1) + 1
        key = tuple(key)
        poly[key] = (poly.get(key, 0) + sign * _coeff_mod(c, p)) % p


def _table(poly: dict, m: int, p: int) -> list[int]:
    """Values of `poly` at all p^m points; point n has coordinate i equal
    to the i-th base-p digit of n."""
    size = p**m
    powers = [[pow(a, e, p) if e else 1 for a in range(p)] for e in range(p)]
    terms = [(key, c) for key, c in poly.items() if c]
    if len(terms) < m * p:
        points = list(itertools.product(range(p), repeat=m))
        out = [0] * size
        for n, pt in enumerate(points):
            # itertools varies the last coordinate fastest; flip to digits
            total = 0
            for key, c in terms:
                v = c
                for i, e in enumerate(key):
                    if e:
                        v = v * powers[e][pt[m - 1 - i]] % p
                total += v
            out[n] = total % p
        return out
    # dense coefficients, then one Vandermonde pass per variable
    table = [0] * size
    for key, c in terms:
        table[sum(e * p**i for i, e in enumerate(key))] = c
    vander = [[powers[e][a] for e in range(p)] for a in range(p)]
    for axis in range(m):
        stride = p**axis
        for base in range(size):
            if (base // stride) % p:
                continue
            fiber = [table[base + e * stride] for e in range(p)]
            for a in range(p):
                row = vander[a]
                table[base + a * stride] = sum(row[e] * fiber[e] for e in range(p)) % p
    return table


def prime_definable_set(f, p: int, free: str) -> set[int]:
    """{a in F_p : f holds at free=a} for f an existential closure of a
    conjunction of polynomial equations, by evaluating every point."""
    bound = []
    while isinstance(f, Exists):
        bound.append(f.var)
        f = f.body
    eqs = list(f.parts) if isinstance(f, And) else [f]
    if not all(isinstance(e, Equal) for e in eqs):
        raise ValueError("expected a conjunction of equations")
    names = [free] + bound
    m = len(names)
    alive = [True] * p**m
    for eq in eqs:
        poly: dict = {}
        _reduced(poly, eq.lhs, 1, names, p)
        _reduced(poly, eq.rhs, -1, names, p)
        for n, v in enumerate(_table(poly, m, p)):
            if v:
                alive[n] = False
    return {n % p for n, ok in enumerate(alive) if ok}


# -- curves ----------------------------------------------------------------------------


def curve_abscissas(g, p: int) -> list[int]:
    """{u in F_p : g(u, s) = 0 for some s}, ascending."""
    def value(u, s):
        total = 0
        for mono, c in g.coeffs:
            v = _coeff_mod(c, p)
            for var, e in mono:
                v = v * pow(u if var == "x" else s, e, p)
            total += v
        return total % p

    return [u for u in range(p) if any(value(u, s) == 0 for s in range(p))]


def elementary_symmetric(values: list[int], p: int) -> list[int]:
    """[e_1, ..., e_n] of the values, mod p."""
    e = [1] + [0] * len(values)
    for v in values:
        for i in range(len(values), 0, -1):
            e[i] = (e[i] + e[i - 1] * v) % p
    return e[1:]
