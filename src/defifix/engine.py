"""The one propagation and search engine, over systems of three-address
atoms x_i+x_j=x_k, x_i*x_j=x_k, x_i=1: formula systems, arithmetic maps
and certification all run on it.

`ConstraintSearch` solves a system over a finite field by propagation and
backtracking on the integer form of the field (`fields.IntField`), with
one depth-first loop. It enumerates every solution (`solve_system`, the
arithmetic-map search) or, per value of the free variable, stops at the
first witness and keeps it (`projection`). The solutions are the product
of the components the atoms join the unset variables into, so one
variable's component is split off once (`split`): one search sets the
other components to their first solution, and only that component is
searched from there, so a component with no solution that the variable
is not in is exhausted once, not once per value. Propagation solves an
atom once two places are known, and an atom x + x = c or x * x = c once c
is, as far as the characteristic decides x. `forced_variables` is the
part of the root propagation that reads no values, valid over any field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Union

from .errors import InfiniteFieldError, NormalizationError
from .fields import FieldDescriptor, FieldElement, int_field


@dataclass(frozen=True)
class Plus:
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Times:
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class One:
    i: int


ThreeAddressAtom = Union[Plus, Times, One]


@dataclass(frozen=True)
class ConstraintSystem:
    variables: tuple[str, ...]
    atoms: tuple[ThreeAddressAtom, ...]
    free_index: int

    def __post_init__(self):
        n = len(self.variables)
        if not 0 <= self.free_index < n:
            raise NormalizationError("distinguished variable missing from table")
        for a in self.atoms:
            if not 0 <= a.i < n or (type(a) is not One and not (0 <= a.j < n and 0 <= a.k < n)):
                raise NormalizationError(f"atom {a} indexes outside the variable table")

    @property
    def free_var(self) -> str:
        return self.variables[self.free_index]

    def atom_text(self, a: ThreeAddressAtom) -> str:
        v = self.variables
        if isinstance(a, Plus):
            return f"{v[a.i]} + {v[a.j]} = {v[a.k]}"
        if isinstance(a, Times):
            return f"{v[a.i]} * {v[a.j]} = {v[a.k]}"
        return f"{v[a.i]} = 1"

    def to_text(self) -> str:
        lines = ["  vars: " + ", ".join(self.variables)]
        lines += [f"  {self.atom_text(a)}" for a in self.atoms]
        return "\n".join(lines)


def atom_indices(a: ThreeAddressAtom) -> tuple[int, ...]:
    if isinstance(a, One):
        return (a.i,)
    return (a.i, a.j, a.k)


# -- constraint search -----------------------------------------------------------------


def _incidence_and_forced(
    s: ConstraintSystem,
) -> tuple[list[list[tuple[bool, int, int, int]]], list[tuple[int, int]]]:
    """Per variable, the Plus and Times atoms it occurs in as (is_product,
    i, j, k); and the (variable, value) pairs the atoms force alone: 1 for
    a One atom, and 0 for the variable an atom with a repeated place pins
    (x + y = x gives y = 0, x + y = y gives x = 0)."""
    incidence: list[list[tuple[bool, int, int, int]]] = [[] for _ in s.variables]
    forced = []
    for a in s.atoms:
        i = a.i
        if type(a) is One:
            forced.append((i, 1))
            continue
        j, k = a.j, a.k
        is_product = type(a) is Times
        if not is_product and (k == i or k == j):
            forced.append((j if k == i else i, 0))
        entry = (is_product, i, j, k)
        incidence[i].append(entry)
        if j != i:
            incidence[j].append(entry)
        if k != i and k != j:
            incidence[k].append(entry)
    return incidence, forced


class ConstraintSearch:
    """The one search over a system of three-address atoms in a finite field.

    Elements are ints in `IntField` order. The root state holds what the
    atoms force alone (`_incidence_and_forced`). From there Plus and Times
    atoms propagate: once two of an atom's three places are known the
    third is computed or checked (a product with a known zero factor
    forces nothing on the other factor). An atom whose two operands are
    one variable x is solved from c alone where that has one answer:
    x + x = c gives x = c/2 when p is odd, and in characteristic 2 holds
    for every x if c = 0 and for none otherwise; x * x = c gives x = 0 when
    c = 0, the one square root of c when p = 2, and no x when q is odd and
    c is not a square. Only values no solution has are removed, so the
    solutions and their order are those of plain branching.

    Branching takes the first unassigned variable of the table and tries
    its values in enumeration order, so solutions come out in
    lexicographic order of their value tuples whatever the propagation
    pins early.
    """

    def __init__(self, s: ConstraintSystem, K: FieldDescriptor):
        if not K.is_finite:
            raise InfiniteFieldError("system solving needs a finite field")
        self.system = s
        self.kernel = int_field(K)
        self.incidence, forced = _incidence_and_forced(s)
        root: list[int] | None = [-1] * len(s.variables)
        for var, v in forced:
            if not self._assign(root, [], var, v):
                root = None
                break
        self.root = root

    def _assign(self, vals: list[int], trail: list[int], var: int, v: int) -> bool:
        """Set var to v and propagate, recording each new value on the
        trail; False on a conflict."""
        if vals[var] >= 0:
            return vals[var] == v
        T = self.kernel
        exp, log, zech, neg = T.exp, T.log, T.zech, T.neg
        incidence = self.incidence
        vals[var] = v
        trail.append(var)
        queue = [var]
        while queue:
            for is_product, i, j, k in incidence[queue.pop()]:
                a, b, c = vals[i], vals[j], vals[k]
                if a >= 0 and b >= 0:
                    if is_product:
                        r = 0 if a == 0 or b == 0 else exp[log[a] + log[b]]
                    elif a == 0:
                        r = b
                    elif b == 0:
                        r = a
                    else:
                        z = zech[log[b] - log[a]]
                        r = 0 if z < 0 else exp[log[a] + z]
                    if c >= 0:
                        if c != r:
                            return False
                        continue
                    dest = k
                elif c < 0:
                    continue
                elif a >= 0 or b >= 0:
                    # solve for the unknown place, given the other two
                    if a >= 0:
                        known, dest = a, j
                    else:
                        known, dest = b, i
                    if is_product:
                        if known == 0:
                            if c != 0:
                                return False
                            continue
                        r = 0 if c == 0 else exp[log[c] - log[known]]
                    else:
                        known = neg[known]
                        if c == 0:
                            r = known
                        elif known == 0:
                            r = c
                        else:
                            z = zech[log[known] - log[c]]
                            r = 0 if z < 0 else exp[log[c] + z]
                elif i == j:
                    # x + x = c or x * x = c: solved by the characteristic
                    dest = i
                    if c == 0:
                        if not is_product and T.p == 2:
                            continue  # x + x = 0 for every x
                        r = 0
                    elif not is_product:
                        if T.p == 2:
                            return False
                        r = exp[log[c] - log[2]]
                    elif T.p == 2:
                        # the one square root: squaring is a bijection
                        r = exp[(log[c] + (log[c] & 1) * T.m) >> 1]
                    elif log[c] & 1:
                        return False  # c is not a square
                    else:
                        continue  # two square roots
                else:
                    continue
                vals[dest] = r
                trail.append(dest)
                queue.append(dest)
        return True

    def solutions(
        self, pins: Iterable[tuple[int, int]] = (), start: list[int] | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Every solution that also gives each pinned variable its value,
        as a tuple of ints in variable-table order. The search runs from
        `start`, a state `split` returned, and otherwise from the root."""
        if start is None:
            start = self.root
            if start is None:
                return iter(())
        vals = list(start)
        trail: list[int] = []
        for var, v in pins:
            if not self._assign(vals, trail, var, v):
                return iter(())
        return self._search(vals)

    def _search(self, vals: list[int]) -> Iterator[tuple[int, ...]]:
        """The depth-first loop, from a propagated state it takes over: it
        branches on each variable unset there and skips every variable set,
        whatever its value."""
        trail: list[int] = []
        assign = self._assign
        q = self.kernel.q
        n = len(vals)
        # depth-first, one frame per branching variable: [var, next value, trail mark]
        frames: list[list[int]] = []
        var = 0
        while True:
            while var < n and vals[var] >= 0:
                var += 1
            if var == n:
                yield tuple(vals)
            else:
                frames.append([var, 0, len(trail)])
            while frames:
                frame = frames[-1]
                var, v, mark = frame
                for x in trail[mark:]:
                    vals[x] = -1
                del trail[mark:]
                if v == q:
                    frames.pop()
                    continue
                frame[1] = v + 1
                if assign(vals, trail, var, v):
                    break
            else:
                return

    def component(self, var: int) -> set[int]:
        """The variables unset at the root that are joined to var (itself
        unset there) through the atoms they share. The atoms of one
        component touch no unset variable of another, so the solutions are
        the product of the components' solutions."""
        root = self.root
        incidence = self.incidence
        seen = {var}
        queue = [var]
        while queue:
            for _, i, j, k in incidence[queue.pop()]:
                for x in (i, j, k):
                    if root[x] < 0 and x not in seen:
                        seen.add(x)
                        queue.append(x)
        return seen

    def split(self, var: int) -> list[int] | None:
        """The root with every variable unset there and outside var's
        component (var unset at the root) set to its value in the first
        solution; None when the other components have no solution.

        One search finds those values, with the component held aside: its
        variables hold the placeholder q, which the search skips, and no
        atom joins them to the variables it assigns, so nothing reads it.
        The first point of a product is the first point of each factor, so
        the solutions from the state, in order, are those of var's
        component, each completed by the first solution of the rest."""
        component = self.component(var)
        vals = list(self.root)
        q = self.kernel.q
        for x in component:
            vals[x] = q
        first = next(self._search(vals), None)
        if first is None:
            return None
        state = list(first)
        for x in component:
            state[x] = -1
        return state

    def projection(self, known: Container[int] = frozenset()) -> dict[int, tuple[int, ...]]:
        """The values of the free variable that extend to a solution, apart
        from those in `known`, each with its first solution. A free variable
        unset at the root is split off once (`split`), so the other
        components are searched once, not once per value; each value is
        then pinned on that state and its search stops at its witness."""
        free = self.system.free_index
        start = self.root
        if start is not None and start[free] < 0:
            start = self.split(free)
        if start is None:
            return {}
        out = {}
        for v in range(self.kernel.q):
            if v not in known:
                witness = next(self.solutions([(free, v)], start), None)
                if witness is not None:
                    out[v] = witness
        return out


def solve_system(s: ConstraintSystem, K: FieldDescriptor) -> list[dict[str, FieldElement]]:
    """All satisfying assignments, in lexicographic order of their values
    (variable-table order, field enumeration order per variable)."""
    search = ConstraintSearch(s, K)
    element = search.kernel.element
    return [
        {name: element(v) for name, v in zip(s.variables, sol)} for sol in search.solutions()
    ]


def forced_variables(s: ConstraintSystem) -> set[int]:
    """The variables the root of `ConstraintSearch` sets without reading a
    value, and so over any field: from the root-forced variables, an atom
    with exactly one place unset, counting repeats (x + x = 1 and x * x = 1
    set no x), sets that place. The root also solves those repeated places
    where the characteristic allows (x + x = c when p is odd, x * x = c
    when p = 2), so on a finite field it may set more. It may hold more
    than the root on a system with no solution, or with a product whose
    factor the root sets to 0."""
    incidence, forced = _incidence_and_forced(s)
    known = {i for i, _ in forced}
    queue = list(known)
    while queue:
        for _, *places in incidence[queue.pop()]:
            unknown = [x for x in places if x not in known]
            if len(unknown) == 1:
                known.add(unknown[0])
                queue.append(unknown[0])
    return known
