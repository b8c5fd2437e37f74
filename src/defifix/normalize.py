"""Compilation of existential ring formulas into systems of three-address
atoms x_i+x_j=x_k, x_i*x_j=x_k, x_i=1.

Pipeline: desugar -> hoist existentials (renaming on clash) -> DNF ->
negation elimination (each W != 0 becomes W*t-1 = 0 with a fresh t) ->
atomization (each polynomial equation becomes a conjunction of
three-address atoms over fresh temporaries). Fresh variables are named
"_t<n>" from a single counter per run, so output is reproducible.

Atomization walks each equation's monomial summands in ascending degree
order, accumulating a running sum. A constant c is c*1, a summand c*m is
c times the value of m, and a monomial is the left-folded product of its
variables' powers; multiples n*w and powers w^n are built by doubling
along the bits of n (as `nbhd_rational` builds integers), so each takes
O(log n) atoms. Already-built values are reused within a system. Only
integer coefficients are accepted. An equation of a bare variable with
u + v, 2*u, u*v or u^2 is that one atom (`_one_atom`), whichever side
the variable is on.

`ConstraintSearch` solves a system over a finite field by propagation and
backtracking on the integer form of the field (`fields.IntField`), with
one depth-first loop. It enumerates every solution (`solve_system`, and
the arithmetic-map search of the neighbourhood module) or, per value of
the free variable, stops at the first witness and keeps it
(`projection`), so a definable set and a witness for each of its values
come from one search per system (`normalized_witnesses`). The solutions
are the product of the components the atoms join the unset variables
into, so one variable's component is split off once (`split`): one search
sets the other components to their first solution, and only that
component is searched from there. `projection` splits off the free
variable and the neighbourhood decision its target, so a component with
no solution that the free variable is not in is exhausted once, not once
per value. Its incidence lists and root-forced variables come from
`incidence_and_forced`, which the neighbourhood module's value-free
certification reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Union

from .errors import CapExceededError, InfiniteFieldError, NormalizationError
from .fields import FieldDescriptor, FieldElement, int_field
from .formulas import (
    And,
    Equal,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
    all_variables,
    conj,
    desugar,
    disj,
    free_variables,
    map_subformulas,
    substitute_terms,
)
from .terms import Monomial, Term

DEFAULT_DNF_CAP = 10_000


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
            if any(not 0 <= i < n for i in atom_indices(a)):
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


@dataclass(frozen=True)
class NormalizedFormula:
    systems: tuple[ConstraintSystem, ...]
    free_var: str
    negations: int = 0

    def __post_init__(self):
        if not self.systems:
            raise NormalizationError("no disjuncts")
        for s in self.systems:
            if s.free_var != self.free_var:
                raise NormalizationError("disjuncts disagree on the free variable")

    def to_text(self) -> str:
        lines = [f"free: {self.free_var}"]
        for s in self.systems:
            lines.append("system:")
            lines.append(s.to_text())
        return "\n".join(lines)


def atom_indices(a: ThreeAddressAtom) -> tuple[int, ...]:
    if isinstance(a, One):
        return (a.i,)
    return (a.i, a.j, a.k)


# -- fresh names ---------------------------------------------------------------


class _FreshNames:
    def __init__(self, used: set[str]):
        self.used = set(used)
        self.n = 0

    def __call__(self) -> str:
        while True:
            self.n += 1
            name = f"_t{self.n}"
            if name not in self.used:
                self.used.add(name)
                return name


# -- DNF -----------------------------------------------------------------------


def _nnf(f: Formula) -> Formula:
    if isinstance(f, (Equal, PredicateApp)):
        return f
    if isinstance(f, Not):
        b = f.body
        if isinstance(b, (Equal, PredicateApp)):
            return f
        if isinstance(b, Not):
            return _nnf(b.body)
        if isinstance(b, And):
            return Or(tuple(_nnf(Not(p)) for p in b.parts))
        if isinstance(b, Or):
            return And(tuple(_nnf(Not(p)) for p in b.parts))
        raise NormalizationError(f"cannot push negation through {type(b).__name__}")
    if isinstance(f, (And, Or)):
        return map_subformulas(f, _nnf)
    if isinstance(f, (Exists, ForAll)):
        raise NormalizationError("quantifier inside the propositional pipeline")
    raise NormalizationError(f"unsupported node {type(f).__name__}")


def _distribute(f: Formula, cap: int) -> list[list[Formula]]:
    if isinstance(f, Or):
        out: list[list[Formula]] = []
        for p in f.parts:
            out.extend(_distribute(p, cap))
            _check_cap(out, cap)
        return out
    if isinstance(f, And):
        out = [[]]
        for p in f.parts:
            branches = _distribute(p, cap)
            out = [d + b for d in out for b in branches]
            _check_cap(out, cap)
        return out
    return [[f]]


def _check_cap(disjuncts: list[list[Formula]], cap: int):
    total = sum(len(d) for d in disjuncts)
    if total > cap:
        raise CapExceededError(f"DNF size {total} exceeds cap {cap}")


def to_dnf(f: Formula, cap: int = DEFAULT_DNF_CAP) -> Formula:
    """Disjunctive normal form of a quantifier-free formula (Implies/Iff
    are desugared on the way in)."""
    disjuncts = _distribute(_nnf(desugar(f)), cap)
    return disj([conj(d) for d in disjuncts])


# -- Rabinowitsch negation elimination ------------------------------------------


def _literals(d: Formula) -> list[Formula]:
    if isinstance(d, And):
        out: list[Formula] = []
        for p in d.parts:
            out.extend(_literals(p))
        return out
    return [d]


def _eliminate(literals: Iterable[Formula], fresh: _FreshNames) -> tuple[list[Equal], int]:
    eqs: list[Equal] = []
    count = 0
    for lit in literals:
        if isinstance(lit, Equal):
            eqs.append(lit)
        elif isinstance(lit, Not) and isinstance(lit.body, Equal):
            w = lit.body.lhs - lit.body.rhs
            t = Term.variable(fresh())
            eqs.append(Equal(w * t - 1, Term.zero()))
            count += 1
        else:
            raise NormalizationError(
                f"literal {type(lit).__name__} is not a ring (in)equation"
            )
    return eqs, count


def eliminate_negations(d: Formula) -> tuple[Formula, int]:
    """Replace every negated equation W != 0 in a conjunction of literals
    by W*t - 1 = 0 with a fresh variable t. Returns the rewritten
    conjunction and the number of fresh variables introduced."""
    fresh = _FreshNames(all_variables(d))
    eqs, count = _eliminate(_literals(d), fresh)
    return conj(eqs) if eqs else d, count


# -- atomization -----------------------------------------------------------------


def _bare(entries) -> str | None:
    """The variable, when the (monomial, coefficient) entries are one
    variable with coefficient 1."""
    if len(entries) == 1:
        m, c = entries[0]
        if c == 1 and len(m) == 1 and m[0][1] == 1:
            return m[0][0]
    return None


def _one_atom(t: Term) -> tuple[type, str, str] | None:
    """(Plus, u, v) for u + v or 2*u, (Times, u, v) for u*v or u^2, and
    None for any other term. The coefficient c and the total degree 3 - c
    are checked before a monomial is spelled out as names."""
    entries = t.coeffs
    if len(entries) == 2:
        u, v = _bare(entries[:1]), _bare(entries[1:])
        return (Plus, u, v) if u is not None and v is not None else None
    if len(entries) == 1:
        m, c = entries[0]
        if c in (1, 2) and sum(e for _, e in m) == 3 - c:
            # u*v and u^2 spell two names; 2*u spells one, taken twice
            names = [v for v, e in m for _ in range(e)] * c
            return (Times if c == 1 else Plus, *names)
    return None


class _Builder:
    """Accumulates one ConstraintSystem: variable table, atoms, and one
    cache of built values, keyed (Plus, w, n) for n*w, (Times, w, n) for
    w^n and (Times, m) for a whole monomial m."""

    def __init__(self, fresh: _FreshNames, free_var: str | None):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.atoms: list[ThreeAddressAtom] = []
        self.fresh = fresh
        self.cache: dict[tuple, int] = {}
        self.zero_idx: int | None = None
        self.one_idx: int | None = None
        if free_var is not None:
            self.ensure(free_var)

    def ensure(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def temp(self) -> int:
        return self.ensure(self.fresh())

    def emit(self, atom: ThreeAddressAtom):
        self.atoms.append(atom)

    def zero_var(self) -> int:
        if self.zero_idx is None:
            v = self.temp()
            self.emit(Plus(v, v, v))
            self.zero_idx = v
        return self.zero_idx

    def one_var(self) -> int:
        if self.one_idx is None:
            v = self.temp()
            self.emit(One(v))
            self.one_idx = v
        return self.one_idx

    def equate(self, i: int, j: int):
        if i != j:
            self.emit(Plus(i, self.zero_var(), j))

    def repeat(self, kind: type, w: int, n: int, target: int | None = None) -> int:
        # w combined with itself n >= 1 times: n*w under Plus, w^n under
        # Times. Doubling along the bits of n from the top takes the prefix
        # k to 2k (kw + kw) and, on a set bit, to 2k+1 (2kw + w); prefixes
        # are cached, and the last step writes into `target` when given.
        # A target comes only with n >= 2: a side that is one bare variable
        # is handled by `equation` before any value is built.
        cur, k = w, 1
        for bit in bin(n)[3:]:
            steps = [(cur, 2 * k), (w, 2 * k + 1)] if bit == "1" else [(cur, 2 * k)]
            for other, k in steps:
                if k == n and target is not None:
                    self.emit(kind(cur, other, target))
                    return target
                key = (kind, w, k)
                if key not in self.cache:
                    self.cache[key] = self.temp()
                    self.emit(kind(cur, other, self.cache[key]))
                cur = self.cache[key]
        return cur

    def mono_value(self, m: Monomial, target: int | None = None) -> int:
        # left fold of the variables' powers; each step allocates its
        # destination before building the next power
        if target is None and (Times, m) in self.cache:
            return self.cache[(Times, m)]
        (v, e), *rest = m
        cur = self.repeat(Times, self.ensure(v), e, None if rest else target)
        for pos, (v, e) in enumerate(rest, start=1):
            dest = target if (target is not None and pos == len(rest)) else self.temp()
            self.emit(Times(cur, self.repeat(Times, self.ensure(v), e), dest))
            cur = dest
        if target is None:
            self.cache[(Times, m)] = cur
        return cur

    def term_value(self, m: Monomial, c: int, target: int | None = None) -> int:
        # value of the summand c * m, c >= 1; a constant is c * 1
        if m == ():
            if c == 1 and target is not None:
                self.emit(One(target))
                return target
            return self.repeat(Plus, self.one_var(), c, target)
        if c == 1:
            return self.mono_value(m, target)
        return self.repeat(Plus, self.mono_value(m), c, target)

    def side_value(self, terms: list[tuple[Monomial, int]], target: int | None = None) -> int:
        # running sum over the summands, in the order given
        if len(terms) == 1:
            m, c = terms[0]
            return self.term_value(m, c, target)
        cur = self.term_value(*terms[0])
        for pos, (m, c) in enumerate(terms[1:], start=2):
            v = self.term_value(m, c)
            last = pos == len(terms)
            dest = target if (target is not None and last) else self.temp()
            self.emit(Plus(cur, v, dest))
            cur = dest
        return cur

    def assert_zero(self, i: int):
        self.emit(Plus(i, i, i))

    def equation(self, lhs: Term, rhs: Term):
        for side, other in ((lhs, rhs), (rhs, lhs)):
            target = _bare(other.coeffs)
            shape = _one_atom(side) if target is not None else None
            if shape is not None:
                kind, u, v = shape
                self.emit(kind(self.ensure(u), self.ensure(v), self.ensure(target)))
                return
        p = lhs - rhs
        if p.is_zero:
            return
        if any(not isinstance(c, int) for _, c in p.coeffs):
            raise NormalizationError("rational coefficients are not atomizable; scale first")
        ascending = list(reversed(p.coeffs))
        pos = [(m, c) for m, c in ascending if c > 0]
        neg = [(m, -c) for m, c in ascending if c < 0]
        if not neg:
            self.assert_zero(self.side_value(pos))
            return
        if not pos:
            self.assert_zero(self.side_value(neg))
            return
        bpos, bneg = _bare(pos), _bare(neg)
        if bpos is not None and bneg is not None:
            self.equate(self.ensure(bpos), self.ensure(bneg))
            return
        if bneg is not None:
            self.side_value(pos, target=self.ensure(bneg))
            return
        if bpos is not None:
            self.side_value(neg, target=self.ensure(bpos))
            return
        if pos == [((), 1)]:
            # the constant 1 goes to the target side, as a single One atom
            pos, neg = neg, pos
        a = self.side_value(pos)
        self.side_value(neg, target=a)

    def finish(self, free_var: str) -> ConstraintSystem:
        idx = self.ensure(free_var)
        return ConstraintSystem(tuple(self.names), tuple(self.atoms), idx)


def atomize(c: Formula | Iterable[Equal], free_var: str | None = None) -> ConstraintSystem:
    """Rewrite a negation-free conjunction of polynomial equations into a
    system of three-address atoms over fresh temporaries."""
    if isinstance(c, (And, Equal, Not, Or, Implies, Iff, Exists, ForAll, PredicateApp)):
        literals = _literals(c)
    else:
        literals = list(c)
    used: set[str] = set()
    for lit in literals:
        if not isinstance(lit, Equal):
            raise NormalizationError("atomize expects a conjunction of equations")
        used |= lit.lhs.free_variables() | lit.rhs.free_variables()
    fresh = _FreshNames(used | ({free_var} if free_var else set()))
    builder = _Builder(fresh, free_var)
    for lit in literals:
        builder.equation(lit.lhs, lit.rhs)
    if free_var is None:
        if not builder.names:
            raise NormalizationError("no variables in system")
        free_var = builder.names[0]
    return builder.finish(free_var)


# -- existential hoisting ----------------------------------------------------------


def _hoist(f: Formula, fresh: _FreshNames, claimed: set[str]) -> tuple[list[str], Formula]:
    # `claimed` holds the free variable plus every binder name already
    # hoisted; a clashing binder is renamed before its scope dissolves.
    if isinstance(f, (Equal, PredicateApp)):
        return [], f
    if isinstance(f, Exists):
        var, body = f.var, f.body
        if var in claimed:
            renamed = fresh()
            body = substitute_terms(body, {var: Term.variable(renamed)})
            var = renamed
        claimed.add(var)
        prefix, matrix = _hoist(body, fresh, claimed)
        return [var] + prefix, matrix
    if isinstance(f, ForAll):
        raise NormalizationError("universal quantifier is outside the existential fragment")
    if isinstance(f, (And, Or)):
        prefix: list[str] = []
        matrices = []
        for p in f.parts:
            sub_prefix, m = _hoist(p, fresh, claimed)
            prefix.extend(sub_prefix)
            matrices.append(m)
        node = And if isinstance(f, And) else Or
        return prefix, node(tuple(matrices))
    if isinstance(f, Not):
        sub_prefix, m = _hoist(f.body, fresh, claimed)
        if sub_prefix:
            raise NormalizationError("negation over a quantifier is not reducible")
        return [], Not(m)
    raise NormalizationError(f"unsupported node {type(f).__name__} during hoisting")


def normalize(f: Formula, cap: int = DEFAULT_DNF_CAP) -> NormalizedFormula:
    """Full pipeline: existential formula with one free variable ->
    disjunction of three-address constraint systems with the same
    definable set over every finite field. The result also counts the
    negations eliminated, which equals the number of inversion witnesses
    introduced."""
    fvs = free_variables(f)
    if len(fvs) != 1:
        raise NormalizationError(f"expected exactly one free variable, found {sorted(fvs)}")
    free_var = fvs.pop()
    fresh = _FreshNames(all_variables(f))
    _, matrix = _hoist(desugar(f), fresh, {free_var})
    disjuncts = _distribute(_nnf(matrix), cap)
    systems = []
    negations = 0
    for d in disjuncts:
        eqs, count = _eliminate(d, fresh)
        negations += count
        builder = _Builder(fresh, free_var)
        for eq in eqs:
            builder.equation(eq.lhs, eq.rhs)
        systems.append(builder.finish(free_var))
    return NormalizedFormula(tuple(systems), free_var, negations)


# -- constraint search -----------------------------------------------------------------


def incidence_and_forced(
    s: ConstraintSystem,
) -> tuple[list[list[tuple[bool, int, int, int]]], list[tuple[int, int]]]:
    """Per variable, the Plus and Times atoms it occurs in as (is_product,
    i, j, k); and the (variable, value) pairs the atoms force alone: 1 for
    a One atom, and 0 for the variable an atom with a repeated place pins
    (x + y = x gives y = 0, x + y = y gives x = 0)."""
    incidence: list[list[tuple[bool, int, int, int]]] = [[] for _ in s.variables]
    forced = []
    for a in s.atoms:
        if isinstance(a, One):
            forced.append((a.i, 1))
            continue
        if isinstance(a, Plus) and a.k in (a.i, a.j):
            forced.append((a.j if a.k == a.i else a.i, 0))
        entry = (isinstance(a, Times), a.i, a.j, a.k)
        for i in {a.i, a.j, a.k}:
            incidence[i].append(entry)
    return incidence, forced


class ConstraintSearch:
    """The one search over a system of three-address atoms in a finite field.

    Elements are ints in `IntField` order. The root state holds what the
    atoms force alone (`incidence_and_forced`). From there Plus and Times
    atoms propagate: once two of an atom's three places are known the
    third is computed or checked (a product with a known zero factor
    forces nothing on the other factor).
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
        self.incidence, forced = incidence_and_forced(s)
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
                elif c >= 0 and (a >= 0 or b >= 0):
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


def normalized_witnesses(nf: NormalizedFormula, K: FieldDescriptor) -> dict[int, tuple[int, ...]]:
    """Union over disjuncts of the projection of each system's solutions
    onto the free variable, as element indices of `int_field(K)`, each
    value with the first solution of the first system that reaches it."""
    found: dict[int, tuple[int, ...]] = {}
    for s in nf.systems:
        found.update(ConstraintSearch(s, K).projection(found))
    return found


def normalized_definable_set(nf: NormalizedFormula, K: FieldDescriptor) -> set[FieldElement]:
    """The values of `normalized_witnesses` as FieldElements."""
    element = int_field(K).element
    return {element(v) for v in normalized_witnesses(nf, K)}
