"""Compilation of existential ring formulas into systems of three-address
atoms x_i+x_j=x_k, x_i*x_j=x_k, x_i=1.

Pipeline: one walk to negation normal form (`_nnf`, which desugars,
hoists existentials renaming on clash, and raises every quantifier
error) -> the capped DNF -> negation elimination (each W != 0 becomes
the pair of W and a fresh inversion witness t) -> atomization (each
polynomial equation becomes a conjunction of three-address atoms over
fresh temporaries). Fresh variables are named "_t<n>" from a single
counter per run, so output is reproducible.

A pair (W, t) means W*t = 1. A W of two or more monomials is built as a
value d, its positive side less its negative side, followed by the one
atom d * t = 1, so t occurs nowhere else and comes after W's variables
in the table: propagation sets t = 1/d once d is known, and d = 0 is a
conflict, where expanding W*t - 1 would spread t over one product per
monomial and leave the search to branch on it. A lone monomial W keeps
W*t - 1 = 0, as W*t is then one monomial (`eliminate_negations` renders
every pair that way).

Atomization walks each equation's monomial summands in ascending degree
order, accumulating a running sum. A constant c is c*1, a summand c*m is
c times the value of m, and a monomial is the left-folded product of its
variables' powers; multiples n*w and powers w^n are built by doubling
along the bits of n (as `nbhd_rational` builds integers), so each takes
O(log n) atoms. Already-built values are reused within a system. Only
integer coefficients are accepted. An equation of a bare variable with
u + v, 2*u, u*v or u^2 is that one atom (`_one_atom`), whichever side
the variable is on.

The systems are solved by the engine (`engine.ConstraintSearch`): one
search per system gives a definable set with a witness for each of its
values (`normalized_witnesses`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import ConstraintSearch, ConstraintSystem, One, Plus, ThreeAddressAtom, Times
from .errors import CapExceededError, NormalizationError
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
    substitute_terms,
)
from .terms import Monomial, Term

DEFAULT_DNF_CAP = 10_000


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


# -- negation normal form and DNF ----------------------------------------------


def _nnf(
    f: Formula, fresh: _FreshNames | None = None, claimed: set[str] | None = None, negated=False
) -> Formula:
    """Negation normal form of f (of ~f when `negated`) in one walk: a Not
    flips the parity and an Implies or Iff is desugared where it is met.
    With the run's fresh names each Exists gives way to its body, a binder
    already `claimed` (the free variable or one dropped before) renamed
    first; without them every quantifier raises."""
    if isinstance(f, (Equal, PredicateApp)):
        return Not(f) if negated else f
    if isinstance(f, Not):
        # a binder claimed while the body is walked sits under this Not;
        # checked after the body, so an error inside it reports first
        hoisted = len(claimed or ())
        body = _nnf(f.body, fresh, claimed, not negated)
        if len(claimed or ()) > hoisted:
            raise NormalizationError("negation over a quantifier is not reducible")
        return body
    if isinstance(f, (And, Or)):
        node = Or if isinstance(f, And) == negated else And
        return node(tuple(_nnf(p, fresh, claimed, negated) for p in f.parts))
    if isinstance(f, (Implies, Iff)):
        return _nnf(desugar(f), fresh, claimed, negated)
    if isinstance(f, Exists) and fresh is not None:
        var, body = f.var, f.body
        if var in claimed:
            renamed = fresh()
            body = substitute_terms(body, {var: Term.variable(renamed)})
            var = renamed
        claimed.add(var)
        return _nnf(body, fresh, claimed, negated)
    if isinstance(f, ForAll) and fresh is not None:
        raise NormalizationError("universal quantifier is outside the existential fragment")
    if isinstance(f, (Exists, ForAll)):
        if negated:
            raise NormalizationError(f"cannot push negation through {type(f).__name__}")
        raise NormalizationError("quantifier inside the propositional pipeline")
    raise TypeError(f"not a formula: {f!r}")


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
    disjuncts = _distribute(_nnf(f), cap)
    return disj([conj(d) for d in disjuncts])


# -- Rabinowitsch negation elimination ------------------------------------------


def _literals(d: Formula) -> list[Formula]:
    if isinstance(d, And):
        out: list[Formula] = []
        for p in d.parts:
            out.extend(_literals(p))
        return out
    return [d]


def _eliminate(
    literals: Iterable[Formula], fresh: _FreshNames
) -> list[Equal | tuple[Term, str]]:
    """The literals in order, each negated equation lhs != rhs replaced by
    the pair (W, t) of W = lhs - rhs and its fresh inversion witness t."""
    out: list[Equal | tuple[Term, str]] = []
    for lit in literals:
        if isinstance(lit, Equal):
            out.append(lit)
        elif isinstance(lit, Not) and isinstance(lit.body, Equal):
            out.append((lit.body.lhs - lit.body.rhs, fresh()))
        else:
            raise NormalizationError(
                f"literal {type(lit).__name__} is not a ring (in)equation"
            )
    return out


def _inversion(w: Term, t: str) -> Equal:
    return Equal(w * Term.variable(t) - 1, Term.zero())


def eliminate_negations(d: Formula) -> tuple[Formula, int]:
    """Replace every negated equation W != 0 in a conjunction of literals
    by W*t - 1 = 0 with a fresh variable t. Returns the rewritten
    conjunction and the number of fresh variables introduced. This is the
    formula-level rendering of the (W, t) pairs that `normalize` atomizes
    (`_Builder.nonzero`)."""
    fresh = _FreshNames(all_variables(d))
    items = _eliminate(_literals(d), fresh)
    eqs = [_inversion(*x) if isinstance(x, tuple) else x for x in items]
    return conj(eqs) if eqs else d, sum(isinstance(x, tuple) for x in items)


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


def _sides(p: Term) -> tuple[list[tuple[Monomial, int]], list[tuple[Monomial, int]]]:
    """The summands of p with positive coefficients, and those with
    negative ones negated, each in ascending degree order. Only integer
    coefficients are atomizable."""
    if any(not isinstance(c, int) for _, c in p.coeffs):
        raise NormalizationError("rational coefficients are not atomizable; scale first")
    ascending = list(reversed(p.coeffs))
    return [(m, c) for m, c in ascending if c > 0], [(m, -c) for m, c in ascending if c < 0]


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
        pos, neg = _sides(p)
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

    def nonzero(self, w: Term, t: str):
        # W * t = 1 (module docstring): d * t = one on W's value d, or
        # W*t - 1 = 0 for a lone monomial
        if len(w.coeffs) < 2:
            eq = _inversion(w, t)
            self.equation(eq.lhs, eq.rhs)
            return
        pos, neg = _sides(w)
        if not neg:
            d = self.side_value(pos)
        elif not pos:
            d = self.side_value(neg)
        else:
            a, b = self.side_value(pos), self.side_value(neg)
            d = self.temp()
            self.emit(Plus(d, b, a))
        one = self.one_var()
        self.emit(Times(d, self.ensure(t), one))

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
    disjuncts = _distribute(_nnf(f, fresh, {free_var}), cap)
    systems = []
    negations = 0
    for d in disjuncts:
        builder = _Builder(fresh, free_var)
        for item in _eliminate(d, fresh):
            if isinstance(item, Equal):
                builder.equation(item.lhs, item.rhs)
            else:
                builder.nonzero(*item)
                negations += 1
        systems.append(builder.finish(free_var))
    return NormalizedFormula(tuple(systems), free_var, negations)


def normalized_witnesses(nf: NormalizedFormula, K: FieldDescriptor) -> dict[int, tuple[int, ...]]:
    """Union over disjuncts of the projection of each system's solutions
    onto the free variable, as element indices of `int_field(K)`, each
    value with the first solution of the first system that reaches it.
    Once every element has a witness the later systems are not searched:
    they can add none."""
    found: dict[int, tuple[int, ...]] = {}
    for s in nf.systems:
        search = ConstraintSearch(s, K)
        found.update(search.projection(found))
        if len(found) == search.kernel.q:
            break
    return found


def normalized_definable_set(nf: NormalizedFormula, K: FieldDescriptor) -> set[FieldElement]:
    """The values of `normalized_witnesses` as FieldElements."""
    element = int_field(K).element
    return {element(v) for v in normalized_witnesses(nf, K)}
