"""Closed-form emitters for a small catalog of named formula templates.

Each template assembles a Formula out of a few shared abbreviations,
expanded in place as nested groups:

    a <= b     exists s. a + s^2 = b           (shift by a square)
    a < b      (a <= b) & a != b
    M(a)       exists y. a^4 + 1 = y^2         (fourth-power square test)
    a << b     a != b & M(a) & M(b) & exists c. (M(c) & a + c^2 = b)

Bound names are chosen fresh against the argument terms, and opaque
subformula parameters are alpha-renamed before instantiation, so
templates nest without variable capture.  Subformula parameters left
unset default to bare predicate applications (N(x), F(s, t), G(s, t));
integer offsets fold into constant terms.  Everything emitted prints
and re-parses verbatim.

The catalog is `SCHEMA_NAMES` (defined in the package, re-exported here),
each name a template below; a template's parameters are its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import SCHEMA_NAMES
from .errors import SchemaError
from .formulas import (
    And,
    Equal,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    PredicateApp,
    all_variables,
    conj,
    free_variables,
    is_name,
    map_subformulas,
    substitute_terms,
)
from .terms import Term

_ZERO = Term.constant(0)
_ONE = Term.constant(1)


# -- fresh names and capture-safe instantiation --------------------------------


def _fresh(base: str, forbidden: set[str]) -> str:
    if base not in forbidden:
        return base
    k = 1
    while f"{base}{k}" in forbidden:
        k += 1
    return f"{base}{k}"


def _rename_binders(f: Formula, forbidden: set[str]) -> Formula:
    """Alpha-rename every quantified variable that collides with `forbidden`."""
    f = map_subformulas(f, lambda g: _rename_binders(g, forbidden))
    if not isinstance(f, (Exists, ForAll)) or f.var not in forbidden:
        return f
    new = _fresh(f.var, forbidden | all_variables(f.body) | {f.var})
    return type(f)(new, substitute_terms(f.body, {f.var: Term.variable(new)}))


def _instantiate(f: Formula, slots: dict[str, Term]) -> Formula:
    """Substitute terms for the slot variables of an opaque subformula,
    renaming its binders first so no substituted variable is captured."""
    hit: set[str] = set()
    for t in slots.values():
        hit |= t.free_variables()
    return substitute_terms(_rename_binders(f, hit), slots)


def _check_slots(f: Formula, slots: set[str], which: str) -> Formula:
    extra = free_variables(f) - slots
    if extra:
        raise SchemaError(
            f"{which} may only have {sorted(slots)} free, found {sorted(extra)}"
        )
    return f


def _check_polynomial(p: Term, which: str) -> Term:
    extra = p.free_variables() - {"y"}
    if extra:
        raise SchemaError(
            f"{which} must be a polynomial in y alone, found {sorted(extra)}"
        )
    return p


def _check_predicate(name: str) -> str:
    if not is_name(name):
        raise SchemaError(f"{name!r} is not a usable predicate symbol")
    return name


# -- shared abbreviations -------------------------------------------------------


def _sq_le(a: Term, b: Term) -> Formula:
    # a <= b: some square shifts a onto b
    w = _fresh("s", a.free_variables() | b.free_variables())
    return Exists(w, Equal(a + Term.variable(w) ** 2, b))


def _sq_lt(a: Term, b: Term) -> Formula:
    return And((_sq_le(a, b), Not(Equal(a, b))))


def _quartic_member(t: Term, forbidden: set[str] = frozenset()) -> Formula:
    # M(t): 1 + t^4 is a square
    w = _fresh("y", t.free_variables() | set(forbidden))
    return Exists(w, Equal(_ONE + t**4, Term.variable(w) ** 2))


def _quartic_lt(a: Term, b: Term) -> Formula:
    used = a.free_variables() | b.free_variables()
    c = _fresh("c", used)
    cv = Term.variable(c)
    return And(
        (
            Not(Equal(a, b)),
            _quartic_member(a, used),
            _quartic_member(b, used),
            Exists(c, And((_quartic_member(cv, used | {c}), Equal(a + cv**2, b)))),
        )
    )


def _succ_at(a: Term, b: Term, predicate: str) -> Formula:
    """a and b both satisfy the predicate, a < b, and nothing strictly
    between them does (square-shift order)."""
    z = _fresh("z", a.free_variables() | b.free_variables())
    zv = Term.variable(z)
    return And(
        (
            _sq_lt(a, b),
            PredicateApp(predicate, (a,)),
            PredicateApp(predicate, (b,)),
            ForAll(
                z,
                Implies(
                    And((_sq_lt(a, zv), _sq_lt(zv, b))),
                    Not(PredicateApp(predicate, (zv,))),
                ),
            ),
        )
    )


def _accum_at(a: Term, predicate: str) -> Formula:
    """Every positive tolerance admits a distinct predicate point within
    it of a (square-shift order): a is an accumulation point."""
    used = a.free_variables()
    e = _fresh("e", used)
    ev = Term.variable(e)
    z = _fresh("z", used | {e})
    zv = Term.variable(z)
    return ForAll(
        e,
        Implies(
            _sq_lt(_ZERO, ev),
            Exists(
                z,
                And(
                    (
                        Not(Equal(zv, a)),
                        _sq_lt(a, zv + ev),
                        _sq_lt(zv, a + ev),
                        PredicateApp(predicate, (zv,)),
                    )
                ),
            ),
        ),
    )


# -- the catalog ----------------------------------------------------------------


def robinson(U: Term, V: Term) -> Formula:
    """x is the V-image of a root of U: exists y. (U(y) = 0 & x = V(y))."""
    _check_polynomial(U, "U")
    _check_polynomial(V, "V")
    return Exists("y", And((Equal(U, _ZERO), Equal(Term.variable("x"), V))))


def theorem2(phi: Formula, U: Term, V: Term) -> Formula:
    """Pad a quantifier-free core with a root-image singleton: every free
    variable of phi except x is bound in sorted name order, then the
    innermost binder picks a root of U whose V-image x must equal."""
    _check_polynomial(U, "U")
    _check_polynomial(V, "V")
    extras = sorted(free_variables(phi) - {"x"})
    y = _fresh("y", set(extras) | free_variables(phi) | {"x"})
    if y != "y":
        shift = {"y": Term.variable(y)}
        U, V = U.substitute(shift), V.substitute(shift)
    f: Formula = Exists(y, conj([phi, Equal(U, _ZERO), Equal(Term.variable("x"), V)]))
    for v in reversed(extras):
        f = Exists(v, f)
    return f


def pyth_M() -> Formula:
    """Membership test for the square-closed base: 1 + x^4 is a square."""
    return _quartic_member(Term.variable("x"))


def lt6() -> Formula:
    """Strict order on a and b through the fourth-power square test."""
    return _quartic_lt(Term.variable("a"), Term.variable("b"))


def le7() -> Formula:
    """x <= y by a square shift: exists s. x + s^2 = y."""
    return _sq_le(Term.variable("x"), Term.variable("y"))


def succ(predicate: str = "U") -> Formula:
    """y is the immediate successor of x among the predicate's points."""
    _check_predicate(predicate)
    return _succ_at(Term.variable("x"), Term.variable("y"), predicate)


def accum(predicate: str = "U") -> Formula:
    """x is an accumulation point of the predicate's points."""
    _check_predicate(predicate)
    return _accum_at(Term.variable("x"), predicate)


def theorem6_def(
    N: Formula | None = None,
    F: Formula | None = None,
    G: Formula | None = None,
) -> Formula:
    """Defining formula for a limit of a ratio sequence: x passes the
    quartic square test, and within every positive tolerance there is a
    distinct z and counter data s, u, v (all satisfying N) with F(s, u),
    G(s, v), and z * v = u.

    N (one slot, x) selects the counters; F and G (two slots, s and t)
    relate a counter to numerator and denominator.  Unset parameters
    stay opaque as N(x), F(s, t), G(s, t).
    """
    sv, tv = Term.variable("s"), Term.variable("t")
    xv = Term.variable("x")
    N = PredicateApp("N", (xv,)) if N is None else _check_slots(N, {"x"}, "N")
    F = PredicateApp("F", (sv, tv)) if F is None else _check_slots(F, {"s", "t"}, "F")
    G = PredicateApp("G", (sv, tv)) if G is None else _check_slots(G, {"s", "t"}, "G")
    ev, zv = Term.variable("e"), Term.variable("z")
    uv, vv = Term.variable("u"), Term.variable("v")
    near = conj(
        [
            Not(Equal(zv, xv)),
            _quartic_lt(xv, zv + ev),
            _quartic_lt(zv, xv + ev),
            _instantiate(N, {"x": sv}),
            _instantiate(N, {"x": uv}),
            _instantiate(N, {"x": vv}),
            _instantiate(F, {"s": sv, "t": uv}),
            _instantiate(G, {"s": sv, "t": vv}),
            Equal(zv * vv, uv),
        ]
    )
    body = Exists("z", Exists("s", Exists("u", Exists("v", near))))
    return And(
        (
            _quartic_member(xv),
            ForAll("e", Implies(_quartic_lt(_ZERO, ev), body)),
        )
    )


def theorem7_sentence(
    i: int,
    F: Formula | None = None,
    G: Formula | None = None,
    predicate: str = "U",
) -> Formula:
    """Sentence pinning the predicate to one negative-ratio trace.

    Five clauses joined into one flat conjunction (no extra grouping):
    the predicate holds at 0; every nonnegative predicate point has its
    shift by 1 as immediate successor; x in the window [-|i|, 0) holds
    exactly the ratio relation through F and G; on (-2|i|, -|i|) the
    predicate matches accumulation at x + |i|; and at or below -2|i| the
    predicate is empty.  The offsets fold to the constants |i| and 2|i|.
    """
    _check_predicate(predicate)
    sv, tv = Term.variable("s"), Term.variable("t")
    F = PredicateApp("F", (sv, tv)) if F is None else _check_slots(F, {"s", "t"}, "F")
    G = PredicateApp("G", (sv, tv)) if G is None else _check_slots(G, {"s", "t"}, "G")
    k = abs(i)
    xv = Term.variable("x")
    uv, vv = Term.variable("u"), Term.variable("v")

    def held(t: Term) -> Formula:
        return PredicateApp(predicate, (t,))

    ratio = conj(
        [
            _sq_le(_ZERO, sv),
            held(sv),
            _sq_le(_ZERO, uv),
            held(uv),
            _sq_le(_ZERO, vv),
            held(vv),
            _instantiate(F, {"s": sv, "t": uv}),
            _instantiate(G, {"s": sv, "t": vv}),
            Equal(uv + xv * vv, _ZERO),
        ]
    )
    parts = (
        held(_ZERO),
        ForAll(
            "x",
            Implies(
                And((_sq_le(_ZERO, xv), held(xv))),
                _succ_at(xv, xv + 1, predicate),
            ),
        ),
        ForAll(
            "x",
            Iff(
                And((_sq_le(_ZERO, xv + k), _sq_lt(xv, _ZERO))),
                Exists("s", Exists("u", Exists("v", ratio))),
            ),
        ),
        ForAll(
            "x",
            Implies(
                And((_sq_lt(_ZERO, xv + 2 * k), _sq_lt(xv + k, _ZERO))),
                Iff(held(xv), _accum_at(xv + k, predicate)),
            ),
        ),
        ForAll("x", Implies(_sq_le(xv + 2 * k, _ZERO), Not(held(xv)))),
    )
    return And(parts)


def theorem7_def(i: int, predicate: str = "U") -> Formula:
    """x is nonpositive and sits |i| above a predicate point:
    exists t. exists y. (x + t^2 = 0 & x = y + |i| & U(y))."""
    _check_predicate(predicate)
    xv = Term.variable("x")
    body = conj(
        [
            Equal(xv + Term.variable("t") ** 2, _ZERO),
            Equal(xv, Term.variable("y") + abs(i)),
            PredicateApp(predicate, (Term.variable("y"),)),
        ]
    )
    return Exists("t", Exists("y", body))


# -- uniform dispatch ------------------------------------------------------------


@dataclass(frozen=True)
class SchemaParams:
    """Parameter bundle for emit(); each template reads only its own
    fields and rejects absent required ones."""

    U: Term | None = None
    V: Term | None = None
    F: Formula | None = None
    G: Formula | None = None
    N: Formula | None = None
    phi: Formula | None = None
    predicate: str = "U"
    i: int | None = None


def emit(name: str, params: SchemaParams | None = None) -> Formula:
    """Emit the named template with parameters taken from `params`: its
    arguments name the fields it reads, those without a default required."""
    if name not in SCHEMA_NAMES:
        raise SchemaError(f"unknown schema {name!r}; known: {', '.join(SCHEMA_NAMES)}")
    template = globals()[name]
    code = template.__code__
    fields = code.co_varnames[: code.co_argcount]
    p = params if params is not None else SchemaParams()
    for field in fields[: len(fields) - len(template.__defaults__ or ())]:
        if getattr(p, field) is None:
            raise SchemaError(f"schema {name!r} requires parameter {field!r}")
    return template(*(getattr(p, field) for field in fields))
