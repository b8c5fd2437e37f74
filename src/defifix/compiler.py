"""Between neighbourhoods and existential formulas, in both directions.

A neighbourhood's fact system (`neighbourhood.fact_system`) written out
atom by atom as a conjunction pins its distinguished element; conversely
a defining formula's witness values, found by the one constraint search
per system of `normalize` on its normal form, assemble back into a
neighbourhood.  The single-equation encoder turns the emitted equation
system into one polynomial that vanishes exactly where every equation
does: a lone equation is itself, over Q more are the sum of their
squares, over a finite field a balanced fold through a two-variable form
that vanishes only at the origin, so k equations cost a nesting depth of
ceil(log2 k) rather than k - 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod

from .errors import (
    CapExceededError,
    FieldSpecError,
    InfiniteFieldError,
    NotDefiningError,
    NotSingletonError,
)
from .fields import FieldDescriptor, int_field
from .formulas import Equal, Exists, Formula, conj, free_variables
from .neighbourhood import Neighbourhood, fact_system, neighbourhood
from .normalize import (
    DEFAULT_DNF_CAP,
    One,
    Plus,
    atom_indices,
    normalize,
    normalized_witnesses,
)
from .terms import Term

# bound on the monomials a single-equation fold may expand to
DEFAULT_TERM_CAP = 10**6


# -- fact emission ---------------------------------------------------------


def _fact_equations(A: Neighbourhood, free_name: str) -> list[tuple[Term, Term]]:
    """The atoms of `fact_system(A)` as (lhs, rhs) term pairs, in order:
    A.r is named `free_name`, the other elements x2, x3, ... in stored
    order."""
    s = fact_system(A)
    if not any(s.free_index in atom_indices(a) for a in s.atoms):
        raise NotDefiningError(
            "the distinguished element participates in no fact; "
            "any map moving it alone is arithmetic"
        )
    others = (i for i in range(len(A.elements)) if i != A.target_index)
    v = {i: Term.variable(f"x{n}") for n, i in enumerate(others, 2)}
    v[A.target_index] = Term.variable(free_name)
    out = []
    for a in s.atoms:
        if isinstance(a, One):
            out.append((v[a.i], Term.constant(1)))
        elif isinstance(a, Plus):
            out.append((v[a.i] + v[a.j], v[a.k]))
        else:
            out.append((v[a.i] * v[a.j], v[a.k]))
    return out


def _close_existentially(body: Formula, free_name: str) -> Formula:
    bound = sorted(free_variables(body) - {free_name}, key=lambda n: int(n[1:]))
    f = body
    for name in reversed(bound):
        f = Exists(name, f)
    return f


def neighbourhood_to_formula(A: Neighbourhood) -> Formula:
    """Existential formula with free variable x1 whose sole solution is A.r,
    provided A really is a neighbourhood of it."""
    parts = [Equal(lhs, rhs) for lhs, rhs in _fact_equations(A, "x1")]
    return _close_existentially(conj(parts), "x1")


def formula_to_neighbourhood(
    f: Formula, K: FieldDescriptor, cap: int = DEFAULT_DNF_CAP
) -> Neighbourhood:
    """Recover a neighbourhood of the element a defining formula pins down.

    The formula must define a singleton {r} over finite K.  It is normalized
    once (`cap` bounds the disjunctive normal form) and each system is
    searched once (`normalized_witnesses`): the definable set is the union
    of the systems' projections, and r comes with the first solution of the
    first system that reaches it.  Every solution of that system has free
    value r, so this is its lexicographically first solution, and {1, r}
    plus its values is the answer.
    """
    if not K.is_finite:
        raise InfiniteFieldError("recovering a neighbourhood needs a finite field")
    fv = free_variables(f)
    if len(fv) != 1:
        raise NotSingletonError(f"expected one free variable, found {sorted(fv)}")
    witnesses = normalized_witnesses(normalize(f, cap), K)
    element = int_field(K).element
    if len(witnesses) != 1:
        raise NotSingletonError(
            f"definable set has {len(witnesses)} elements",
            definable={element(v) for v in witnesses},
        )
    ((r, witness),) = witnesses.items()
    return neighbourhood(K, [K.one(), *map(element, (r, *witness))], element(r))


# -- single-equation encoding ----------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _find_root(poly: Term, var: str, field: FieldDescriptor):
    if field.is_finite:
        T = int_field(field)
        at = poly.compile(T)
        root = next((a for a in range(T.q) if at({var: a}) == 0), None)
        return None if root is None else T.element(root)
    # over Q every root of an integer polynomial is +-(divisor of the
    # constant term)/(divisor of the leading term)
    by_degree = {}
    for m, c in poly.as_dict().items():
        by_degree[m[0][1] if m else 0] = c
    if 0 not in by_degree:
        return field.zero()
    lead = by_degree[max(by_degree)]
    for num in _divisors(by_degree[0]):
        for den in _divisors(lead):
            for sign in (1, -1):
                a = field.element(Fraction(sign * num, den))
                if poly.evaluate({var: a}, field).is_zero:
                    return a
    return None


@dataclass(frozen=True)
class RootlessPolynomial:
    """A univariate integer polynomial of degree >= 2 with no root in the
    target field; checked exhaustively for finite fields and through the
    rational-root bound over Q."""

    poly: Term
    field: FieldDescriptor

    def __post_init__(self):
        if len(self.poly.free_variables()) != 1:
            raise ValueError("expected a univariate polynomial")
        if self.poly.degree() < 2:
            raise ValueError("degree must be at least 2")
        if any(not isinstance(c, int) for c in self.poly.as_dict().values()):
            raise ValueError("coefficients must be integers")
        root = _find_root(self.poly, self.variable, self.field)
        if root is not None:
            raise ValueError(f"{self.poly} has root {root} in {self.field.spec()}")

    @property
    def variable(self) -> str:
        (v,) = self.poly.free_variables()
        return v

    @property
    def degree(self) -> int:
        return self.poly.degree()

    def coefficients(self) -> tuple[int, ...]:
        """Ascending, length degree + 1."""
        out = [0] * (self.degree + 1)
        for m, c in self.poly.as_dict().items():
            out[m[0][1] if m else 0] = c
        return tuple(out)


def find_rootless(K: FieldDescriptor) -> RootlessPolynomial:
    """The first monic integer polynomial without a root in K, scanning
    degree 2 then 3 with coefficient tuples in lexicographic order.

    Degree 2 suffices except over degree-2 and degree-4 extensions, where
    every integer quadratic acquires a root and the scan moves on to cubics
    (an irreducible cubic over F_p has its roots in a degree-3 extension,
    which such fields do not contain).
    """
    x = Term.variable("x")
    if not K.is_finite:
        return RootlessPolynomial(x**2 + 1, K)
    p = K.characteristic
    for degree in (2, 3):
        for rest in iter_product(range(p), repeat=degree):
            poly = Term.sum(c * x ** (degree - i) for i, c in enumerate((1, *rest)) if c)
            try:
                return RootlessPolynomial(poly, K)
            except ValueError:
                # a monic integer candidate of degree >= 2 fails only for a root
                continue
    raise FieldSpecError(f"no rootless cubic over {K.spec()}")


def homogenize(p: RootlessPolynomial) -> Term:
    """Two-variable form sum(a_i * x^i * y^(n-i)); vanishes only at the
    origin exactly because p has no root."""
    a = p.coefficients()
    n = p.degree
    x = Term.variable("x")
    y = Term.variable("y")
    return Term.sum(c * x**i * y ** (n - i) for i, c in enumerate(a) if c)


_ROOTLESS_FORMS: dict[FieldDescriptor, Term] = {}


def _rootless_form(K: FieldDescriptor) -> Term:
    """homogenize(find_rootless(K)), found on first use and kept."""
    B = _ROOTLESS_FORMS.get(K)
    if B is None:
        B = _ROOTLESS_FORMS[K] = homogenize(find_rootless(K))
    return B


def combine_equations(eqs, B: Term, cap: int = DEFAULT_TERM_CAP) -> Term:
    """Balanced fold of B over the equations' left-hand sides: the first
    len - len//2 equations and the rest are folded recursively and become
    B's x and y.  The result is zero exactly where every input is, and for
    up to three equations it is the left fold B(B(e1, e2), e3).  With k
    equations its degree is at most deg(B)^ceil(log2 k) times the largest
    input degree.

    Before each substitution the monomial count of its expansion is
    bounded from above by the sum, over B's monomials x^i y^j, of
    |left|^i * |right|^j; CapExceededError when that exceeds `cap`."""
    eqs = list(eqs)
    if not eqs:
        raise ValueError("need at least one equation")
    if len(eqs) == 1:
        return eqs[0]
    half = len(eqs) - len(eqs) // 2
    left = combine_equations(eqs[:half], B, cap)
    right = combine_equations(eqs[half:], B, cap)
    sizes = {"x": len(left.coeffs), "y": len(right.coeffs)}
    estimate = sum(prod(sizes[v] ** e for v, e in mono) for mono, _ in B.coeffs)
    if estimate > cap:
        raise CapExceededError(
            f"folding {len(eqs)} equations expands to up to {estimate} monomials, over the cap {cap}"
        )
    return B.substitute({"x": left, "y": right})


def _linear_equation(A: Neighbourhood):
    """w1*x + w0 = 0 pinning A.r, available when r is an integer or
    rational image; None otherwise."""
    x = Term.variable("x")
    K = A.field
    if K.is_finite:
        # r is the image of c exactly when its coefficient vector is (c, 0, ..., 0)
        c, *rest = A.r.value
        if any(rest):
            return None
        p = K.characteristic
        return Equal(x + (p - c) % p, Term.zero())
    q = A.r.value
    return Equal(q.denominator * x - q.numerator, Term.zero())


def compile_singleton(
    A: Neighbourhood, prefer_linear: bool = False, cap: int = DEFAULT_TERM_CAP
) -> Formula:
    """One-equation defining formula: exists x2 ... xm (T(x, x2, ..., xm) = 0).

    The facts of A become polynomials e_i (xi + xj - xk, xi*xj - xk,
    xi - 1); a lone one is T itself.  Over Q, T is the sum of the e_i^2,
    which in an ordered field is zero only when every e_i is.  A finite
    field has no such flat combiner: by Chevalley-Warning every form in
    more variables than its degree has a nontrivial zero there, so T is
    the balanced fold of `combine_equations` through the field's rootless
    form, whose expansion `cap` bounds.  With prefer_linear=True an element
    of the prime-field image short-circuits to w1*x + w0 = 0 with no bound
    variables.
    """
    if prefer_linear:
        linear = _linear_equation(A)
        if linear is not None:
            return linear
    eqs = [lhs - rhs for lhs, rhs in _fact_equations(A, "x")]
    if len(eqs) == 1:
        (T,) = eqs
    elif A.field.is_finite:
        T = combine_equations(eqs, _rootless_form(A.field), cap)
    else:
        T = Term.sum(e * e for e in eqs)
    return _close_existentially(Equal(T, Term.zero()), "x")
