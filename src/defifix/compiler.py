"""Between neighbourhoods and existential formulas, in both directions.

A neighbourhood's internal addition/multiplication facts written out as a
conjunction pin its distinguished element; conversely a defining formula's
witness values, found by the constraint search of `normalize` on its
normal form, assemble back into a neighbourhood.  The single-equation
encoder turns the emitted equation system into one polynomial that
vanishes exactly where every equation does: over Q the sum of their
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
    NoSatisfiableDisjunctError,
    NotDefiningError,
    NotSingletonError,
)
from .fields import FieldDescriptor, int_field
from .formulas import Equal, Exists, Formula, conj, free_variables
from .neighbourhood import Neighbourhood, facts, neighbourhood
from .normalize import (
    DEFAULT_DNF_CAP,
    ConstraintSearch,
    normalize,
    normalized_definable_set,
)
from .terms import Term

# bound on the monomials a single-equation fold may expand to
DEFAULT_TERM_CAP = 10**6


# -- fact emission ---------------------------------------------------------


def _kept_facts(A: Neighbourhood):
    """The facts worth writing down, in a deterministic order.

    Commuted duplicates are dropped, as are instances already implied by a
    kept atom: a product with a factor 1 follows from that factor's `= 1`
    atom, and a sum or product with a factor 0 follows from the always-kept
    `0 + 0 = 0` atom.  The remaining conjunction has exactly the same
    solutions as the full fact list.
    """
    fs = facts(A)
    elems = A.elements
    zero = A.field.zero()
    one = A.field.one()
    ones = sorted(fs.ones)
    sums = []
    for i, j, k in sorted(fs.sums):
        if i > j:
            continue
        if (elems[i] == zero or elems[j] == zero) and not i == j == k:
            continue
        sums.append((i, j, k))
    products = []
    for i, j, k in sorted(fs.products):
        if i > j:
            continue
        if elems[i] in (zero, one) or elems[j] in (zero, one):
            continue
        products.append((i, j, k))
    return ones, sums, products


def _fact_equations(A: Neighbourhood, free_name: str) -> list[tuple[Term, Term]]:
    """The kept facts as (lhs, rhs) term pairs: A.r is named `free_name`,
    the other elements x2, x3, ... in stored order."""
    ones, sums, products = _kept_facts(A)
    if A.target_index not in set(ones).union(*sums, *products):
        raise NotDefiningError(
            "the distinguished element participates in no fact; "
            "any map moving it alone is arithmetic"
        )
    others = (i for i in range(len(A.elements)) if i != A.target_index)
    v = {i: Term.variable(f"x{n}") for n, i in enumerate(others, 2)}
    v[A.target_index] = Term.variable(free_name)
    return (
        [(v[i], Term.constant(1)) for i in ones]
        + [(v[i] + v[j], v[k]) for i, j, k in sums]
        + [(v[i] * v[j], v[k]) for i, j, k in products]
    )


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
    once (`cap` bounds the disjunctive normal form) and everything after
    runs on the constraint search: the definable set is the union of the
    systems' projections, each value's search stopping at its first
    witness; the first solution of the first satisfiable system supplies
    the witness values, and {1, r} plus those values is the answer.
    """
    if not K.is_finite:
        raise InfiniteFieldError("recovering a neighbourhood needs a finite field")
    fv = free_variables(f)
    if len(fv) != 1:
        raise NotSingletonError(f"expected one free variable, found {sorted(fv)}")
    nf = normalize(f, cap)
    target = normalized_definable_set(nf, K)
    if len(target) != 1:
        raise NotSingletonError(
            f"definable set has {len(target)} elements", definable=target
        )
    (r,) = target
    for system in nf.systems:
        search = ConstraintSearch(system, K)
        witness = next(search.solutions(), None)
        if witness is None:
            continue
        element = search.kernel.element
        return neighbourhood(K, [K.one(), r, *map(element, witness)], r)
    raise NoSatisfiableDisjunctError("no disjunct is satisfiable")


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
            poly = x**degree
            for offset, c in enumerate(rest):
                if c:
                    poly = poly + c * x ** (degree - 1 - offset)
            if _find_root(poly, "x", K) is None:
                return RootlessPolynomial(poly, K)
    raise FieldSpecError(f"no rootless cubic over {K.spec()}")


def homogenize(p: RootlessPolynomial) -> Term:
    """Two-variable form sum(a_i * x^i * y^(n-i)); vanishes only at the
    origin exactly because p has no root."""
    a = p.coefficients()
    n = p.degree
    x = Term.variable("x")
    y = Term.variable("y")
    out = Term.zero()
    for i, c in enumerate(a):
        if c:
            out = out + c * x**i * y ** (n - i)
    return out


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
        p = K.characteristic
        for c in range(p):
            if K.element(c) == A.r:
                return Equal(x + (p - c) % p, Term.zero())
        return None
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
    if A.field.is_finite or len(eqs) == 1:
        T = combine_equations(eqs, _rootless_form(A.field), cap)
    else:
        T = sum((e * e for e in eqs), Term.zero())
    return _close_existentially(Equal(T, Term.zero()), "x")
