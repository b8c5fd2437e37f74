import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

import defifix.normalize
from _gen import random_existential_formula
from defifix import compiler, fields, formulas
from defifix.compiler import (
    RootlessPolynomial,
    combine_equations,
    compile_singleton,
    find_rootless,
    formula_to_neighbourhood,
    homogenize,
    neighbourhood_to_formula,
)
from defifix.engine import One, Plus, Times, atom_indices, forcing_cone, solve_system
from defifix.errors import (
    CapExceededError,
    InfiniteFieldError,
    NotDefiningError,
    NotSingletonError,
)
from defifix.fields import enumerate_elements, make_field
from defifix.formulas import And, Exists, definable_set, free_variables, parse, print_formula
from defifix.neighbourhood import (
    Neighbourhood,
    certify_by_propagation,
    fact_system,
    is_neighbourhood,
    nbhd_rational,
    neighbourhood,
)
from defifix.normalize import (
    ConstraintSearch,
    normalize,
    normalized_definable_set,
)
from defifix.terms import Term

Q = make_field("Q")
F2 = make_field("F2")
F3 = make_field("F3")
F5 = make_field("F5")
F7 = make_field("F7")
F4 = make_field("F2^2")
F8 = make_field("F2^3")
F9 = make_field("F3^2")

x = Term.variable("x")


def test_formula_from_doubling_pair():
    f = neighbourhood_to_formula(neighbourhood(F7, [1, 2], 2))
    assert print_formula(f) == "exists x2. (x2 = 1 & 2*x2 = x1)"
    assert definable_set(f, F7, "x1") == {F7.element(2)}


def test_formula_from_one():
    f = neighbourhood_to_formula(neighbourhood(F3, [1], 1))
    assert print_formula(f) == "x1 = 1"


def test_formula_from_zero():
    f = neighbourhood_to_formula(neighbourhood(F5, [0], 0))
    assert print_formula(f) == "2*x1 = x1"
    assert definable_set(f, F5, "x1") == {F5.element(0)}


def test_unrelated_element_raises():
    # the only facts touching 5 are the dropped tautologies 1*5=5, 5*1=5
    with pytest.raises(NotDefiningError):
        neighbourhood_to_formula(neighbourhood(F7, [1, 5], 5))


def test_recover_from_sum_formula():
    f = parse("exists y. (x = y + y & y = 1)")
    A = formula_to_neighbourhood(f, F7)
    assert set(A.elements) == {F7.element(1), F7.element(2)}
    assert A.r == F7.element(2)
    assert is_neighbourhood(A).yes


def test_recover_trivial():
    A = formula_to_neighbourhood(parse("x = 1"), F5)
    assert A.elements == (F5.element(1),)
    assert A.r == F5.element(1)


def test_recover_rejects_non_singleton():
    with pytest.raises(NotSingletonError) as e:
        formula_to_neighbourhood(parse("exists y. x = y * y"), F5)
    assert e.value.definable == {F5.element(0), F5.element(1), F5.element(4)}
    with pytest.raises(NotSingletonError):
        formula_to_neighbourhood(parse("x = y"), F5)
    with pytest.raises(InfiniteFieldError):
        formula_to_neighbourhood(parse("x = 1"), Q)


def test_round_trip_f5():
    for c in range(5):
        A = nbhd_rational(c, F5)
        f = neighbourhood_to_formula(A)
        assert definable_set(f, F5, "x1") == {F5.element(c)}
        B = formula_to_neighbourhood(f, F5)
        assert B.r == F5.element(c)
        assert is_neighbourhood(B).yes


def _reference_recovery(f, K):
    """Brute-force definable set, then the first solution of the first
    satisfiable disjunct: ("ok", elements, target_index) or
    ("not-singleton", definable)."""
    (free,) = free_variables(f)
    target = definable_set(f, K, free)
    if len(target) != 1:
        return "not-singleton", target
    (r,) = target
    for system in normalize(f).systems:
        solutions = solve_system(system, K)
        if solutions:
            ordered = [K.one(), r] + [solutions[0][name] for name in system.variables]
            elements = list(dict.fromkeys(ordered))
            return "ok", tuple(elements), elements.index(r)
    raise AssertionError("a singleton with no satisfiable disjunct")


def test_recovery_matches_brute_force_reference():
    rng = random.Random(4099)
    outcomes = set()
    for K in (F5, F7, F4, F9):
        for _ in range(50):
            f = random_existential_formula(rng)
            want = _reference_recovery(f, K)
            outcomes.add(want[0])
            if want[0] == "ok":
                A = formula_to_neighbourhood(f, K)
                assert (A.elements, A.target_index) == want[1:], print_formula(f)
            else:
                with pytest.raises(NotSingletonError) as e:
                    formula_to_neighbourhood(f, K)
                assert e.value.definable == want[1], print_formula(f)
    assert outcomes == {"ok", "not-singleton"}


def _two_pass_recovery(f, K):
    """The definable set first, then a second search of every system for
    the first solution of the first satisfiable one."""
    (r,) = normalized_definable_set(normalize(f), K)
    for system in normalize(f).systems:
        search = ConstraintSearch(system, K)
        witness = next(search.solutions(), None)
        if witness is not None:
            return neighbourhood(K, [K.one(), r, *map(search.kernel.element, witness)], r)
    raise AssertionError("a singleton with no satisfiable disjunct")


def test_recovery_equals_the_two_pass_answer(monkeypatch):
    built = []

    class CountingSearch(ConstraintSearch):
        def __init__(self, s, K):
            built.append(s)
            super().__init__(s, K)

    # the first disjunct x = 1 & x = 2 has no solution
    f = parse("(x = 1 & x = 2) | (exists y. (y = 1 & x = y + y))")
    assert next(ConstraintSearch(normalize(f).systems[0], F7).solutions(), None) is None
    cases = [(f, F7)]
    rng = random.Random(4100)
    for K in (F5, F7, F4, F9):
        found = 0
        while found < 8:
            g = random_existential_formula(rng)
            if len(normalized_definable_set(normalize(g), K)) == 1:
                cases.append((g, K))
                found += 1
    monkeypatch.setattr(defifix.normalize, "ConstraintSearch", CountingSearch)
    for g, K in cases:
        want = _two_pass_recovery(g, K)
        built.clear()
        got = formula_to_neighbourhood(g, K)
        assert got == want, print_formula(g)
        assert built == list(normalize(g).systems), print_formula(g)


def test_formula_conjuncts_are_the_fact_system_atoms():
    rng = random.Random(4101)
    for K in (F5, F7, F4, F9, Q):
        pool = list(enumerate_elements(K)) if K.is_finite else [K.element(c) for c in range(-3, 7)]
        for _ in range(20):
            chosen = rng.sample(pool, rng.randint(1, min(5, len(pool))))
            A = Neighbourhood(K, tuple(chosen), rng.randrange(len(chosen)))
            atoms = fact_system(A).atoms
            if not any(A.target_index in atom_indices(a) for a in atoms):
                with pytest.raises(NotDefiningError):
                    neighbourhood_to_formula(A)
                continue
            body = neighbourhood_to_formula(A)
            while isinstance(body, Exists):
                body = body.body
            parts = [(eq.lhs, eq.rhs) for eq in (body.parts if isinstance(body, And) else (body,))]
            others = [i for i in range(len(A.elements)) if i != A.target_index]
            name = {i: f"x{n}" for n, i in enumerate(others, 2)} | {A.target_index: "x1"}
            v = {i: Term.variable(n) for i, n in name.items()}
            written = []
            for a in atoms:
                if isinstance(a, One):
                    written.append((v[a.i], Term.constant(1)))
                elif isinstance(a, Plus):
                    written.append((v[a.i] + v[a.j], v[a.k]))
                else:
                    written.append((v[a.i] * v[a.j], v[a.k]))
            # the conjuncts are atoms in order; all of them unless certified
            kept = iter(written)
            assert all(part in kept for part in parts), A.to_json()
            if not certify_by_propagation(A):
                assert parts == written, A.to_json()


def _bound_and_body(f):
    n = 0
    while isinstance(f, Exists):
        n, f = n + 1, f.body
    return n, f


def _defines(f, K, free, r):
    """Whether f defines {r}: the brute-force oracle where |K|^(bound + 1)
    <= 10^5, the normal form's definable set elsewhere."""
    bound, _ = _bound_and_body(f)
    if K.order ** (bound + 1) <= 10**5:
        return definable_set(f, K, free) == {r}
    return normalized_definable_set(normalize(f), K) == {r}


def test_compiled_chains_define_their_targets():
    # every conjunction (x1) and single equation (x) defines exactly {r}.
    # A single equation small enough is evaluated at every point; every
    # one is the fold of its conjunction through a form whose only zero is
    # the origin, so it vanishes where every conjunct does
    for spec in ("F5", "F7", "F11", "F13", "F2^2", "F3^2"):
        K = make_field(spec)
        B = homogenize(find_rootless(K))
        elems = enumerate_elements(K)
        assert [(a, b) for a in elems for b in elems
                if B.evaluate({"x": a, "y": b}, K).is_zero] == [(K.zero(), K.zero())]
        for q in [*range(40), 100, 1000]:  # integers: no denominator vanishes
            A = nbhd_rational(q, K)
            joined = neighbourhood_to_formula(A)
            assert _defines(joined, K, "x1", A.r), (spec, q)
            folded = compile_singleton(A)
            eqs = _conjunction_polys(A)
            T = eqs[0] if len(eqs) == 1 else combine_equations(eqs, B)
            assert _equation(folded) == T, (spec, q)
            bound, _ = _bound_and_body(folded)
            if K.order ** (bound + 1) <= 500:
                assert definable_set(folded, K, "x") == {A.r}, (spec, q)


def test_the_chain_leaves_out_facts_that_do_not_force_the_target():
    # in {4, 2, 1} over F5, 1 = 1, then 2 = 1 + 1, then 4 = 1 - 2 force 4;
    # the square 4 * 4 = 1 holds but is not kept
    A = nbhd_rational(4, F5)
    assert [str(a) for a in A.elements] == ["[4]", "[2]", "[1]"]
    s = fact_system(A)
    square = Times(0, 0, 2)
    assert square in s.atoms
    assert square not in forcing_cone(s, s.free_index)
    f = neighbourhood_to_formula(A)
    assert print_formula(f) == "exists x2. exists x3. (x3 = 1 & x1 + x2 = x3 & 2*x3 = x2)"
    assert definable_set(f, F5, "x1") == {F5.element(4)}
    assert definable_set(compile_singleton(A), F5, "x") == {F5.element(4)}


def test_an_uncertified_target_keeps_every_fact():
    # in {1, 4} over F5 only 4 * 4 = 1 reaches 4, and a square sets
    # nothing, so nothing is left out
    A = neighbourhood(F5, [1, 4], 4)
    assert not certify_by_propagation(A)
    assert forcing_cone(fact_system(A), A.target_index) is None
    assert print_formula(neighbourhood_to_formula(A)) == "exists x2. (x2 = 1 & x1^2 = x2)"
    assert print_formula(compile_singleton(A)) == (
        "exists x2. 2*x^4 - 4*x^2*x2 + 3*x2^2 - 2*x2 + 1 = 0"
    )


def test_round_trip_extension_fields():
    rng = random.Random(8191)
    for K in (F4, F9):
        elems = list(enumerate_elements(K))
        accepted = 0
        while accepted < 12:
            chosen = rng.sample(elems, rng.randint(1, 4))
            A = Neighbourhood(K, tuple(chosen), rng.randrange(len(chosen)))
            if not is_neighbourhood(A).yes:
                continue
            accepted += 1
            B = formula_to_neighbourhood(neighbourhood_to_formula(A), K)
            assert B.r == A.r
            assert is_neighbourhood(B).yes


def test_recovery_does_not_evaluate(monkeypatch):
    A = nbhd_rational(Fraction(123, 7), make_field("F13"))
    f = neighbourhood_to_formula(A)

    def refuse(*args, **kwargs):
        raise AssertionError("brute-force evaluation on the recovery path")

    monkeypatch.setattr(formulas, "evaluate", refuse)
    monkeypatch.setattr(Term, "evaluate", refuse)
    B = formula_to_neighbourhood(f, A.field)
    assert B.r == A.r == A.field.element(12)
    assert is_neighbourhood(B).yes


def test_find_rootless_goldens():
    assert find_rootless(F2).poly == x**2 + x + 1
    assert find_rootless(F3).poly == x**2 + 1
    assert find_rootless(F5).poly == x**2 + 2
    assert find_rootless(F7).poly == x**2 + 1
    assert find_rootless(Q).poly == x**2 + 1
    # no integer quadratic survives a degree-2 extension
    assert find_rootless(F4).poly == x**3 + x + 1
    assert find_rootless(F9).poly == x**3 + 2 * x + 1
    assert find_rootless(F8).poly == x**2 + x + 1


def _first_rootless_by_evaluation(K):
    """Reference scan: monic polynomials of degree 2 then 3, the constant
    term varying fastest, each evaluated at every element of K."""
    elems = enumerate_elements(K)
    for degree in (2, 3):
        for low in itertools.product(range(K.p), repeat=degree):
            poly = Term.sum(c * x**i for i, c in enumerate((*low[::-1], 1)) if c)
            if all(not poly.evaluate({"x": a}, K).is_zero for a in elems):
                return poly
    raise AssertionError(f"no rootless cubic over {K.spec()}")


@pytest.mark.parametrize(
    "spec", ["F2", "F3", "F5", "F7", "F11", "F13", "F2^2", "F2^3", "F2^4", "F3^2", "F3^3", "F5^2"]
)
def test_find_rootless_is_the_first_candidate_without_a_root(spec):
    # the canonical quadratic or cubic modulus is what scanning every
    # candidate at every element finds first
    K = make_field(spec)
    assert find_rootless(K).poly == _first_rootless_by_evaluation(K)


def test_find_rootless_scans_each_candidate_once(monkeypatch):
    scan = compiler._find_root
    for K in (F2, F3, F5, F7, F4, F9, Q):
        scanned = []

        def counting(poly, var, field):
            scanned.append(str(poly))
            return scan(poly, var, field)

        monkeypatch.setattr(compiler, "_find_root", counting)
        found = find_rootless(K)
        assert len(scanned) == len(set(scanned)), K.spec()
        assert scanned[-1] == str(found.poly)


def test_rootless_search_builds_no_table_of_a_large_field():
    # a root is decided as gcd(f, x^q - x) over F_p, and a degree dividing
    # the field's degree, where every candidate has a root, is skipped
    for spec, poly in [("F1000003", x**2 + 1), ("F1009^2", x**3 + 2), ("F101^4", x**3 + x + 1)]:
        K = make_field(spec)
        fields._INT_FIELDS.pop(K, None)
        start = time.process_time()
        assert find_rootless(K).poly == poly
        assert time.process_time() - start < 1.0, spec
        assert K not in fields._INT_FIELDS


def test_single_equation_over_a_large_prime_builds_no_table():
    K = make_field("F1000003")
    fields._INT_FIELDS.pop(K, None)
    start = time.process_time()
    f = compile_singleton(neighbourhood(K, [K.element(v) for v in (1, 2, 3)], K.element(3)))
    assert time.process_time() - start < 0.5
    assert K not in fields._INT_FIELDS
    assert print_formula(f).startswith("exists x2. exists x3. 25*x2^4 - 40*x2^3*x3")


def test_rootless_polynomials_have_no_roots():
    for K in (F2, F3, F5, F7, F4, F8, F9):
        p = find_rootless(K)
        assert all(
            not p.poly.evaluate({"x": a}, K).is_zero for a in enumerate_elements(K)
        )


def test_rootless_validation():
    with pytest.raises(ValueError):
        RootlessPolynomial(x**2 - 1, Q)  # root 1
    with pytest.raises(ValueError):
        RootlessPolynomial(x**2 - 2, F7)  # 3*3 = 2
    with pytest.raises(ValueError):
        RootlessPolynomial(x + 1, Q)  # degree too small
    with pytest.raises(ValueError):
        RootlessPolynomial(x**2 + Fraction(1, 2), Q)
    with pytest.raises(ValueError, match="expected a univariate polynomial"):
        RootlessPolynomial(x * Term.variable("y") + 1, Q)
    with pytest.raises(ValueError, match=r"^x\^2 - 2 has a root in F7$"):
        RootlessPolynomial(x**2 - 2, F7)
    with pytest.raises(ValueError, match=r"x\^2 \+ x has root 0 in Q"):
        RootlessPolynomial(x**2 + x, Q)
    RootlessPolynomial(x**2 - 2, Q)  # irrational roots are fine
    RootlessPolynomial(2 * x**2 - 2 * x + 1, Q)  # non-monic, roots (1+-i)/2


def test_divisors_by_trial_division_to_the_square_root():
    for n in range(1, 2001):
        assert compiler._divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_rootless_over_q_with_a_large_constant_term():
    # the rational-root scan lists the constant's divisors from its prime
    # factors, so a smooth constant costs nothing like its square root
    start = time.process_time()
    RootlessPolynomial(x**2 + 10**12, Q)
    assert time.process_time() - start < 1.0


def test_rational_roots_of_a_huge_smooth_constant_term():
    start = time.process_time()
    RootlessPolynomial(x**2 + 10**20, Q)
    assert time.process_time() - start < 1.0
    start = time.process_time()
    with pytest.raises(ValueError, match="has root 10000000000 in Q"):
        RootlessPolynomial(x**2 - 10**20, Q)
    assert time.process_time() - start < 1.0


def test_rational_roots_of_a_constant_term_with_large_prime_factors():
    for c in ((10**7 + 19) * (10**7 + 79), 10**20 + 39):
        start = time.process_time()
        RootlessPolynomial(x**2 + c, Q)
        assert time.process_time() - start < 1.0, c


def _first_rational_root_by_scan(coeffs):
    """Reference: the divisor scan, numerator, then denominator, then sign."""
    poly = Term.sum(c * x**i for i, c in enumerate(coeffs) if c)
    if coeffs[0] == 0:
        return "root 0"
    for num in compiler._divisors(coeffs[0]):
        for den in compiler._divisors(coeffs[-1]):
            for sign in (1, -1):
                a = Q.element(Fraction(sign * num, den))
                if poly.evaluate({"x": a}, Q).is_zero:
                    return f"root {a}"
    return None


def test_quadratic_roots_from_the_discriminant_are_the_scanned_ones():
    rng = random.Random(2989)
    cases = list(itertools.product(range(-4, 5), repeat=3))
    for _ in range(200):
        # (p x + q)(r x + s), so that both roots are rational
        p, q, r, s = (rng.randint(-30, 30) for _ in range(4))
        cases.append((q * s, p * s + q * r, p * r))
    for c, b, a in cases:
        if a == 0:
            continue
        poly = Term.sum(k * x**i for i, k in enumerate((c, b, a)) if k)
        got = compiler._find_root(poly, "x", Q)
        assert got == _first_rational_root_by_scan([c, b, a]), (c, b, a)


def test_quadratic_with_a_large_prime_constant_term_is_quick():
    # 2^89 - 1 is prime and above the bound where Miller-Rabin is exact, so
    # factoring it would trial-divide to its square root
    m = 2**89 - 1
    start = time.process_time()
    RootlessPolynomial(x**2 + m, Q)
    with pytest.raises(ValueError, match=f"has root {m} in Q"):
        RootlessPolynomial(x**2 - m * m, Q)
    assert time.process_time() - start < 1.0


def test_higher_degree_with_an_unfactorable_end_coefficient_is_refused():
    m = 2**89 - 1
    start = time.process_time()
    for poly in (x**3 + m, m * x**3 + 1):
        with pytest.raises(ValueError, match="cannot decide whether .* has a rational root"):
            RootlessPolynomial(poly, Q)
    RootlessPolynomial(x**3 + 2**100, Q)  # as large, but smooth: factored, no root
    assert time.process_time() - start < 1.0


def test_homogenize_goldens():
    y = Term.variable("y")
    assert homogenize(RootlessPolynomial(x**2 + 1, Q)) == x**2 + y**2
    assert homogenize(RootlessPolynomial(x**2 + x + 1, F2)) == x**2 + x * y + y**2
    assert homogenize(RootlessPolynomial(x**2 - 2, Q)) == x**2 - 2 * y**2


def test_homogenize_restricts_to_original():
    for K in (F2, F3, F5, F7, F4, F8, F9, Q):
        p = find_rootless(K)
        B = homogenize(p)
        assert B.substitute({"x": x, "y": Term.constant(1)}) == p.poly


def test_combine_equations_fold():
    u = Term.variable("u")
    v = Term.variable("v")
    w = Term.variable("w")
    B = homogenize(find_rootless(F3))
    assert combine_equations([u], B) == u
    T2 = combine_equations([u, v], B)
    assert T2 == u**2 + v**2
    zeros = {
        (a, b)
        for a in enumerate_elements(F3)
        for b in enumerate_elements(F3)
        if T2.evaluate({"u": a, "v": b}, F3).is_zero
    }
    assert zeros == {(F3.element(0), F3.element(0))}
    T3 = combine_equations([u, v, w], B)
    zeros3 = {
        triple
        for triple in itertools.product(enumerate_elements(F3), repeat=3)
        if T3.evaluate(dict(zip("uvw", triple)), F3).is_zero
    }
    assert zeros3 == {(F3.element(0),) * 3}
    with pytest.raises(ValueError):
        combine_equations([], B)


def test_origin_only_small_fields():
    for K in (F3, F5, F7):
        B = homogenize(find_rootless(K))
        for a in enumerate_elements(K):
            for b in enumerate_elements(K):
                vanished = B.evaluate({"x": a, "y": b}, K).is_zero
                assert vanished == (a.is_zero and b.is_zero)


def test_compile_single_fact():
    f = compile_singleton(neighbourhood(F3, [1], 1))
    assert print_formula(f) == "x - 1 = 0"


def test_single_fact_needs_no_rootless_form(monkeypatch):
    monkeypatch.setattr(compiler, "_ROOTLESS_FORMS", {})
    for K in (Q, F7):
        f = compile_singleton(neighbourhood(K, [1], 1))
        assert print_formula(f) == "x - 1 = 0"
    assert compiler._ROOTLESS_FORMS == {}
    compile_singleton(nbhd_rational(2, Q))
    assert compiler._ROOTLESS_FORMS == {}
    compile_singleton(nbhd_rational(2, F7))
    assert list(compiler._ROOTLESS_FORMS) == [F7]


def test_compile_zero():
    # the lone fact 0+0=0 gives x+x-x, canonically the term x
    f = compile_singleton(neighbourhood(F5, [0], 0))
    assert print_formula(f) == "x = 0"
    assert definable_set(f, F5, "x") == {F5.element(0)}


def test_compile_doubling_pair():
    f = compile_singleton(neighbourhood(F7, [1, 2], 2))
    assert free_variables(f) == {"x"}
    body = f.body
    assert body.lhs.free_variables() == {"x", "x2"}
    assert definable_set(f, F7, "x") == {F7.element(2)}


def test_compile_matches_conjunction_form():
    # the brute-force oracle runs over every assignment of the bound
    # variables, so the targets stop where a few seconds do (F7 4 is in
    # test_compile_definable_sets_match_conjunction below)
    for K, top in ((F5, 5), (F7, 4)):
        for c in range(top):
            A = nbhd_rational(c, K)
            folded = definable_set(compile_singleton(A), K, "x")
            joined = definable_set(neighbourhood_to_formula(A), K, "x1")
            assert folded == joined == {K.element(c)}


def test_compile_not_defining():
    with pytest.raises(NotDefiningError):
        compile_singleton(neighbourhood(F7, [1, 5], 5))


def test_linear_shortcut():
    f = compile_singleton(neighbourhood(F7, [1, 2], 2), prefer_linear=True)
    assert print_formula(f) == "x + 5 = 0"
    assert definable_set(f, F7, "x") == {F7.element(2)}
    g = compile_singleton(nbhd_rational(Fraction(1, 2), Q), prefer_linear=True)
    assert print_formula(g) == "2*x - 1 = 0"
    h = compile_singleton(nbhd_rational(0, F5), prefer_linear=True)
    assert print_formula(h) == "x = 0"


def test_linear_shortcut_falls_back_outside_prime_subfield():
    gen = F4.element([0, 1])
    A = neighbourhood(F4, [0, 1, gen, gen + F4.one()], 1)
    f = compile_singleton(A, prefer_linear=True)
    assert print_formula(f) == "x + 1 = 0"  # -1 = 1 in the prime image
    # a target outside the prime subfield takes the folded route
    B = neighbourhood(F4, [gen, gen * gen], gen)
    g = compile_singleton(B, prefer_linear=True)
    assert free_variables(g) == {"x"}
    assert print_formula(g).startswith("exists x2. ")



def _equation(f):
    """The polynomial of a single-equation formula, under its quantifiers."""
    while isinstance(f, Exists):
        f = f.body
    return f.lhs - f.rhs


def _conjunction_polys(A):
    """The fact polynomials of A's conjunction form, its target named x
    as in the single equation."""
    body = neighbourhood_to_formula(A)
    while isinstance(body, Exists):
        body = body.body
    parts = body.parts if isinstance(body, And) else (body,)
    x1 = {"x1": Term.variable("x")}
    return [eq.lhs.substitute(x1) - eq.rhs.substitute(x1) for eq in parts]


def _fact_polys(A):
    """Every atom of fact_system(A) as a polynomial in v0, v1, ...: the
    equations compile_singleton folds when propagation does not certify
    A's target."""
    v = [Term.variable(f"v{i}") for i in range(len(A.elements))]
    out = []
    for a in fact_system(A).atoms:
        if isinstance(a, One):
            out.append(v[a.i] - 1)
        elif isinstance(a, Plus):
            out.append(v[a.i] + v[a.j] - v[a.k])
        else:
            out.append(v[a.i] * v[a.j] - v[a.k])
    return out


def _left_fold(eqs, B):
    T = eqs[0]
    for e in eqs[1:]:
        T = B.substitute({"x": T, "y": e})
    return T


def test_compile_definable_sets_match_conjunction():
    gen4 = F4.element([0, 1])
    cases = [
        nbhd_rational(-1, F5),
        nbhd_rational(4, F7),
        nbhd_rational(4, make_field("F11")),
        neighbourhood(F4, [0, 1, gen4], 0),
        nbhd_rational(2, F9),
        neighbourhood(F9, [1, 2], 1),
    ]
    counts = set()
    for A in cases:
        K = A.field
        counts.add(len(fact_system(A).atoms))
        folded = definable_set(compile_singleton(A), K, "x")
        joined = definable_set(neighbourhood_to_formula(A), K, "x1")
        assert folded == joined == {A.r}, (K.spec(), A.elements)
    assert min(counts) == 4 and max(counts) == 7
    # the degree-2 extensions fold through a cubic form
    assert homogenize(find_rootless(F4)).degree() == homogenize(find_rootless(F9)).degree() == 3


def test_sum_of_squares_over_q():
    rng = random.Random(2718)
    seen = 0
    while seen < 25:
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 15))
        A = nbhd_rational(q, Q)
        eqs = _conjunction_polys(A)
        if len(eqs) < 3:
            continue
        seen += 1
        T = _equation(compile_singleton(A))
        assert T == sum((e * e for e in eqs), Term.zero())
        others = (a for i, a in enumerate(A.elements) if i != A.target_index)
        witness = {"x": A.r, **{f"x{n}": a for n, a in enumerate(others, 2)}}
        witness = {v: witness[v] for v in T.free_variables()}
        assert T.evaluate(witness, Q).is_zero
        for v in witness:
            # a denominator no element has keeps (a + d)^2 = a^2 out of reach
            d = Q.element(Fraction(rng.randint(1, 1000), 1009))
            moved = dict(witness, **{v: witness[v] + d})
            assert not T.evaluate(moved, Q).is_zero, (q, v)


def test_combine_equations_small_counts_are_the_left_fold():
    u, v, w, z = (Term.variable(n) for n in "uvwz")
    eqs = [u * v - w, u + 1, v * v - 2 * w, z - u]
    for K in (F2, F3, F5, F7, F4, F8, F9):
        B = homogenize(find_rootless(K))
        for k in (1, 2, 3):
            assert combine_equations(eqs[:k], B) == _left_fold(eqs[:k], B)
        pair = B.substitute({"x": eqs[0], "y": eqs[1]})
        tail = B.substitute({"x": eqs[2], "y": eqs[3]})
        assert combine_equations(eqs, B) == B.substitute({"x": pair, "y": tail})


def test_compiled_degree_follows_the_fold_depth():
    cases = [(K, c) for K in (F5, F7, make_field("F11"), make_field("F13"), Q)
             for c in (2, 3, 4, -2, Fraction(1, 2))]
    cases += [(Q, c) for c in (Fraction(5, 3), Fraction(-7, 12), 100, 10**30)]
    depths = set()
    for K, c in cases:
        A = nbhd_rational(c, K)
        eqs = _conjunction_polys(A)
        k = len(eqs)
        b = homogenize(find_rootless(K)).degree()
        depth = (k - 1).bit_length()  # ceil(log2 k)
        depths.add(depth)
        T = _equation(compile_singleton(A))
        assert T.degree() <= b**depth * max(e.degree() for e in eqs), (K.spec(), c)
    assert max(depths) >= 3


def test_compile_stays_small_on_seven_or_more_facts():
    for A in (nbhd_rational(4, F7), nbhd_rational(Fraction(5, 3), Q)):
        assert len(fact_system(A).atoms) >= 7
        start = time.process_time()
        text = print_formula(compile_singleton(A))
        assert time.process_time() - start < 1.0
        assert len(text) < 10_000


_PINNED_SINGLE_EQUATIONS = [
    (4, "F7", 178, "220113c23f68a6fc01a81cc926fd9066bea8bada40ce4eab8f0bb95cd6c5b5ed"),
    (5, "F11", 483, "30eba92e41bdb155853235c9fe4228af141cde47df220d82081ce6bae8b3bfa0"),
    (6, "F13", 581, "76b05683fc821520d175ed0e490fce2a5f0a67210c2f8c08f14ba470acc6696e"),
    (3, "F7", 321, "4efcba6bb7cee0c5cc8db1ae81d5da9b4800c2af5adeb52b514eac2c6bc1c900"),
    (Fraction(5, 3), "Q", 155, "67a3ec49e535dacf97adc15f0d8d4f9a809c4b273a42d09e8c4866bd5ecda2ec"),
    (5, "F7", 613, "eab0f78a9d3d7a044d02cb4beedf715e83cee632cfc76b5cdcc692ecdd2a540c"),
]


@pytest.mark.parametrize(
    "q, spec, chars, sha256", _PINNED_SINGLE_EQUATIONS,
    ids=[f"{q}-{spec}" for q, spec, _, _ in _PINNED_SINGLE_EQUATIONS],
)
def test_single_equation_text_is_pinned(q, spec, chars, sha256):
    # larger than any compile-roundtrip item of the benchmark, so only this
    # test sees a change in the fold's printed output
    text = print_formula(compile_singleton(nbhd_rational(q, make_field(spec))))
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (chars, sha256)


def test_combine_equations_cap_bounds_the_expansion():
    u, v, w = (Term.variable(n) for n in "uvw")
    B = homogenize(find_rootless(F7))  # x^2 + y^2
    eqs = [u * v - w, u + v + 1]
    # sum over B's monomials x^i y^j of |left|^i * |right|^j: 2^2 + 3^2
    assert combine_equations(eqs, B, cap=13) == B.substitute({"x": eqs[0], "y": eqs[1]})
    with pytest.raises(CapExceededError, match="up to 13 monomials, over the cap 12"):
        combine_equations(eqs, B, cap=12)
    # nbhd_rational(10, F7) keeps 19 facts; the default cap refuses their
    # fold at its last step, whose estimate is about 5 * 10^7, before
    # expanding it
    start = time.process_time()
    with pytest.raises(CapExceededError):
        combine_equations(_fact_polys(nbhd_rational(10, F7)), B)
    assert time.process_time() - start < 2.0
    with pytest.raises(CapExceededError):
        combine_equations(_fact_polys(nbhd_rational(4, F7)), B, cap=100)
    # {0, 1, 4, 6} is a neighbourhood of 4 that propagation does not
    # certify, so its single equation folds all 5 facts
    A = neighbourhood(F7, [0, 1, 4, 6], 4)
    assert not certify_by_propagation(A) and is_neighbourhood(A).yes
    assert len(fact_system(A).atoms) == 5
    f = compile_singleton(A)
    with pytest.raises(CapExceededError):
        compile_singleton(A, cap=100)
    assert definable_set(f, F7, "x") == {F7.element(4)}
