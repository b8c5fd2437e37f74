import operator
import time
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defifix import curve_lab, fields
from defifix.curve_lab import (
    ClosureRecipe,
    CurveData,
    abscissa_set,
    build_closure,
    coefficient_table,
    elementary_symmetric,
    symmetric_value_formula,
    verify_closure,
    w_set,
)
from defifix.errors import CapExceededError, EvaluationError, InfiniteFieldError
from defifix.fields import FieldElement, enumerate_elements, make_field
from defifix.formulas import definable_set, free_variables, parse_term, print_formula
from defifix.neighbourhood import Neighbourhood, enumerate_arithmetic_maps, is_neighbourhood
from defifix.terms import Term

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")
F7 = make_field("F7")

x = Term.variable("x")
y = Term.variable("y")
CURVE = y**2 - x**3 - x  # three abscissas over F_5


def test_abscissa_set_examples():
    assert abscissa_set(CURVE, F5) == [F5.element(0), F5.element(2), F5.element(3)]
    assert abscissa_set(y - x, F3) == enumerate_elements(F3)
    assert abscissa_set(y**2 + 1, F3) == []
    with pytest.raises(InfiniteFieldError):
        abscissa_set(CURVE, Q)


def test_coefficient_table_curve():
    m, h = coefficient_table(CURVE)
    assert m == 3
    assert len(h) == 16
    assert h[(0, 2)] == 1 and h[(3, 0)] == -1 and h[(1, 0)] == -1
    assert sum(1 for v in h.values() if v != 0) == 3


def test_coefficient_table_heights():
    m, h = coefficient_table(Fraction(1, 2) * x + y)
    assert m == 2
    assert h[(1, 0)] == Fraction(1, 2) and h[(0, 1)] == 1
    assert coefficient_table(x**5)[0] == 5
    with pytest.raises(ValueError):
        coefficient_table(Term.zero())
    with pytest.raises(ValueError):
        coefficient_table(Term.variable("z") + x)


def test_w_set():
    assert w_set(1) == (Fraction(-1), Fraction(0), Fraction(1))
    w2 = w_set(2)
    assert Fraction(1, 2) in w2 and Fraction(-2) in w2
    assert len(w2) == 7  # 0, +-1, +-2, +-1/2; duplicates like 2/2 merge
    assert w_set(2) is w2  # built once per height


def test_elementary_symmetric():
    vals = [Q.element(1), Q.element(2), Q.element(3)]
    assert elementary_symmetric(1, vals) == Q.element(6)
    assert elementary_symmetric(2, vals) == Q.element(11)
    assert elementary_symmetric(3, vals) == Q.element(6)
    for bad in (0, 4):
        with pytest.raises(ValueError):
            elementary_symmetric(bad, vals)


def test_curve_data_build():
    c = CurveData.build(CURVE, F5)
    assert c.m == 3
    assert c.abscissas == (F5.element(0), F5.element(2), F5.element(3))
    assert c.witnesses == (F5.element(0), F5.element(0), F5.element(0))
    assert c.n == 3
    j = c.to_json()
    assert j["m"] == 3 and j["abscissas"] == ["[0]", "[2]", "[3]"]


def test_curve_data_needs_room_for_denominators():
    with pytest.raises(ValueError):
        CurveData.build(CURVE, F3)  # m=3 needs characteristic > 3
    with pytest.raises(ValueError):
        CurveData.build(y**2 + 1, F7)  # no points
    with pytest.raises(InfiniteFieldError):
        CurveData.build(CURVE, Q)


def test_closure_covers_field_and_verifies():
    c = CurveData.build(CURVE, F5)
    for mode in ("paper", "prefix"):
        recipe = build_closure(c, mode=mode)
        # the rational grid alone already covers all of F_5
        assert set(recipe.elements) == set(enumerate_elements(F5))
        assert [str(t) for t in recipe.targets] == ["[0]", "[1]", "[0]"]
        for k in (1, 2, 3):
            assert is_neighbourhood(recipe.neighbourhood(k)).yes
        report = verify_closure(c, recipe)
        assert report["maps"] == 1
        assert report["identity_on_w_image"]
        assert report["abscissas_into_abscissas"]
        assert report["injective_on_abscissas"]
        assert all(row["is_neighbourhood"] for row in report["per_k"])


def test_closure_blocks_inside_assembly():
    # the building blocks, recomputed here with FieldElements, all lie in
    # the assembled set: the grid image, the grid-scaled monomials of each
    # point, the products of distinct abscissas, their differences and the
    # inverses of those, and the targets
    for spec in ("F5", "F7", "F13"):
        K = make_field(spec)
        c = CurveData.build(CURVE, K)
        recipe = build_closure(c)
        elements = set(recipe.elements)
        assert set(recipe.w_image) == {K.element(q) for q in w_set(c.m)}
        assert set(recipe.w_image) <= elements
        for u, z in zip(c.abscissas, c.witnesses):
            for i in range(c.m + 1):
                for j in range(c.m + 1):
                    assert {b * u**i * z**j for b in recipe.w_image} <= elements
        for k in range(1, c.n + 1):
            for combo in combinations(c.abscissas, k):
                assert reduce(operator.mul, combo) in elements
        for a, b in permutations(c.abscissas, 2):
            assert a - b in elements
            assert (a - b).inverse() in elements
        for k, t in enumerate(recipe.targets, start=1):
            assert t == elementary_symmetric(k, c.abscissas)
            assert t in elements


def test_prefix_closure_within_paper_closure():
    c = CurveData.build(y - x**2, F7)
    paper = build_closure(c, mode="paper")
    prefix = build_closure(c, mode="prefix")
    assert set(prefix.elements) <= set(paper.elements)
    assert verify_closure(c, prefix)["per_k"] == verify_closure(c, paper)["per_k"]


def test_single_abscissa_degenerate():
    c = CurveData.build(x, F5)
    assert c.abscissas == (F5.element(0),)
    recipe = build_closure(c)
    # no differences, and the closure adds nothing beyond W(1)'s image
    assert recipe.elements == recipe.w_image
    assert recipe.targets == (F5.element(0),)
    report = verify_closure(c, recipe)
    assert report["per_k"] == [
        {"k": 1, "target": "[0]", "in_closure": True, "is_neighbourhood": True}
    ]


def test_closure_caps_and_modes():
    # 5 block values: the first 7 subset sums hold all of F5, so a cap of
    # 10 is never met; a cap of 5 refuses the third row, which would make 7
    c = CurveData.build(CURVE, F5)
    assert len(build_closure(c, mode="paper", cap=10).elements) == 5
    with pytest.raises(CapExceededError, match="^5 block values give more than 5 subset sums$"):
        build_closure(c, mode="paper", cap=5)
    with pytest.raises(ValueError):
        build_closure(c, mode="subsets")


def test_closure_cap_bounds_abscissa_products():
    # x^2 = 2 has 2 abscissas over F5^2 and a 9-element closure, so its
    # closure reads the 3 products, which are refused unbuilt at cap 2
    c = CurveData.build(x**2 - 2, make_field("F5^2"))
    assert c.n == 2
    assert len(build_closure(c).elements) == 9
    with pytest.raises(CapExceededError, match="^2 abscissas give more than 2 products$"):
        build_closure(c, cap=2)


def test_closure_cap_bounds_the_assembled_closure():
    # one abscissa, one product, but the closure fills all of F11
    c = CurveData.build(x**3 - 2 * x, make_field("F11"))
    assert c.n == 1
    with pytest.raises(CapExceededError, match="^closure size 11 exceeds cap 10$"):
        build_closure(c, cap=10)
    assert len(build_closure(c, cap=11).elements) == 11


def test_symmetric_formula_degenerate():
    f = symmetric_value_formula(CURVE, 1, 1)
    assert print_formula(f) == (
        "exists u1. exists s1. (-u1^3 + s1^2 - u1 = 0 & v = u1)"
    )
    assert free_variables(f) == {"v"}


def test_symmetric_formula_definable_values():
    for k, expected in ((1, 0), (3, 0)):
        f = symmetric_value_formula(CURVE, 3, k)
        assert definable_set(f, F5, "v") == {F5.element(expected)}
    with pytest.raises(ValueError):
        symmetric_value_formula(CURVE, 3, 4)
    with pytest.raises(ValueError):
        symmetric_value_formula(CURVE, 3, 0)


def test_symmetric_formula_distinctness_matters():
    # over F_3 the line y=x has all three abscissas; t_1 = 0+1+2
    f = symmetric_value_formula(y - x, 3, 1)
    assert definable_set(f, F3, "v") == {F3.element(0)}


# -- tabulated partners against the q^2 scan ----------------------------------


def _scanned_partners(g, K):
    """(u, s) as element indices for every abscissa u and its first
    partner s, by evaluating g at up to q^2 points."""
    T = fields.int_field(K)
    g_at = g.compile(T)
    points = []
    for u in range(T.q):
        for s in range(T.q):
            if g_at({"x": u, "y": s}) == 0:
                points.append((u, s))
                break
    return points


def _outcome(find, g, K):
    try:
        return find(g, K)
    except Exception as e:
        return type(e), str(e)


PARTNER_FIELDS = ("F2", "F3", "F5", "F7", "F13", "F2^3", "F3^2", "F5^2")
# separable curves, curves with no x or no y, constants, curves with a
# monomial in both x and y, and undefined coefficients and variables
PARTNER_CURVES = ("y^2 - x^3 - x", "y - x", "y^2 + 1", "x^2 - 2", "x^3 - 2*x", "y^4 - 3",
                  "1/2*x - y^2", "2/3*y^3 + x^5 - 1/7", "7", "0", "x*y - 1",
                  "x^2*y + y^2 - x", "1/5*x + y", "1/3*x^2 + 2/3*y", "x + z", "z*y - 1",
                  "x*y + 1/5")


def test_tabulated_partners_match_the_scan():
    errors = set()
    for spec in PARTNER_FIELDS:
        K = make_field(spec)
        for text in PARTNER_CURVES:
            g = parse_term(text)
            got = _outcome(curve_lab._first_partners, g, K)
            assert got == _outcome(_scanned_partners, g, K), (spec, text)
            if isinstance(got, tuple):
                errors.add(got)
    assert (EvaluationError, "variable 'z' has no value") in errors
    assert (EvaluationError, "coefficient 1/5 undefined in F5") in errors
    # the first undefined coefficient in g's own order is the one named,
    # though its monomial is in x and the y part is tabulated first
    assert (EvaluationError, "coefficient 1/3 undefined in F3") in errors
    with pytest.raises(EvaluationError, match="^variable 'z' has no value$"):
        abscissa_set(parse_term("y - z"), F5)


def test_only_a_curve_with_a_mixed_monomial_is_scanned(monkeypatch):
    scanned = []
    scan = curve_lab._scanned_partners

    def spy(g_at, q):
        scanned.append(q)
        return scan(g_at, q)

    monkeypatch.setattr(curve_lab, "_scanned_partners", spy)
    K = make_field("F13")
    for text in ("y^2 - x^3 - x", "1/2*x - y^2", "x^2 - 2", "y^4 - 3", "7"):
        curve_lab._first_partners(parse_term(text), K)
    assert scanned == []
    for text in ("x*y - 1", "x^2*y + y^2 - x"):
        curve_lab._first_partners(parse_term(text), K)
    assert scanned == [13, 13]


@settings(max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.fractions(-6, 6, max_denominator=6).filter(bool), max_size=5),
       st.booleans(), st.sampled_from(PARTNER_FIELDS))
def test_tabulated_partners_match_the_scan_on_random_curves(coefficients, separable, spec):
    K = make_field(spec)
    g = Term.sum(Term.constant(c) * x**i * y**j for (i, j), c in coefficients.items()
                 if not (separable and i and j))
    assert _outcome(curve_lab._first_partners, g, K) == _outcome(_scanned_partners, g, K)


# -- the kernel construction against a FieldElement reference ----------------


def _reference_curve(g, K):
    """(abscissas, witnesses): the first partner of each abscissa, by
    FieldElement evaluation over the enumeration."""
    elems = enumerate_elements(K)
    points = []
    for u in elems:
        for s in elems:
            if g.evaluate({"x": u, "y": s}, K).is_zero:
                points.append((u, s))
                break
    return tuple(u for u, _ in points), tuple(s for _, s in points)


def _reference_closure(c, mode, cap):
    """build_closure's construction in FieldElement arithmetic: (elements,
    targets, w_image), or the CapExceededError build_closure raises. The
    products of distinct abscissas are read, and their cap checked, only
    when the grid-scaled monomials, which come first, leave out some
    element of K."""
    K, n, m = c.field, c.n, c.m
    u, z = c.abscissas, c.witnesses
    w_image = list(dict.fromkeys(K.element(q) for q in w_set(m)))
    powers = [[[u[kk] ** i * z[kk] ** j for j in range(m + 1)] for i in range(m + 1)] for kk in range(n)]
    scaled = [b * pw for point in powers for row in point for pw in row for b in w_image]
    products = []
    if len(set(scaled)) < K.order:
        if 2**n - 1 > cap:
            raise CapExceededError(f"{n} abscissas give more than {cap} products")
        products = [
            [reduce(operator.mul, (u[i] for i in combo), K.one()) for combo in combinations(range(n), kk + 1)]
            for kk in range(n)
        ]
    block = list(dict.fromkeys(scaled + [a for row in products for a in row]))
    closure = []
    if mode == "paper":
        # the sum over mask is at index mask: bit i stands for block[i];
        # the sums stop once they hold all of K, and a row that would take
        # their count past cap is refused
        sums = [K.zero()]
        for b in block:
            if len(set(sums[1:])) == K.order:
                break
            if 2 * len(sums) - 1 > cap:
                raise CapExceededError(f"{len(block)} block values give more than {cap} subset sums")
            sums += [s + b for s in sums]
        closure = sums[1:]
    else:
        for kk in range(n):
            closure += accumulate(K.element(c.h[(i, j)]) * powers[kk][i][j]
                                  for i in range(m + 1) for j in range(m + 1) if c.h[(i, j)] != 0)
        for row in products:
            closure += accumulate(row)
    differences = [a - b for a, b in permutations(u, 2)]
    differences += [d.inverse() for d in differences]
    head = [] if mode == "paper" else w_image + block
    elements = tuple(dict.fromkeys(head + closure + differences))
    if len(elements) > cap:
        raise CapExceededError(f"closure size {len(elements)} exceeds cap {cap}")
    targets = tuple(elementary_symmetric(k, u) for k in range(1, n + 1))
    return elements, targets, tuple(w_image)


def test_kernel_closure_matches_field_element_reference():
    # at cap 2 x^2 - 2 over F5^2 reads its 3 products (its closure has 9
    # elements), so each of the three caps is met: the products, the
    # subset sums and the closure size
    polys = ["y^2 - x^3 - x", "y - x^2", "2*x - y + 1", "x^2 + y^2 - 1", "1/2*x - y^2",
             "x^2 - 2", "x^3 - 2*x", "x^2 + 1 - y^4"]
    refused = set()
    for spec in ("F5", "F7", "F11", "F13", "F17", "F3^2", "F5^2"):
        K = make_field(spec)
        for text in polys:
            g = parse_term(text)
            try:
                c = CurveData.build(g, K)
            except ValueError:
                assert K.characteristic <= coefficient_table(g)[0] or not _reference_curve(g, K)[0]
                continue
            assert (c.abscissas, c.witnesses) == _reference_curve(g, K)
            for mode, cap in product(("prefix", "paper"), (2**12, 2)):
                try:
                    want = _reference_closure(c, mode, cap)
                except CapExceededError as e:
                    with pytest.raises(CapExceededError, match=f"^{e}$"):
                        build_closure(c, mode=mode, cap=cap)
                    refused.add(str(e).split()[1])
                    continue
                recipe = build_closure(c, mode=mode, cap=cap)
                assert (recipe.elements, recipe.targets, recipe.w_image) == want, (spec, text, mode)
                if len(recipe.elements) <= 60:
                    reference = ClosureRecipe(mode, *want)
                    assert verify_closure(c, recipe) == verify_closure(c, reference)
    assert refused == {"abscissas", "block", "size"}


def test_curve_data_rejects_points_off_the_curve():
    c = CurveData.build(CURVE, F5)
    moved = (F5.element(1),) + c.witnesses[1:]
    with pytest.raises(ValueError, match=r"\(\[0\], \[1\]\) is not on the curve"):
        CurveData(c.g, F5, c.m, c.h, c.abscissas, moved)


def test_curve_data_checks_its_height_and_points():
    c = CurveData.build(CURVE, F5)
    with pytest.raises(ValueError, match="need characteristic > 5"):
        CurveData(c.g, F5, 5, c.h, c.abscissas, c.witnesses)
    with pytest.raises(ValueError, match="abscissas must be pairwise distinct"):
        CurveData(c.g, F5, c.m, c.h, c.abscissas[:1] * 2, c.witnesses[:1] * 2)
    with pytest.raises(ValueError, match="one witness per abscissa"):
        CurveData(c.g, F5, c.m, c.h, c.abscissas, c.witnesses[:-1])


def test_curve_data_by_hand_in_a_large_field_builds_no_kernel():
    K = make_field("F1000003")
    g = y - x**2
    m, h = coefficient_table(g)
    c = CurveData(g, K, m, h, (K.element(3), K.element(-1)), (K.element(9), K.element(1)))
    assert c.n == 2
    with pytest.raises(ValueError, match=r"\(\[3\], \[8\]\) is not on the curve"):
        CurveData(g, K, m, h, (K.element(3),), (K.element(8),))
    assert K not in fields._INT_FIELDS


def test_closure_does_no_field_element_arithmetic(monkeypatch):
    curves = [(CURVE, F5), (y - x**2, F7), (CURVE, make_field("F5^2"))]
    want = [(c, build_closure(c, mode=mode)) for g, K in curves
            for c in [CurveData.build(g, K)] for mode in ("prefix", "paper") if c.n < 5]

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic in the closure")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__", "inverse"):
        monkeypatch.setattr(FieldElement, op, refuse)
    for g, K in curves:
        CurveData.build(g, K)
    assert [(c, build_closure(c, mode=r.mode)) for c, r in want] == want


# -- where verify_closure takes its maps ---------------------------------------


def _searched_report(c, recipe):
    """verify_closure's report from the maps the search finds on the
    closure, read as FieldElement maps."""
    maps = enumerate_arithmetic_maps(Neighbourhood(c.field, recipe.elements, 0))
    u = c.abscissas
    per_k = []
    for k, t in enumerate(recipe.targets, start=1):
        present = t in recipe.elements
        per_k.append({"k": k, "target": str(t), "in_closure": present,
                      "is_neighbourhood": present and all(f(t) == t for f in maps)})
    return {
        "mode": recipe.mode,
        "size": len(recipe.elements),
        "maps": len(maps),
        "identity_on_w_image": all(f(a) == a for f in maps for a in recipe.w_image),
        "abscissas_into_abscissas": all(f(a) in u for f in maps for a in u),
        "injective_on_abscissas": all(len({f(a) for a in u}) == len(u) for f in maps),
        "per_k": per_k,
    }


def _spy_on_the_search(monkeypatch):
    calls = []

    def spy(A, cap):
        calls.append(A)
        return enumerate_arithmetic_maps(A, cap=cap)

    monkeypatch.setattr(curve_lab, "enumerate_arithmetic_maps", spy)
    return calls


def test_whole_field_closures_read_the_automorphisms(monkeypatch):
    # a closure that holds all of K reports what the map search on it
    # reports, with no search run; only the smaller ones are searched.
    # F3^2 and F5^2 have two maps
    polys = ["y^2 - x^3 - x", "y - x^2", "2*x - y + 1", "x^2 + y^2 - 1", "x^3 - 2*x"]
    calls = _spy_on_the_search(monkeypatch)
    whole, partial = set(), 0
    for spec in ("F5", "F7", "F11", "F13", "F17", "F19", "F23", "F3^2", "F5^2"):
        K = make_field(spec)
        for text in polys:
            g = parse_term(text)
            if K.characteristic <= coefficient_table(g)[0]:
                continue
            c = CurveData.build(g, K)
            for mode in ("prefix", "paper"):
                try:
                    recipe = build_closure(c, mode=mode)
                except CapExceededError:
                    continue  # a paper-mode block of more than 19 values
                report = verify_closure(c, recipe)
                if len(recipe.elements) == K.order:
                    whole.add((spec, report["maps"]))
                else:
                    partial += 1
                assert len(calls) == partial
                assert report == _searched_report(c, recipe), (spec, text, mode)
    assert {spec for spec, _ in whole} == {"F5", "F7", "F11", "F13", "F17", "F19", "F23", "F3^2", "F5^2"}
    assert ("F3^2", 2) in whole and ("F5^2", 2) in whole


def test_a_partial_closure_has_its_maps_searched(monkeypatch):
    # (0, 0) is the one point of x^2 + y^2 over F103, and the closure is
    # W(2)'s image: 0, +-1, +-2, +-1/2
    K = make_field("F103")
    c = CurveData.build(parse_term("x^2 + y^2"), K)
    recipe = build_closure(c)
    assert [str(a) for a in recipe.elements] == ["[101]", "[102]", "[51]", "[0]", "[52]", "[1]", "[2]"]
    calls = _spy_on_the_search(monkeypatch)
    report = verify_closure(c, recipe)
    assert len(calls) == 1
    assert report == _searched_report(c, recipe) == {
        "mode": "prefix",
        "size": 7,
        "maps": 1,
        "identity_on_w_image": True,
        "abscissas_into_abscissas": True,
        "injective_on_abscissas": True,
        "per_k": [{"k": 1, "target": "[0]", "in_closure": True, "is_neighbourhood": True}],
    }


def test_the_cap_counts_the_automorphisms():
    K = make_field("F5^2")
    c = CurveData.build(CURVE, K)
    recipe = build_closure(c)
    assert len(recipe.elements) == 25
    with pytest.raises(CapExceededError, match="^more than 1 arithmetic maps$"):
        verify_closure(c, recipe, cap=1)
    assert verify_closure(c, recipe, cap=2)["maps"] == 2


def test_a_closure_that_fills_its_field_is_quick():
    # 19 abscissas over F37: the grid-scaled monomials fill the field
    # before any of the 2^19 - 1 products is needed, so a cap that admits
    # the closure admits the curve
    c = CurveData.build(CURVE, make_field("F37"))
    assert c.n == 19
    start = time.process_time()
    report = verify_closure(c, build_closure(c))
    assert time.process_time() - start < 0.2
    assert report["size"] == 37 and report["maps"] == 1
    assert build_closure(c, cap=37) == build_closure(c)
