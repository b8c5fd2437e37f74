import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, permutations

import pytest

from defifix import fields
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
from defifix.errors import CapExceededError, InfiniteFieldError
from defifix.fields import FieldElement, enumerate_elements, make_field
from defifix.formulas import definable_set, free_variables, parse_term, print_formula
from defifix.neighbourhood import is_neighbourhood
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
    assert w_set(1) == [Fraction(-1), Fraction(0), Fraction(1)]
    w2 = w_set(2)
    assert Fraction(1, 2) in w2 and Fraction(-2) in w2
    assert len(w2) == 7  # 0, +-1, +-2, +-1/2; duplicates like 2/2 merge


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
    c = CurveData.build(CURVE, F5)
    with pytest.raises(CapExceededError):
        build_closure(c, mode="paper", cap=10)
    with pytest.raises(ValueError):
        build_closure(c, mode="subsets")


def test_closure_cap_bounds_abscissa_products():
    # y = x has 13 abscissas over F13: the 8191 products are refused unbuilt
    c = CurveData.build(y - x, make_field("F13"))
    assert c.n == 13
    with pytest.raises(CapExceededError, match="13 abscissas"):
        build_closure(c, cap=100)


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
    targets, w_image), or CapExceededError where build_closure raises it."""
    K, n, m = c.field, c.n, c.m
    u, z = c.abscissas, c.witnesses
    if 2**n - 1 > cap:
        raise CapExceededError("abscissa products")
    w_image = list(dict.fromkeys(K.element(q) for q in w_set(m)))
    powers = [[[u[kk] ** i * z[kk] ** j for j in range(m + 1)] for i in range(m + 1)] for kk in range(n)]
    scaled = [b * pw for point in powers for row in point for pw in row for b in w_image]
    products = [
        [reduce(operator.mul, (u[i] for i in combo), K.one()) for combo in combinations(range(n), kk + 1)]
        for kk in range(n)
    ]
    block = list(dict.fromkeys(scaled + [a for row in products for a in row]))
    closure = []
    if mode == "paper":
        if 2 ** len(block) - 1 > cap:
            raise CapExceededError("subset sums")
        # the sum over mask is at index mask: bit i stands for block[i]
        sums = [K.zero()]
        for b in block:
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
        raise CapExceededError("closure size")
    targets = tuple(elementary_symmetric(k, u) for k in range(1, n + 1))
    return elements, targets, tuple(w_image)


def test_kernel_closure_matches_field_element_reference():
    polys = ["y^2 - x^3 - x", "y - x^2", "2*x - y + 1", "x^2 + y^2 - 1", "1/2*x - y^2",
             "x^2 - 2", "x^3 - 2*x", "x^2 + 1 - y^4"]
    cap = 2**12
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
            for mode in ("prefix", "paper"):
                try:
                    want = _reference_closure(c, mode, cap)
                except CapExceededError:
                    with pytest.raises(CapExceededError):
                        build_closure(c, mode=mode, cap=cap)
                    continue
                recipe = build_closure(c, mode=mode, cap=cap)
                assert (recipe.elements, recipe.targets, recipe.w_image) == want, (spec, text, mode)
                if len(recipe.elements) <= 60:
                    reference = ClosureRecipe(mode, *want)
                    assert verify_closure(c, recipe) == verify_closure(c, reference)


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
