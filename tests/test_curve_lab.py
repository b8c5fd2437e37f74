from fractions import Fraction

import pytest

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
from defifix.fields import enumerate_elements, make_field
from defifix.formulas import definable_set, free_variables, print_formula
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
    c = CurveData.build(CURVE, F5)
    recipe = build_closure(c)
    elements = set(recipe.elements)
    for row in recipe.products:
        assert set(row) <= elements
    assert set(recipe.w_image) <= elements
    assert set(recipe.scaled_monomials) <= elements
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
    assert recipe.differences == ()
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
