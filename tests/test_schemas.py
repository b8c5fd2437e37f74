import dataclasses
import inspect
import pathlib

import pytest

import defifix
from defifix import schemas
from defifix.errors import SchemaError
from defifix.fields import make_field
from defifix.formulas import (
    PredicateApp,
    all_variables,
    definable_set,
    evaluate,
    free_variables,
    parse,
    print_formula,
)
from defifix.schemas import SchemaParams, emit
from defifix.terms import Term

GOLDEN = pathlib.Path(__file__).parent / "golden"

F5 = make_field("F5")
F7 = make_field("F7")


def golden_emissions():
    # the parameter choices each golden file was frozen with
    y = Term.variable("y")
    return {
        "robinson": schemas.robinson(y**2 - 2, y),
        "theorem2": schemas.theorem2(parse("x = x1^2"), y**2 - 2, y),
        "pyth_M": schemas.pyth_M(),
        "lt6": schemas.lt6(),
        "le7": schemas.le7(),
        "succ": schemas.succ(),
        "accum": schemas.accum(),
        "theorem6_def": schemas.theorem6_def(),
        "theorem7_sentence": schemas.theorem7_sentence(-2),
        "theorem7_def": schemas.theorem7_def(-2),
    }


def test_the_catalog_is_the_packages_names():
    assert schemas.SCHEMA_NAMES is defifix.SCHEMA_NAMES
    assert schemas.SCHEMA_NAMES == (
        "robinson", "theorem2", "pyth_M", "lt6", "le7", "succ", "accum",
        "theorem6_def", "theorem7_sentence", "theorem7_def",
    )


@pytest.mark.parametrize("name", schemas.SCHEMA_NAMES)
def test_each_template_takes_only_params_fields(name):
    # emit reads a template's parameters off its own arguments
    template = getattr(schemas, name)
    assert inspect.isfunction(template) and template.__module__ == schemas.__name__
    fields = {f.name for f in dataclasses.fields(SchemaParams)}
    for p in inspect.signature(template).parameters.values():
        assert p.kind is p.POSITIONAL_OR_KEYWORD and p.name in fields, (name, p)


@pytest.mark.parametrize("name", schemas.SCHEMA_NAMES)
def test_golden_matches_stored_text(name):
    stored = (GOLDEN / f"{name}.txt").read_text().strip()
    assert print_formula(golden_emissions()[name]) == stored


@pytest.mark.parametrize("name", schemas.SCHEMA_NAMES)
def test_golden_round_trips(name):
    stored = (GOLDEN / f"{name}.txt").read_text().strip()
    assert print_formula(parse(stored)) == stored


def test_root_image_shape():
    y = Term.variable("y")
    f = schemas.robinson(y**2 - 2, y)
    assert print_formula(f) == "exists y. (y^2 - 2 = 0 & x = y)"
    assert free_variables(f) == {"x"}


def test_root_image_rejects_stray_variables():
    y, x = Term.variable("y"), Term.variable("x")
    with pytest.raises(SchemaError):
        schemas.robinson(y + x, y)
    with pytest.raises(SchemaError):
        schemas.robinson(y**2 - 2, x)


def test_padded_core_binds_extras_then_root():
    y = Term.variable("y")
    f = schemas.theorem2(parse("x = x1^2"), y**2 - 2, y)
    assert print_formula(f) == "exists x1. exists y. (x = x1^2 & y^2 - 2 = 0 & x = y)"
    assert free_variables(f) == {"x"}


def test_padded_core_renames_colliding_root_variable():
    # the core already uses y, so the root binder shifts to y1
    y = Term.variable("y")
    f = schemas.theorem2(parse("x = y"), y**2 - 2, y)
    assert print_formula(f) == "exists y. exists y1. (x = y & y1^2 - 2 = 0 & x = y1)"
    assert free_variables(f) == {"x"}


def test_quartic_membership_set_over_f5():
    f = schemas.pyth_M()
    squares = {a * a for a in [F5.element(c) for c in range(5)]}
    expected = {
        a for a in (F5.element(c) for c in range(5)) if F5.element(1) + a**4 in squares
    }
    assert definable_set(f, F5, "x") == expected
    assert expected == {F5.element(0)}


def test_square_shift_order_over_f5():
    f = schemas.le7()
    squares = {a * a for a in [F5.element(c) for c in range(5)]}
    for a in (F5.element(c) for c in range(5)):
        for b in (F5.element(c) for c in range(5)):
            assert evaluate(f, F5, {"x": a, "y": b}) == ((b - a) in squares)


def test_successor_matches_hand_oracle_over_f5():
    elements = [F5.element(c) for c in range(5)]
    squares = {a * a for a in elements}
    marked = {F5.element(0), F5.element(1), F5.element(3)}

    def le(a, b):
        return (b - a) in squares

    def lt(a, b):
        return le(a, b) and a != b

    f = schemas.succ()
    interp = {"U": marked}
    for a in elements:
        for b in elements:
            expected = (
                lt(a, b)
                and a in marked
                and b in marked
                and all(not (lt(a, z) and lt(z, b)) or z not in marked for z in elements)
            )
            assert evaluate(f, F5, {"x": a, "y": b}, interp) == expected


def test_free_variable_contracts():
    assert free_variables(schemas.pyth_M()) == {"x"}
    assert free_variables(schemas.lt6()) == {"a", "b"}
    assert free_variables(schemas.le7()) == {"x", "y"}
    assert free_variables(schemas.succ()) == {"x", "y"}
    assert free_variables(schemas.accum()) == {"x"}
    assert free_variables(schemas.theorem6_def()) == {"x"}
    assert free_variables(schemas.theorem7_sentence(-2)) == set()
    assert free_variables(schemas.theorem7_def(-2)) == {"x"}


def test_sentence_folds_offsets_to_constants():
    text = print_formula(schemas.theorem7_sentence(-2))
    assert "x + 2" in text and "x + 4" in text
    assert free_variables(schemas.theorem7_sentence(-2)) == set()
    # |i| is what matters, not its sign
    assert schemas.theorem7_sentence(2) == schemas.theorem7_sentence(-2)


def test_instantiation_renames_capturing_binders():
    # F binds u, and the template applies F at (s, u): without the rename
    # the argument u would fall under F's own binder
    f = schemas.theorem6_def(F=parse("exists u. s + t = u"))
    text = print_formula(f)
    assert "(exists u1. s + u = u1)" in text
    assert free_variables(f) == {"x"}


def test_opaque_slots_are_arity_checked():
    with pytest.raises(SchemaError):
        schemas.theorem6_def(N=parse("q = 0"))
    with pytest.raises(SchemaError):
        schemas.theorem6_def(F=parse("s + q = t"))
    with pytest.raises(SchemaError):
        schemas.theorem7_sentence(-2, G=parse("x = s"))


def test_predicate_name_is_validated_and_threaded():
    f = schemas.theorem7_def(-2, predicate="Mark")
    assert "Mark(y)" in print_formula(f)
    with pytest.raises(SchemaError):
        schemas.succ(predicate="not a name")
    with pytest.raises(SchemaError):
        schemas.accum(predicate="exists")
    # the parser reads ASCII names only, so the emitted text parses back
    with pytest.raises(SchemaError):
        schemas.succ(predicate="α")
    assert parse(print_formula(schemas.succ(predicate="_W2"))) == schemas.succ(predicate="_W2")


def test_trace_membership_semantics_over_f7():
    # exists t. exists y. (x + t^2 = 0 & x = y + 2 & U(y)): -x must be a
    # square and x - 2 a predicate point
    f = schemas.theorem7_def(-2)
    assert definable_set(f, F7, "x", {"U": {F7.element(1)}}) == {F7.element(3)}
    assert definable_set(f, F7, "x", {"U": {F7.element(0)}}) == set()


def test_emit_dispatch_matches_direct_calls():
    y = Term.variable("y")
    assert emit("robinson", SchemaParams(U=y**2 - 2, V=y)) == schemas.robinson(
        y**2 - 2, y
    )
    assert emit("theorem7_def", SchemaParams(i=-2)) == schemas.theorem7_def(-2)
    assert emit("pyth_M") == schemas.pyth_M()
    assert emit("succ", SchemaParams(predicate="W")) == schemas.succ("W")
    # every template, with each of its parameters set, in call order
    N, F, G = parse("x = 1"), parse("s = t"), parse("s + t = 0")
    params = SchemaParams(U=y**2 - 2, V=y + 1, F=F, G=G, N=N, phi=parse("x = x1^2"),
                          predicate="W", i=-3)
    assert {name: emit(name, params) for name in schemas.SCHEMA_NAMES} == {
        "robinson": schemas.robinson(y**2 - 2, y + 1),
        "theorem2": schemas.theorem2(parse("x = x1^2"), y**2 - 2, y + 1),
        "pyth_M": schemas.pyth_M(),
        "lt6": schemas.lt6(),
        "le7": schemas.le7(),
        "succ": schemas.succ("W"),
        "accum": schemas.accum("W"),
        "theorem6_def": schemas.theorem6_def(N, F, G),
        "theorem7_sentence": schemas.theorem7_sentence(-3, F, G, "W"),
        "theorem7_def": schemas.theorem7_def(-3, "W"),
    }


def test_emit_rejects_missing_parameters_and_unknown_names():
    with pytest.raises(SchemaError, match=r"^schema 'robinson' requires parameter 'U'$"):
        emit("robinson")
    with pytest.raises(SchemaError, match=r"^schema 'theorem7_sentence' requires parameter 'i'$"):
        emit("theorem7_sentence")
    with pytest.raises(SchemaError, match=r"^schema 'theorem2' requires parameter 'phi'$"):
        emit("theorem2", SchemaParams(U=Term.variable("y")))
    with pytest.raises(SchemaError) as err:
        emit("no_such_template")
    assert str(err.value) == (
        "unknown schema 'no_such_template'; known: robinson, theorem2, pyth_M, lt6, le7,"
        " succ, accum, theorem6_def, theorem7_sentence, theorem7_def"
    )


def test_default_opaque_parameters_stay_predicate_applications():
    f = schemas.theorem6_def()
    text = print_formula(f)
    assert "N(s)" in text and "N(u)" in text and "N(v)" in text
    assert "F(s, u)" in text and "G(s, v)" in text


def test_sentence_clause_count_and_order():
    f = schemas.theorem7_sentence(-2)
    assert len(f.parts) == 5
    assert f.parts[0] == PredicateApp("U", (Term.constant(0),))
    assert all_variables(f) >= {"x", "s", "u", "v", "z", "e"}
