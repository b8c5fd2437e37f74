import random
from fractions import Fraction

import pytest

from defifix import fields
from defifix.errors import EvaluationError, FieldMismatchError, FormulaSyntaxError, InfiniteFieldError
from defifix.fields import FieldElement, enumerate_elements, make_field
from defifix.formulas import (
    And,
    Equal,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
    _Parser,
    definable_set,
    desugar,
    evaluate,
    free_variables,
    map_subformulas,
    parse,
    parse_term,
    print_formula,
    substitute_terms,
    subformulas,
)
from defifix.terms import Term

x, y = Term.variable("x"), Term.variable("y")
F5 = make_field("F5")
F7 = make_field("F7")


def test_parse_quantified_atom():
    f = parse("exists y. x = y*y")
    assert f == Exists("y", Equal(x, y * y))


def test_parse_negation_and_conjunction():
    f = parse("~(x = 0) & x + y = 1")
    assert f == And((Not(Equal(x, Term.zero())), Equal(x + y, Term.constant(1))))


def test_parse_quartic_square():
    f = parse("exists y. 1 + x^4 = y^2")
    assert f == Exists("y", Equal(1 + x**4, y**2))


def test_parse_neq_sugar_and_print_back():
    f = parse("x != 1")
    assert f == Not(Equal(x, Term.constant(1)))
    assert print_formula(f) == "x != 1"


def test_precedence_arrow_tighter_than_and():
    f = parse("x = 1 -> y = 1 & x = 0")
    assert isinstance(f, And)
    assert isinstance(f.parts[0], Implies)


def test_precedence_quantifier_loosest():
    f = parse("exists x. x = 1 | x = 0")
    assert isinstance(f, Exists)
    assert isinstance(f.body, Or)


def test_parse_parenthesized_formula_vs_term():
    f = parse("(x = 1) & y = 0")
    assert isinstance(f, And) and isinstance(f.parts[0], Equal)
    g = parse("(x + 1)*(x - 1) = 0")
    assert g == Equal(x**2 - 1, Term.zero())


def test_parse_reads_each_group_once(monkeypatch):
    # the atom reading of a "(" is tried only when an operator follows the
    # group, so no term is read twice: two per equation, plus one for the
    # parenthesized term (y + 1)
    starts = []
    term = _Parser.term

    def counted(self):
        starts.append(self.pos)
        return term(self)

    monkeypatch.setattr(_Parser, "term", counted)
    f = parse("((x = 1 & (y + 1)*y = 2) | (x = 2))")
    one, two = Term.constant(1), Term.constant(2)
    assert f == Or((And((Equal(x, one), Equal(y**2 + y, two))), Equal(x, two)))
    assert len(starts) == len(set(starts)) == 2 * 3 + 1


def test_parse_predicate_application():
    f = parse("N(x) & F(x, y + 1)")
    assert f == And(
        (PredicateApp("N", (x,)), PredicateApp("F", (x, y + Term.constant(1))))
    )


def test_parse_rational_coefficient():
    f = parse("1/2*x + y = 0")
    assert f == Equal(Fraction(1, 2) * x + y, Term.zero())
    with pytest.raises(FormulaSyntaxError):
        parse("x/y = 0")


def test_an_exponent_must_be_an_integer():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("x^y = 1")
    assert str(err.value) == "expected an integer exponent (line 1, column 3)"


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("exists . x = 1")
    assert err.value.column == 8
    with pytest.raises(FormulaSyntaxError):
        parse("x = ")
    with pytest.raises(FormulaSyntaxError):
        parse("x = 1 &")
    with pytest.raises(FormulaSyntaxError):
        parse("x @ 1")
    # "²" passes str.isdigit but int() rejects it
    with pytest.raises(FormulaSyntaxError, match="unexpected character '²'") as err:
        parse("x = ²")
    assert (err.value.line, err.value.column) == (1, 5)
    # names are ASCII: a superscript digit or a Greek letter is no part of one
    with pytest.raises(FormulaSyntaxError, match="unexpected character '²'") as err:
        parse("x² = 1")
    assert (err.value.line, err.value.column) == (1, 2)
    with pytest.raises(FormulaSyntaxError, match="unexpected character 'α'") as err:
        parse("α = 1")
    assert (err.value.line, err.value.column) == (1, 1)
    # numbers are ASCII digits: an Arabic-Indic three is no number, alone
    # or after a name
    for text, column in (("x = ٣", 5), ("x٣ = 1", 2), ("x = 1٣", 6)):
        with pytest.raises(FormulaSyntaxError, match="unexpected character '٣'") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)
    with pytest.raises(FormulaSyntaxError):
        parse("x = 1 extra")


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("x = 1 &\n  y @ 2", "unexpected character '@'", 2, 5),
        ("x = 1 &\n\n", "expected a term", 3, 1),
        # only "\n" starts a line: "\r" and a tab are one column each
        ("x = 1\r\n& y =\t@", "unexpected character '@'", 2, 7),
        ("x = 1\x85\x1c& y =\t@", "unexpected character '@'", 1, 14),
        ("x = 1\n& y = 2\n)", "unexpected trailing input ')'", 3, 1),
        ("exists y.\n  (x = y", "expected ')', found 'end of input'", 2, 9),
    ],
)
def test_positions_count_lines_and_columns(text, message, line, column):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("(x = 1) + 2 = 0", "unexpected trailing input '+'", 9),
        ("(x) & y = 1", "expected '=' or '!=' after term", 3),
        ("((x = 1)", "expected ')', found 'end of input'", 9),
        ("(x + 1 = 2", "expected ')', found 'end of input'", 11),
    ],
)
def test_parenthesized_syntax_errors_are_pinned(text, message, column):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line 1, column {column})"
    assert (err.value.line, err.value.column) == (1, column)


def test_print_examples():
    assert print_formula(Equal(x, Term.zero())) == "x = 0"
    f = Exists("y", And((Equal(y**2 - 2, Term.zero()), Equal(x, y))))
    assert print_formula(f) == "exists y. (y^2 - 2 = 0 & x = y)"
    g = And((Equal(x, y), Equal(y, x), Equal(x, x)))
    assert print_formula(g) == "x = y & y = x & x = x"


def test_print_disambiguates_nesting():
    inner = And((Equal(x, y), Equal(y, x)))
    outer = And((inner, Equal(x, x)))
    text = print_formula(outer)
    assert text == "(x = y & y = x) & x = x"
    assert parse(text) == outer


def test_print_quantifier_inside_connective():
    f = And((Exists("y", Equal(x, y)), Equal(x, x)))
    text = print_formula(f)
    assert text == "(exists y. x = y) & x = x"
    assert parse(text) == f


def _random_term(rng, pool):
    t = Term.zero()
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([1, 2, 3, -1, -2, Fraction(1, 2), Fraction(2, 3)])
        part = Term.constant(c)
        for _ in range(rng.randint(0, 2)):
            part = part * Term.variable(rng.choice(pool)) ** rng.randint(1, 2)
        t = t + part
    return t


def _random_formula(rng, pool, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            args = tuple(_random_term(rng, pool) for _ in range(rng.randint(1, 2)))
            return PredicateApp(rng.choice(["N", "P", "Rel"]), args)
        return Equal(_random_term(rng, pool), _random_term(rng, pool))
    kind = rng.randrange(7)
    if kind == 0:
        return Not(_random_formula(rng, pool, depth - 1))
    if kind == 1:
        n = rng.randint(2, 3)
        return And(tuple(_random_formula(rng, pool, depth - 1) for _ in range(n)))
    if kind == 2:
        n = rng.randint(2, 3)
        return Or(tuple(_random_formula(rng, pool, depth - 1) for _ in range(n)))
    if kind == 3:
        return Implies(_random_formula(rng, pool, depth - 1), _random_formula(rng, pool, depth - 1))
    if kind == 4:
        return Iff(_random_formula(rng, pool, depth - 1), _random_formula(rng, pool, depth - 1))
    node = Exists if kind == 5 else ForAll
    return node(rng.choice(pool), _random_formula(rng, pool, depth - 1))


def test_round_trip_on_random_corpus():
    rng = random.Random(405)
    pool = ["x", "y", "z", "u"]
    for _ in range(500):
        f = _random_formula(rng, pool, rng.randint(1, 4))
        assert parse(print_formula(f)) == f


def test_evaluate_square_membership():
    f = parse("exists y. x = y*y")
    assert evaluate(f, F5, {"x": F5.element(4)}) is True
    assert evaluate(f, F5, {"x": F5.element(2)}) is False


def test_evaluate_quartic_at_zero():
    f = parse("exists y. 1 + x^4 = y^2")
    assert evaluate(f, F5, {"x": F5.element(0)}) is True


def test_evaluate_requires_assignment_and_interp():
    with pytest.raises(EvaluationError):
        evaluate(parse("x = 1"), F5)
    with pytest.raises(EvaluationError):
        evaluate(parse("N(x)"), F5, {"x": F5.element(1)})


def test_evaluate_predicate_interpretation():
    f = parse("N(x)")
    interp = {"N": {F5.element(1), F5.element(2)}}
    assert evaluate(f, F5, {"x": F5.element(2)}, interp) is True
    assert evaluate(f, F5, {"x": F5.element(3)}, interp) is False
    g = parse("R(x, x + 1)")
    rel = {"R": {(F5.element(1), F5.element(2))}}
    assert evaluate(g, F5, {"x": F5.element(1)}, rel) is True
    assert evaluate(g, F5, {"x": F5.element(2)}, rel) is False


def test_evaluate_forall():
    assert evaluate(parse("forall x. x*x = x"), F5) is False
    assert evaluate(parse("forall x. 0*x = 0"), F5) is True
    with pytest.raises(InfiniteFieldError):
        evaluate(parse("forall x. x = x"), make_field("Q"))


def _reference_truth(f, K, env, interp):
    """Truth by FieldElement evaluation over enumerate_elements, for
    checking the kernel evaluator."""
    if isinstance(f, Equal):
        return f.lhs.evaluate(env, K) == f.rhs.evaluate(env, K)
    if isinstance(f, PredicateApp):
        values = tuple(a.evaluate(env, K) for a in f.args)
        table = interp[f.name]
        return (values[0] in table or values in table) if len(values) == 1 else values in table
    if isinstance(f, Not):
        return not _reference_truth(f.body, K, env, interp)
    if isinstance(f, (And, Or)):
        test = all if isinstance(f, And) else any
        return test(_reference_truth(p, K, env, interp) for p in f.parts)
    if isinstance(f, Implies):
        return not _reference_truth(f.lhs, K, env, interp) or _reference_truth(f.rhs, K, env, interp)
    if isinstance(f, Iff):
        return _reference_truth(f.lhs, K, env, interp) == _reference_truth(f.rhs, K, env, interp)
    test = any if isinstance(f, Exists) else all
    return test(_reference_truth(f.body, K, {**env, f.var: a}, interp) for a in enumerate_elements(K))


def test_kernel_evaluation_matches_field_element_reference():
    rng = random.Random(4077)
    pool = ["x", "y", "z"]
    other = make_field("F3").element(1)
    for spec in ("F5", "F7", "F2^2", "F3^2"):
        K = make_field(spec)
        elems = enumerate_elements(K)
        interp = {
            "N": set(rng.sample(elems, 3)) | {other},
            "P": {(a,) for a in rng.sample(elems, 2)},
            "Rel": {tuple(rng.sample(elems, 2)) for _ in range(5)} | {(elems[1], other)},
        }
        for _ in range(60):
            f = _random_formula(rng, pool, rng.randint(1, 3))
            env = {v: rng.choice(elems) for v in pool}
            got = _outcome(evaluate, f, K, env, interp)
            assert got == _outcome(_reference_truth, f, K, env, interp), print_formula(f)
            free = free_variables(f)
            if len(free) == 1:
                (v,) = free
                want = _outcome(lambda: {a for a in elems if _reference_truth(f, K, {v: a}, interp)})
                assert _outcome(definable_set, f, K, v, interp) == want, print_formula(f)


def _outcome(fn, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except EvaluationError as exc:
        return type(exc), str(exc)


def test_brute_force_oracle_does_no_field_element_arithmetic(monkeypatch):
    K = make_field("F3^2")
    f = parse("exists y. (x = y^2 & N(y + 1))")
    interp = {"N": {K.element(0), K.element([0, 1])}}
    want = definable_set(f, K, "x", interp)

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic in the oracle")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__", "inverse"):
        monkeypatch.setattr(FieldElement, op, refuse)
    assert definable_set(f, K, "x", interp) == want
    assert evaluate(f, K, {"x": K.element(1)}, interp) == (K.element(1) in want)


def test_quantifier_free_evaluation_builds_no_kernel():
    # one evaluation does not repay the O(q) tables of a million-element field
    K = make_field("F1000003")
    assert evaluate(parse("x^2 = 1 & x != 1"), K, {"x": K.element(-1)}) is True
    assert K not in fields._INT_FIELDS


def test_evaluation_ignores_unused_assignment_entries():
    # only the formula's free variables are read, on either path
    F7 = make_field("F7")
    for f in (parse("exists y. y = 1"), parse("1 = 1")):
        assert evaluate(f, F5, {"z": F7.element(1), "w": Fraction(1, 5)}) is True
    assert evaluate(parse("exists y. x = y"), F5, {"x": F5.element(2), "y": F7.element(3)}) is True


def test_evaluation_errors_keep_their_messages():
    F7 = make_field("F7")
    cases = [
        (parse("x = 1"), {}, {}, EvaluationError, "variable 'x' has no value"),
        (parse("N(x)"), {"x": F5.element(1)}, {}, EvaluationError, "predicate 'N' has no interpretation"),
        (Equal(Term.constant(Fraction(1, 5)) * x, Term.zero()), {"x": F5.element(1)}, {},
         EvaluationError, "coefficient 1/5 undefined in F5"),
    ]
    for f, env, interp, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            evaluate(f, F5, env, interp)
    with pytest.raises(InfiniteFieldError, match="^quantifier evaluation needs a finite field$"):
        evaluate(parse("exists y. x = y"), make_field("Q"), {"x": make_field("Q").element(1)})
    assert evaluate(parse("x = 1/2"), F7, {"x": F7.element(4)}) is True


def test_definable_set_examples():
    assert definable_set(parse("exists y. x = y*y"), F5, "x") == {
        F5.element(0),
        F5.element(1),
        F5.element(4),
    }
    assert definable_set(parse("x = 1"), F7, "x") == {F7.element(1)}
    f = parse("exists y. (x*y = 1 & x = y)")
    assert definable_set(f, F5, "x") == {F5.element(1), F5.element(4)}


def test_definable_set_checks_free_variables():
    with pytest.raises(EvaluationError):
        definable_set(parse("x = y"), F5, "x")
    with pytest.raises(EvaluationError):
        definable_set(parse("x = 1"), F5, "y")


def test_desugar_preserves_truth():
    rng = random.Random(406)
    pool = ["x", "y"]
    for _ in range(40):
        f = _random_formula(rng, pool, 2)
        if any(
            isinstance(sub, PredicateApp)
            for sub in _walk(f)
        ):
            continue
        g = desugar(f)
        assert not any(isinstance(sub, (Implies, Iff)) for sub in _walk(g))
        for a in range(5):
            env = {v: F5.element(a + i) for i, v in enumerate(sorted(free_variables(f)))}
            assert evaluate(f, F5, env) == evaluate(g, F5, env)


def _walk(f):
    yield f
    if isinstance(f, Not):
        yield from _walk(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _walk(p)
    elif isinstance(f, (Implies, Iff)):
        yield from _walk(f.lhs)
        yield from _walk(f.rhs)
    elif isinstance(f, (Exists, ForAll)):
        yield from _walk(f.body)


def test_subformulas_and_map_subformulas():
    f = parse("exists y. (x = y -> ~N(y)) & (x = 1 <-> (forall z. z = x)) | x = 2")

    def walk(g):
        yield g
        for h in subformulas(g):
            yield from walk(h)

    assert list(walk(f)) == list(_walk(f))
    for g in _walk(f):
        assert map_subformulas(g, lambda h: h) == g
    atom = parse("x = 1")
    assert subformulas(atom) == () and map_subformulas(atom, Not) is atom
    assert map_subformulas(parse("x = 1 & y = 2"), Not) == parse("x != 1 & y != 2")
    assert map_subformulas(parse("forall y. x = y"), Not) == parse("forall y. x != y")
    with pytest.raises(TypeError):
        subformulas("x = 1")


def test_wrong_field_assignment_is_one_error_on_either_path():
    for f in (parse("x = 1"), parse("exists y. x = y")):
        with pytest.raises(FieldMismatchError, match="^element of F7 used in F5$"):
            evaluate(f, F5, {"x": F7.element(1)})


def test_alpha_renaming_invariance():
    f = parse("exists y. x = y*y")
    g = parse("exists z. x = z*z")
    for a in range(5):
        env = {"x": F5.element(a)}
        assert evaluate(f, F5, env) == evaluate(g, F5, env)


def test_free_variables():
    assert free_variables(parse("exists y. x = y*y")) == {"x"}
    assert free_variables(parse("x = y")) == {"x", "y"}
    assert free_variables(parse("forall x. x = x")) == set()


def test_substitute_terms_respects_binding():
    f = parse("exists y. x = y*y")
    g = substitute_terms(f, {"x": Term.variable("w")})
    assert g == parse("exists y. w = y*y")
    # bound occurrences are untouched
    h = substitute_terms(f, {"y": Term.zero()})
    assert h == f


def test_parse_term_bare_polynomial():
    t = parse_term("y^2 - 2")
    assert t == Term.variable("y") ** 2 - Term.constant(2)
    assert parse_term("x") == Term.variable("x")
    with pytest.raises(FormulaSyntaxError):
        parse_term("y^2 = 0")  # an equation is not a term
    with pytest.raises(FormulaSyntaxError):
        parse_term("")
