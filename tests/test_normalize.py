import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import random_existential_formula
from defifix.engine import atom_indices, solve_system
from defifix.errors import CapExceededError, InfiniteFieldError, NormalizationError
from defifix.fields import enumerate_elements, make_field
from defifix.formulas import (
    And,
    Equal,
    Exists,
    Not,
    Or,
    definable_set,
    free_variables,
    parse,
    print_formula,
)
from defifix.normalize import (
    ConstraintSearch,
    ConstraintSystem,
    NormalizedFormula,
    One,
    Plus,
    Times,
    atomize,
    eliminate_negations,
    normalize,
    normalized_definable_set,
    normalized_witnesses,
    to_dnf,
)
from defifix.terms import Term

F2, F3, F5 = make_field("F2"), make_field("F3"), make_field("F5")
F7, F4, F9 = make_field("F7"), make_field("F2^2"), make_field("F3^2")

a_eq = parse("x = 1")
b_eq = parse("y = 1")
c_eq = parse("x = y")


def test_to_dnf_distribution():
    f = And((Or((a_eq, b_eq)), c_eq))
    assert to_dnf(f) == Or((And((a_eq, c_eq)), And((b_eq, c_eq))))


def test_to_dnf_de_morgan():
    f = Not(And((a_eq, b_eq)))
    assert to_dnf(f) == Or((Not(a_eq), Not(b_eq)))


def test_to_dnf_fixed_point():
    f = Or((And((a_eq, c_eq)), b_eq))
    assert to_dnf(f) == f


def test_to_dnf_rejects_quantifier():
    with pytest.raises(NormalizationError):
        to_dnf(parse("exists y. x = y"))


def test_to_dnf_cap():
    # 2^6 disjuncts of 6 literals each exceeds a cap of 100
    big = And(tuple(Or((a_eq, b_eq)) for _ in range(6)))
    with pytest.raises(CapExceededError):
        to_dnf(big, cap=100)


def test_eliminate_negations_rabinowitsch():
    f, count = eliminate_negations(parse("~(x = 0)"))
    assert count == 1
    t = Term.variable("_t1")
    assert f == Equal(Term.variable("x") * t - 1, Term.zero())


def test_eliminate_negations_two_sided():
    f, count = eliminate_negations(parse("x != y"))
    assert count == 1
    w = Term.variable("x") - Term.variable("y")
    assert f == Equal(w * Term.variable("_t1") - 1, Term.zero())


def test_eliminate_negations_prints_each_pair_as_w_times_t_minus_1():
    # normalize atomizes this W as one atom d * t = 1; the formula-level
    # rendering of the same pair stays W*t - 1 = 0
    f, count = eliminate_negations(parse("x*y + y != 1 & y = x"))
    assert count == 1
    assert print_formula(f) == "_t1*x*y + _t1*y - _t1 - 1 = 0 & y = x"


@pytest.mark.parametrize("text, witnesses", [
    ("exists y. x*y + y != 1 & y*y = x + 1", {"_t1": "xy"}),
    ("exists y. ~(x = 1) & ~(x^2 + 2*y = 0) & x*y = 1", {"_t1": "x", "_t2": "xy"}),
    ("exists y. (x + y != 0 & -x - y^2 != 0) | x*x != 2 + y", {"_t1": "xy", "_t2": "xy", "_t7": "xy"}),
])
def test_a_negation_of_several_monomials_is_one_inversion_atom(text, witnesses, monkeypatch):
    # `witnesses` maps each t to its W's variables. t occurs in one atom,
    # d * t = one, after W's variables and d; the search never branches
    # on it, since propagation sets t = 1/d
    nf = normalize(parse(text))
    inversions = set()
    for s in nf.systems:
        for name in set(s.variables) & set(witnesses):
            t = s.variables.index(name)
            (a,) = [a for a in s.atoms if t in atom_indices(a)]
            assert type(a) is Times and a.j == t and One(a.k) in s.atoms
            assert max(a.i, a.k, *map(s.variables.index, witnesses[name])) < t
            inversions.add((id(s), t))
    assert len(inversions) == nf.negations == len(witnesses)
    assigned = set()
    assign = ConstraintSearch._assign

    def spy(self, vals, trail, var, v):
        assigned.add((id(self.system), var))
        return assign(self, vals, trail, var, v)

    monkeypatch.setattr(ConstraintSearch, "_assign", spy)
    for K in (F5, F7, F9):
        assert normalized_definable_set(nf, K) == definable_set(parse(text), K, "x")
    assert assigned and not inversions & assigned


@pytest.mark.parametrize("text, expected", [
    ("exists y. ~(y=0) & x*y=1",
     "  vars: x, _t1, _t2, y, _t3\n  _t1 * y = _t2\n  _t2 = 1\n  x * y = _t3\n  _t3 = 1"),
    ("exists y. ~(2*x*y = 0) & y*y = x",
     "  vars: x, _t1, _t2, _t3, y, _t4\n  _t1 * x = _t2\n  _t2 * y = _t3\n"
     "  _t3 + _t3 = _t4\n  _t4 = 1\n  y * y = x"),
])
def test_a_negated_monomial_keeps_its_expanded_atoms(text, expected):
    # W * t is one monomial, so nothing is spread: W*t - 1 = 0 as before
    assert normalize(parse(text)).to_text() == "free: x\nsystem:\n" + expected


_SUMMANDS = [(), ("x",), ("y",), ("x", "y"), ("x", "x"), ("y", "y")]


@st.composite
def _negated_sums(draw):
    """A conjunction, or a disjunction of two, of literals among which one
    or two are negations lhs != rhs whose difference W has two or more
    monomials, W's summands put on either side at random; y, where it
    occurs, is bound."""

    def literal(negated: bool):
        picks = draw(st.lists(st.sampled_from(_SUMMANDS), min_size=2, max_size=3, unique=True))
        sides = [Term.zero(), Term.zero()]
        for names in picks:
            m = Term.constant(draw(st.sampled_from([1, 2, 3, -1, -2])))
            for v in names:
                m = m * Term.variable(v)
            sides[draw(st.integers(0, 1))] += m
        eq = Equal(*sides)
        return Not(eq) if negated else eq

    def conjunction():
        lits = [literal(True) for _ in range(draw(st.integers(1, 2)))]
        lits += [literal(False) for _ in range(draw(st.integers(0, 1)))]
        return And(tuple(draw(st.permutations(lits)))) if len(lits) > 1 else lits[0]

    body = conjunction() if draw(st.booleans()) else Or((conjunction(), conjunction()))
    return Exists("y", body) if "y" in free_variables(body) else body


@settings(max_examples=120, deadline=None)
@given(_negated_sums(), st.sampled_from(["F2", "F3", "F5", "F7", "F2^2", "F2^3", "F3^2"]))
def test_negated_sums_define_what_brute_force_defines(f, spec):
    if free_variables(f) != {"x"}:
        f = And((f, parse("x = x")))
    K = make_field(spec)
    assert normalized_definable_set(normalize(f), K) == definable_set(f, K, "x")


def test_normalize_counts_negations_without_printing_them():
    nf = normalize(parse("exists y. (x != y & x*y != 1) | x = 2"))
    assert nf.negations == 2
    assert normalize(parse("x = 1")).negations == 0
    assert "negation" not in nf.to_text()


def test_eliminate_negations_identity_on_positive():
    f = parse("x = 1 & x + y = 1")
    out, count = eliminate_negations(f)
    assert count == 0
    assert out == f


def test_eliminate_negations_variable_accounting():
    rng = random.Random(407)
    for _ in range(25):
        core = random_existential_formula(rng)
        while hasattr(core, "var"):
            core = core.body
        d = to_dnf(core)
        disjuncts = d.parts if isinstance(d, Or) else (d,)
        for dj in disjuncts:
            lits = dj.parts if isinstance(dj, And) else (dj,)
            negs = sum(isinstance(l, Not) for l in lits)
            out, count = eliminate_negations(dj)
            assert count == negs
            before = set().union(*(free_variables(l) for l in lits))
            assert len(free_variables(out)) == len(before) + negs


def _assert_atoms_match(system: ConstraintSystem, pattern):
    """Pattern atoms reference placeholder names; placeholders bind fresh
    names consistently, concrete names (no leading '.') must match as-is."""
    assert len(system.atoms) == len(pattern)
    binding: dict[str, str] = {}

    def check(want: str, got: str):
        if want.startswith("."):
            bound = binding.setdefault(want, got)
            assert bound == got, f"{want} bound to {bound}, saw {got}"
        else:
            assert want == got

    for atom, pat in zip(system.atoms, pattern):
        kind, *names = pat
        got = [system.variables[i] for i in
               ((atom.i,) if isinstance(atom, One) else (atom.i, atom.j, atom.k))]
        assert kind == type(atom).__name__.lower()
        for w, g in zip(names, got):
            check(w, g)
    assert len(set(binding.values())) == len(binding)


def test_atomize_worked_example():
    # 1 + x + y^2 = 0 becomes the five-atom chain
    system = atomize(parse("1 + x + y^2 = 0"), free_var="x")
    _assert_atoms_match(
        system,
        [
            ("one", ".t"),
            ("plus", ".t", "x", ".u"),
            ("times", "y", "y", ".z"),
            ("plus", ".u", ".z", ".s"),
            ("plus", ".s", ".s", ".s"),
        ],
    )


def test_atomize_passthroughs():
    sys1 = atomize(parse("x + y = z"))
    assert sys1.atoms == (Plus(0, 1, 2),)
    assert sys1.variables == ("x", "y", "z")
    sys2 = atomize(parse("x * y = z"))
    assert sys2.atoms == (Times(0, 1, 2),)
    sys3 = atomize(parse("x = 1"))
    assert sys3.atoms == (One(0),)
    sys4 = atomize(parse("x = 0"))
    assert sys4.atoms == (Plus(0, 0, 0),)
    sys5 = atomize(parse("2*x = z"))
    assert sys5.atoms == (Plus(0, 0, 1),)
    sys6 = atomize(parse("x^2 = z"))
    assert sys6.atoms == (Times(0, 0, 1),)
    sys7 = atomize(parse("z = x * y"))
    assert sys7.variables == ("x", "y", "z")
    assert sys7.atoms == (Times(0, 1, 2),)
    for text, variables, atoms in [
        # a bare variable on the left is the target just as well
        ("z = x + y", ("x", "y", "z"), (Plus(0, 1, 2),)),
        ("z = 2*x", ("x", "z"), (Plus(0, 0, 1),)),
        ("z = x^2", ("x", "z"), (Times(0, 0, 1),)),
        # one step past each shape goes the general way
        ("2*x*y = z", ("z", "x", "_t1", "y"), (Times(1, 3, 2), Plus(2, 2, 0))),
        ("x^3 = z", ("z", "x", "_t1"), (Times(1, 1, 2), Times(2, 1, 0))),
        ("3*x = z", ("z", "x", "_t1"), (Plus(1, 1, 2), Plus(2, 1, 0))),
        ("-x = z", ("z", "x", "_t1"), (Plus(0, 1, 2), Plus(2, 2, 2))),
        ("x*y*w = z", ("z", "w", "_t1", "x", "y"), (Times(1, 3, 2), Times(2, 4, 0))),
        ("z = 3", ("z", "_t1", "_t2"), (One(1), Plus(1, 1, 2), Plus(2, 1, 0))),
    ]:
        system = atomize(parse(text))
        assert (system.variables, system.atoms) == (variables, atoms), text


def test_atomize_only_three_kinds():
    rng = random.Random(408)
    for _ in range(20):
        f = random_existential_formula(rng, max_negations=0)
        while hasattr(f, "var"):
            f = f.body
        d = to_dnf(f)
        first = d.parts[0] if isinstance(d, Or) else d
        system = atomize(first if isinstance(first, And) else And((first,)))
        assert all(isinstance(a, (Plus, Times, One)) for a in system.atoms)


def test_atomize_rejects_rational_coefficients():
    with pytest.raises(NormalizationError):
        atomize(parse("1/2*x + y = 0"))


def test_atomize_constant_chain_reuse():
    # x = 3 and y = 3 share the 1+1+1 chain within one system
    system = atomize([parse("x = 3"), parse("y = 3")])
    ones = [a for a in system.atoms if isinstance(a, One)]
    assert len(ones) == 1


@pytest.mark.parametrize("text", ["x^100000 = 1", "x = 100000"])
def test_atomize_large_exponent_and_constant_by_doubling(text):
    # 100000 has 17 bits, six of them set: 16 doublings and 5 increments
    (system,) = normalize(parse(text)).systems
    assert len(system.atoms) <= 36


def test_atomize_thousand_digit_exponent():
    e = 10**999 + 7
    (system,) = normalize(parse(f"x^{e} = 1")).systems
    assert len(system.atoms) <= 2 * e.bit_length()
    nf = NormalizedFormula((system,), "x")
    assert normalized_definable_set(nf, F5) == {
        F5.element(v) for v in range(5) if pow(v, e, 5) == 1
    }


def test_atomize_reuses_a_repeated_multiple():
    # x*y and 5*x*y are built once; the second equation reuses both
    system = atomize([parse("5*x*y = 1"), parse("5*x*y + 5 = y")], free_var="x")
    (product,) = [a for a in system.atoms if isinstance(a, Times)]
    w = product.k
    assert sum(a == Plus(w, w, a.k) for a in system.atoms if isinstance(a, Plus)) == 1


def _doubling_formulas(n: int) -> list[str]:
    return [
        f"x^{n} = {n}",
        f"{n}*x = 1",
        f"exists y. x*y^{n} = 1",
        f"exists y. ({n}*x^{n}*y = 1 & y^2 = {n}*x + y)",
        f"exists y. ({n}*x*y = 1 & {n}*x*y + {n} = y)",
        f"exists y. exists z. (x*y^{n} + {n}*z = 1 & z^{n}*y = {n}*x)",
    ]


@pytest.mark.parametrize("spec", ["F5", "F7", "F2^2", "F3^2"])
def test_doubling_atomization_matches_brute_force(spec):
    # constants, coefficients and exponents 1..40, alone and in mixed monomials
    K = make_field(spec)
    for n in range(1, 41):
        for text in _doubling_formulas(n):
            f = parse(text)
            assert normalized_definable_set(normalize(f), K) == definable_set(f, K, "x"), (
                f"mismatch over {K.spec()} for {text}"
            )


def test_normalize_single_one_atom():
    nf = normalize(parse("x = 1"))
    assert len(nf.systems) == 1
    assert nf.systems[0].atoms == (One(0),)
    assert nf.free_var == "x"


def test_normalize_square_with_nonzero_witness():
    nf = normalize(parse("exists y. (x = y*y & y != 0)"))
    got = normalized_definable_set(nf, F5)
    assert got == {F5.element(1), F5.element(4)}
    assert got == definable_set(parse("exists y. (x = y*y & y != 0)"), F5, "x")


def test_normalize_preserves_square_set_mod3():
    nf = normalize(parse("exists y. x = y*y"))
    assert normalized_definable_set(nf, F3) == {F3.element(0), F3.element(1)}


def test_normalize_requires_one_free_variable():
    with pytest.raises(NormalizationError):
        normalize(parse("x = y"))
    with pytest.raises(NormalizationError):
        normalize(parse("1 = 1"))


def test_normalize_rejects_universal():
    with pytest.raises(NormalizationError):
        normalize(parse("forall y. x = y"))
    with pytest.raises(NormalizationError):
        normalize(parse("~(exists y. x = y)"))


@pytest.mark.parametrize("rewrite, text, message", [
    # a binder hoisted under a Not, however deep or doubled the negation
    (normalize, "~~(exists y. x = y)", "negation over a quantifier is not reducible"),
    # a universal inside the negated body wins over the negation
    (normalize, "~((exists y. x = y) & (forall z. x = z))",
     "universal quantifier is outside the existential fragment"),
    # <-> negates both of its sides
    (normalize, "x = 1 <-> (exists y. x = y)", "negation over a quantifier is not reducible"),
    (to_dnf, "~(exists y. x = y)", "cannot push negation through Exists"),
    (to_dnf, "~(forall y. x = y)", "cannot push negation through ForAll"),
    (to_dnf, "x = 1 & (exists y. x = y)", "quantifier inside the propositional pipeline"),
])
def test_rewrite_errors_and_which_wins(rewrite, text, message):
    with pytest.raises(NormalizationError, match=f"^{message}$"):
        rewrite(parse(text))


def test_rewrite_rejects_a_node_that_is_not_a_formula():
    for rewrite in (normalize, to_dnf):
        with pytest.raises(TypeError, match="not a formula"):
            rewrite(And((a_eq, "x = 1")))


def test_normalize_renames_clashing_binders_in_walk_order():
    nf = normalize(parse("(x = 1 -> (exists y. x = y*y)) & (exists y. x*y = 1)"))
    assert nf.negations == 1
    assert nf.to_text() == "\n".join(
        [
            "free: x",
            "system:",
            "  vars: x, _t3, _t4, _t2, _t1, _t5",
            "  _t3 = 1",
            "  _t4 + _t3 = x",
            "  _t4 * _t2 = _t3",
            "  _t1 * x = _t5",
            "  _t5 = 1",
            "system:",
            "  vars: x, y, _t1, _t6",
            "  y * y = x",
            "  _t1 * x = _t6",
            "  _t6 = 1",
        ]
    )


def test_normalize_hoists_clashing_binders():
    f = parse("(exists y. x = y + y) & (exists y. x * y = 1)")
    nf = normalize(f)
    assert len(nf.systems) == 1
    # both facts survive: x even and x invertible
    assert normalized_definable_set(nf, F5) == definable_set(f, F5, "x")


@pytest.mark.parametrize("text, expected", [
    ("~~(x = 1)", {1}),
    ("~(x = 1 | x = 2)", {0, 3, 4, 5, 6}),
])
def test_normalize_pushes_negation_through_not_and_or(text, expected):
    f = parse(text)
    assert isinstance(f, Not) and isinstance(f.body, (Not, Or))
    got = normalized_definable_set(normalize(f), F7)
    assert got == {F7.element(v) for v in expected} == definable_set(f, F7, "x")


def test_normalize_disjunction_splits_systems():
    nf = normalize(parse("x = 1 | x = 0"))
    assert len(nf.systems) == 2
    assert normalized_definable_set(nf, F5) == {F5.element(0), F5.element(1)}


def test_normalized_text_form():
    nf = normalize(parse("exists y. (x = y*y & y != 0)"))
    assert nf.to_text() == "\n".join(
        [
            "free: x",
            "system:",
            "  vars: x, y, _t1, _t2",
            "  y * y = x",
            "  _t1 * y = _t2",
            "  _t2 = 1",
        ]
    )


def test_solve_system_forced_values():
    s = ConstraintSystem(("a", "b"), (One(0), Plus(0, 0, 1)), 0)
    sols = solve_system(s, F5)
    assert sols == [{"a": F5.element(1), "b": F5.element(2)}]


def test_solve_system_idempotents():
    s = ConstraintSystem(("a",), (Times(0, 0, 0),), 0)
    sols = solve_system(s, F3)
    assert [x["a"] for x in sols] == [F3.element(0), F3.element(1)]


def test_solve_system_unsatisfiable():
    s = ConstraintSystem(("a",), (One(0), Plus(0, 0, 0)), 0)
    assert solve_system(s, F5) == []


def test_solve_system_requires_finite_field():
    s = ConstraintSystem(("a",), (One(0),), 0)
    with pytest.raises(InfiniteFieldError):
        solve_system(s, make_field("Q"))


def _product_order_solutions(s, K):
    """Every assignment of the variable table, in itertools.product order,
    filtered by the atoms."""
    elems = enumerate_elements(K)
    out = []
    for vals in itertools.product(elems, repeat=len(s.variables)):
        ok = all(
            vals[a.i].is_one if isinstance(a, One)
            else vals[a.i] + vals[a.j] == vals[a.k] if isinstance(a, Plus)
            else vals[a.i] * vals[a.j] == vals[a.k]
            for a in s.atoms
        )
        if ok:
            out.append(dict(zip(s.variables, vals)))
    return out


def test_solve_system_matches_product_order_oracle():
    # random small systems, repeated places included (x + y = x pins y = 0)
    rng = random.Random(411)
    for K in (F3, F4, F5):
        for _ in range(40):
            n = rng.randint(1, 4)
            atoms = []
            for _ in range(rng.randint(0, 4)):
                kind = rng.choice([One, Plus, Plus, Times, Times])
                if kind is One:
                    atoms.append(One(rng.randrange(n)))
                else:
                    atoms.append(kind(*(rng.randrange(n) for _ in range(3))))
            s = ConstraintSystem(tuple(f"v{i}" for i in range(n)), tuple(atoms), 0)
            assert solve_system(s, K) == _product_order_solutions(s, K), s.to_text()


def test_normalized_formula_validation():
    with pytest.raises(NormalizationError):
        NormalizedFormula((), "x")
    with pytest.raises(NormalizationError):
        ConstraintSystem(("a",), (Plus(0, 0, 1),), 0)


def test_end_to_end_preservation_sample():
    rng = random.Random(409)
    for _ in range(60):
        f = random_existential_formula(rng)
        nf = normalize(f)
        for K in (F2, F3, F5, F7, F4, F9):
            assert normalized_definable_set(nf, K) == definable_set(f, K, "x"), (
                f"mismatch over {K.spec()} for {f}"
            )


# -- projection by one split ---------------------------------------------------

SPLIT_FIELDS = ["F2", "F3", "F5", "F7", "F2^2", "F3^2", "F11", "F13", "F2^3", "F5^2", "F3^3", "F29"]


@st.composite
def _grouped_systems(draw):
    """A system over a field of at most 29 elements whose variables fall
    into up to three groups with their own atoms, the groups interleaved in
    the variable table, and the free variable drawn from any group. A group
    may be unsatisfiable or fall apart into several components. q^n stays
    within 20,000, so full enumeration is cheap."""
    spec = draw(st.sampled_from(SPLIT_FIELDS))
    q = make_field(spec).order
    n_max = min(6, max(n for n in range(1, 15) if q**n <= 20_000))
    n = draw(st.integers(2, n_max))
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    atoms = []
    for g in sorted(set(groups)):
        members = st.sampled_from([i for i in range(n) if groups[i] == g])
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from([Times, Plus, One]))
            if kind is One:
                atoms.append(One(draw(members)))
            else:
                atoms.append(kind(draw(members), draw(members), draw(members)))
    free = draw(st.integers(0, n - 1))
    return spec, ConstraintSystem(tuple(f"v{i}" for i in range(n)), tuple(atoms), free)


def _system(names, atoms):
    return ConstraintSystem(tuple(names.split()), tuple(atoms), 0)


# x in no atom beside a component with no solution over F3 that only the
# search finds: o = 1 is forced at the root, and a * a = o + a has no root a
_DEAD_BESIDE_FREE = _system("x o a b", [One(1), Times(2, 2, 3), Plus(1, 2, 3)])


@settings(max_examples=150, deadline=None)
@example(("F3", _DEAD_BESIDE_FREE))
@example(("F5", _system("x a b", [One(0), Times(1, 1, 2)])))  # x forced at the root
@example(("F7", _system("x a b c", [Times(0, 0, 1), Plus(2, 2, 3)])))  # two satisfiable
@given(_grouped_systems())
def test_projection_is_the_first_solution_per_value_of_full_enumeration(case):
    spec, s = case
    K = make_field(spec)
    search = ConstraintSearch(s, K)
    first: dict[int, tuple[int, ...]] = {}
    for sol in search.solutions():
        first.setdefault(sol[s.free_index], sol)
    assert list(search.projection().items()) == sorted(first.items())
    known = set(list(first)[::2])
    assert search.projection(known) == {v: w for v, w in first.items() if v not in known}


def test_dead_component_is_searched_once_not_per_value(monkeypatch):
    """A component with no solution that the free variable is not in is
    exhausted by one search, not once per value of the free variable."""
    f = parse("exists y. exists z. (3*y^2*z != 3*z | -x*y^2 + z^2 + 1 = y*z^2)")
    nf = normalize(f)
    assert normalized_definable_set(nf, F9) == definable_set(f, F9, "x")
    dead = nf.systems[0]  # characteristic 3 leaves it no solution
    assert all(dead.free_index not in atom_indices(a) for a in dead.atoms)
    calls = [0]
    assign = ConstraintSearch._assign

    def counted(self, *args):
        calls[0] += 1
        return assign(self, *args)

    monkeypatch.setattr(ConstraintSearch, "_assign", counted)
    search = ConstraintSearch(dead, F9)
    calls[0] = 0
    assert next(search.solutions([(dead.free_index, 0)]), None) is None
    one_value = calls[0]
    calls[0] = 0
    assert search.projection() == {}
    assert calls[0] <= one_value


# sha256 of normalize text and ordered witnesses of 100 random formulas
# per field, as computed once a negation of two or more monomials became
# one atom d * t = 1 on W's value
@pytest.mark.parametrize(
    "spec, sha256",
    [
        ("F5", "62f716e91ca5d912e2312027368c2a9a8f33e84df8269c376113a5487c887619"),
        ("F2^2", "cd3c62f7f19702d790effdf98c52ec1d1ba8a674cda9c785bff5854cefce5456"),
        ("F3^2", "a2f4e60bf4c1b9967e3605de85c71b88fab50447647e9369d84eac17a214d627"),
    ],
    ids=["F5", "F2^2", "F3^2"],
)
def test_normalized_witnesses_are_pinned(spec, sha256):
    K = make_field(spec)
    rng = random.Random(2026)
    h = hashlib.sha256()
    for _ in range(100):
        nf = normalize(random_existential_formula(rng))
        h.update(nf.to_text().encode())
        h.update(repr(list(normalized_witnesses(nf, K).items())).encode())
    assert h.hexdigest() == sha256
