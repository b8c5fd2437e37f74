import functools
import itertools
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defifix.neighbourhood
from defifix import fields
from defifix.compiler import neighbourhood_to_formula
from defifix.engine import ConstraintSystem, One, Plus, Times, forced_variables
from defifix.errors import CapExceededError, FieldMismatchError, InfiniteFieldError
from defifix.fields import (
    FieldElement,
    enumerate_elements,
    frobenius,
    int_field,
    make_field,
)
from defifix.neighbourhood import (
    Decision,
    Neighbourhood,
    automorphisms,
    certify_by_propagation,
    combine,
    enumerate_arithmetic_maps,
    fact_system,
    facts,
    fixed_subfield,
    is_neighbourhood,
    nbhd_rational,
    neighbourhood,
)
from defifix.normalize import ConstraintSearch

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")
F7 = make_field("F7")
F4 = make_field("F2^2")


def naive_maps(A):
    """Every total map on A that meets the defining conditions, in
    lexicographic order. The maps are built slot by slot over all of K,
    and a condition is checked once its slots are set (a partial map
    failing one has no arithmetic extension). The slots are filled in the
    order that completes the most conditions soonest, and the maps are
    then sorted."""
    fs = facts(A)
    K = A.field
    elements = enumerate_elements(K)
    one = K.one()
    add = functools.cache(operator.add)
    mul = functools.cache(operator.mul)
    conditions = [((i,), lambda v, i=i: v[i] == one) for i in fs.ones]
    conditions += [
        ((i, j, k), lambda v, i=i, j=j, k=k: add(v[i], v[j]) == v[k]) for i, j, k in fs.sums
    ]
    conditions += [
        ((i, j, k), lambda v, i=i, j=j, k=k: mul(v[i], v[j]) == v[k]) for i, j, k in fs.products
    ]
    order, checks = [], []
    while len(order) < len(A.elements):
        done = set(order)
        ready = {
            s: [holds for places, holds in conditions if s in places and set(places) <= done | {s}]
            for s in range(len(A.elements))
            if s not in done
        }
        slot = max(ready, key=lambda s: len(ready[s]))
        order.append(slot)
        checks.append(ready[slot])
    vals = [None] * len(A.elements)
    out = []

    def extend(step):
        if step == len(order):
            out.append(tuple(vals))
            return
        for a in elements:
            vals[order[step]] = a
            if all(holds(vals) for holds in checks[step]):
                extend(step + 1)

    extend(0)
    index = {a: i for i, a in enumerate(elements)}
    return sorted(out, key=lambda m: [index[a] for a in m])


def test_facts_one_two():
    A = neighbourhood(F7, [1, 2], 2)
    fs = facts(A)
    assert fs.ones == {0}
    assert fs.sums == {(0, 0, 1)}
    assert fs.products == {(0, 0, 0), (0, 1, 1), (1, 0, 1)}


def test_facts_singletons():
    zero = neighbourhood(F5, [0], 0)
    fs = facts(zero)
    assert fs.ones == frozenset()
    assert fs.sums == {(0, 0, 0)}
    assert fs.products == {(0, 0, 0)}
    one = neighbourhood(F5, [1], 1)
    fs = facts(one)
    assert fs.ones == {0}
    assert fs.sums == frozenset()
    assert fs.products == {(0, 0, 0)}


def test_enumerate_maps_whole_f4():
    elems = tuple(enumerate_elements(F4))
    A = Neighbourhood(F4, elems, 0)
    maps = enumerate_arithmetic_maps(A)
    assert len(maps) == 2
    assert {m.values for m in maps} == {
        elems,
        tuple(frobenius(a) for a in elems),
    }


def test_enumerate_maps_forced_chain():
    A = neighbourhood(F7, [1, 2], 2)
    maps = enumerate_arithmetic_maps(A)
    assert len(maps) == 1 and maps[0].is_identity


def test_enumerate_maps_zero_forced():
    A = neighbourhood(F5, [0], 0)
    maps = enumerate_arithmetic_maps(A)
    assert len(maps) == 1
    assert maps[0].values == (F5.element(0),)


def test_enumerate_maps_needs_finite_field():
    A = neighbourhood(Q, [1], 1)
    with pytest.raises(InfiniteFieldError):
        enumerate_arithmetic_maps(A)


def test_enumerate_maps_cap():
    A = neighbourhood(F7, [5], 5)  # unconstrained value
    with pytest.raises(CapExceededError):
        enumerate_arithmetic_maps(A, cap=3)


def test_oracle_equivalence_small():
    elems3 = enumerate_elements(F3)
    for size in (1, 2, 3):
        for subset in itertools.combinations(elems3, size):
            A = Neighbourhood(F3, subset, 0)
            got = {m.values for m in enumerate_arithmetic_maps(A)}
            assert got == set(naive_maps(A))


def _random_subsets(rng, K, max_size, count):
    elems = enumerate_elements(K)
    for _ in range(count):
        chosen = rng.sample(elems, rng.randint(1, max_size))
        yield Neighbourhood(K, tuple(chosen), rng.randrange(len(chosen)))


# (field, largest subset): the naive oracle walks |K|^|A| maps
EXTENSION_SAMPLES = [("F2^2", 4), ("F2^3", 4), ("F3^2", 4), ("F5^2", 3)]


def test_maps_match_naive_oracle_in_order_over_extensions():
    rng = random.Random(412)
    for spec, max_size in EXTENSION_SAMPLES:
        for A in _random_subsets(rng, make_field(spec), max_size, 12):
            got = [m.values for m in enumerate_arithmetic_maps(A)]
            assert got == naive_maps(A), A.to_json()


def _decision_reads(A, maps):
    """The maps, of the full list in order, that the decision reads: none
    when the search root sets the target, else those that agree with the
    first map off the target's component (the variables unset at the root
    that the atoms of fact_system(A) join to the target)."""
    s = fact_system(A)
    root = ConstraintSearch(s, A.field).root
    t = A.target_index
    if root[t] >= 0:
        return []
    atoms = [a for a in s.atoms if not isinstance(a, One)]
    joined = [{x for x in (a.i, a.j, a.k) if root[x] < 0} for a in atoms]
    component = {t}
    while any(places & component and not places <= component for places in joined):
        for places in joined:
            if places & component:
                component |= places
    first = maps[0]
    off = [x for x in range(len(first)) if x not in component]
    return [vals for vals in maps if all(vals[x] == first[x] for x in off)]


def test_decision_and_caps_match_naive_oracle_over_extensions():
    # the witness is the first moving map in product order; the decision's
    # cap counts the maps of the target's component it reads, so it trips
    # exactly when the search needs more, and a target set at the search
    # root reads none; the cap of the enumeration counts complete maps
    rng = random.Random(413)
    root_forced = split = 0
    for spec, max_size in EXTENSION_SAMPLES:
        for A in _random_subsets(rng, make_field(spec), max_size, 12):
            maps = naive_maps(A)
            moving = [vals for vals in maps if vals[A.target_index] != A.r]
            verdict = is_neighbourhood(A)
            assert verdict.yes == (not moving)
            if moving:
                assert verdict.witness.values == moving[0]
            read = _decision_reads(A, maps)
            if not read:
                root_forced += len(maps) > 1
                assert is_neighbourhood(A, cap=0) == verdict
            else:
                split += len(read) < len(maps)
                needed = next(
                    (pos for pos, vals in enumerate(read, 1) if vals[A.target_index] != A.r),
                    len(read),
                )
                assert is_neighbourhood(A, cap=needed) == verdict
                with pytest.raises(CapExceededError):
                    is_neighbourhood(A, cap=needed - 1)
            assert len(enumerate_arithmetic_maps(A, cap=len(maps))) == len(maps)
            if len(maps) > 1:
                with pytest.raises(CapExceededError):
                    enumerate_arithmetic_maps(A, cap=len(maps) - 1)
    # both shortcuts are taken on sets with more than one map
    assert root_forced and split


# fields of up to 29 elements
PROPERTY_FIELDS = ["F5", "F7", "F13", "F29", "F2^2", "F2^3", "F3^2", "F2^4", "F5^2", "F3^3"]


def _in_a_fact(h, T):
    """Whether h is a place of a sum or product inside T and h, apart from
    h * 1 = h, which the fact system leaves out."""
    T = T | {h}
    one = h.field.one()
    pairs = [(a, b) for a in T for b in T]
    triples = [(a, b, a + b) for a, b in pairs]
    triples += [(a, b, a * b) for a, b in pairs if one not in (a, b)]
    return any(c in T and h in (a, b, c) for a, b, c in triples)


@st.composite
def _subsets(draw):
    """A core of the prime elements 1, ..., m and the first powers of an
    element g outside {0, 1} (outside the prime field if K has others),
    joined by their facts, plus up to four elements sharing no fact with
    anything else, in a drawn order; the target is mostly g. So a set
    often has several components, a target set at the root, or a target
    whose component has more than one solution."""
    K = make_field(draw(st.sampled_from(PROPERTY_FIELDS)))
    elements = enumerate_elements(K)
    g = draw(st.sampled_from(elements[K.p if K.degree > 1 else 2 :]))
    # Hypothesis starts from and shrinks towards the first choice: the sizes
    # are listed largest first, and the extra elements counted from the end
    core = [K.element(i) for i in range(1, min(draw(st.sampled_from([6, 3, 1])), K.p - 1) + 1)]
    core += [g**i for i in range(1, draw(st.sampled_from([3, 2, 1])) + 1)]
    target = draw(st.sampled_from([g, *core]))
    chosen = list(dict.fromkeys(core))
    for h in draw(st.lists(st.sampled_from(elements[::-1]), min_size=2, max_size=4)):
        if h not in chosen and not _in_a_fact(h, set(chosen)):
            chosen.append(h)
    order = draw(st.permutations(chosen))
    return Neighbourhood(K, tuple(order), order.index(target))


# Two sets whose first map fixes the target while another map moves it,
# behind an element of another component: 1, w, w + 1 of the subfield F4
# of F16 after x, and 1, 2, 3, x, 3x of F25 (x^2 = 3) after 4 + 4x.
@settings(max_examples=100, deadline=None)
@example(neighbourhood(make_field("F2^4"), [[0, 1], 1, [0, 1, 1], [1, 1, 1]], [0, 1, 1]))
@example(neighbourhood(make_field("F5^2"), [1, [4, 4], 3, [0, 1], [0, 3], 2], [0, 1]))
@given(_subsets())
def test_decision_is_the_first_moving_map_of_full_enumeration(A):
    moving = [vals for vals in naive_maps(A) if vals[A.target_index] != A.r]
    verdict = is_neighbourhood(A)
    assert verdict.yes == (not moving)
    if moving:
        assert verdict.witness.values == moving[0]
    else:
        assert verdict.witness is None


def test_is_neighbourhood_f4_generator_refuted_by_frobenius():
    elems = tuple(enumerate_elements(F4))
    gen = F4.element([0, 1])
    A = Neighbourhood(F4, elems, elems.index(gen))
    verdict = is_neighbourhood(A)
    assert not verdict.yes
    assert verdict.witness(gen) == frobenius(gen) == F4.element([1, 1])


@pytest.mark.parametrize(
    "spec, elements, target, component, maps",
    [
        # 3 + 5 = 1 and 3 * 5 = 1 join 3 and 5, and 5 + 5 = 3 halves
        # nothing while 3 is unset
        ("F7", [1, 3, 5], 3, {1, 2}, 1),
        # 7 + 7 = 1 sets 7 at the root, and 12 * 12 = 1 leaves 12 two roots;
        # 5 + 7 = 12 and 5 * 5 = 12 join 5 and 12; 3 is in no fact, so it
        # goes to any of 13 values, and the decision pins it to its first
        ("F13", [1, 3, 5, 7, 12], 5, {2, 4}, 13),
    ],
)
def test_decision_yes_found_by_search(spec, elements, target, component, maps):
    A = neighbourhood(make_field(spec), elements, target)
    search = ConstraintSearch(fact_system(A), A.field)
    assert search.root[A.target_index] < 0
    assert search.component(A.target_index) == component
    naive = naive_maps(A)
    assert len(naive) == maps
    assert all(vals[A.target_index] == A.r for vals in naive)
    assert is_neighbourhood(A) == Decision(True)


def test_is_neighbourhood_doubling_yes():
    verdict = is_neighbourhood(neighbourhood(F7, [1, 2], 2))
    assert verdict.yes and verdict.witness is None


def test_is_neighbourhood_unrelated_element():
    verdict = is_neighbourhood(neighbourhood(F7, [1, 5], 5))
    assert not verdict.yes
    assert verdict.witness is not None
    assert verdict.witness(F7.element(1)) == F7.element(1)


def test_monotone_under_superset():
    rng = random.Random(410)
    base = neighbourhood(F7, [1, 2], 2)
    pool = enumerate_elements(F7)
    for _ in range(10):
        extra = rng.sample(pool, rng.randint(0, 4))
        B = neighbourhood(F7, list(base.elements) + extra, 2)
        assert is_neighbourhood(B).yes


def _pruned_facts(A):
    """The atoms `fact_system` writes, read off the full `facts` table:
    each (i, j) once with i <= j, no sum with a summand 0 but 0 + 0 = 0, no
    product with a factor 0 or 1."""
    fs = facts(A)
    e = A.elements
    zero, one = A.field.zero(), A.field.one()
    return (
        [One(i) for i in sorted(fs.ones)]
        + [
            Plus(i, j, k)
            for i, j, k in sorted(fs.sums)
            if i <= j and (i == j == k or zero not in (e[i], e[j]))
        ]
        + [
            Times(i, j, k)
            for i, j, k in sorted(fs.products)
            if i <= j and not {e[i], e[j]} & {zero, one}
        ]
    )


def _assert_pruned_facts(A):
    s = fact_system(A)
    assert list(s.atoms) == _pruned_facts(A), A.to_json()
    pairs = [(type(a), a.i, a.j) for a in s.atoms if not isinstance(a, One)]
    assert all(i <= j for _, i, j in pairs) and len(set(pairs)) == len(pairs)
    return s


def test_fact_system_writes_each_pair_once_and_prunes_implied_facts():
    # the pruning rule over the full `facts` table, and the same solutions,
    # in the same order, as the naive filter of all maps
    rng = random.Random(415)
    for spec, max_size in [("F5", 5), ("F7", 4), ("F2^2", 4), ("F3^2", 4)]:
        K = make_field(spec)
        for A in _random_subsets(rng, K, max_size, 25):
            s = _assert_pruned_facts(A)
            T = int_field(K)
            got = [tuple(map(T.element, v)) for v in ConstraintSearch(s, K).solutions()]
            assert got == naive_maps(A), A.to_json()
    # larger fields, on the kernel, the whole field among the sets
    for spec in ("F13", "F17", "F2^4", "F3^3", "F5^2"):
        K = make_field(spec)
        int_field(K)
        for A in _random_subsets(rng, K, 12, 20):
            _assert_pruned_facts(A)
        _assert_pruned_facts(Neighbourhood(K, tuple(enumerate_elements(K)), 1))
    # Q: random rationals, rational neighbourhoods, and a denominator the
    # residue prime divides, which takes the full scan
    P = 2**30 - 35
    pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(12)] + [0, 1, -1, P]
    for _ in range(60):
        values = dict.fromkeys(rng.sample(pool, rng.randint(1, 9)))
        _assert_pruned_facts(Neighbourhood(Q, tuple(Q.element(v) for v in values), 0))
    for c, d in ((5, 3), (-7, 12), (1000001, 999), (1, 2), (-1, 1)):
        _assert_pruned_facts(nbhd_rational(Fraction(c, d), Q))
    _assert_pruned_facts(
        neighbourhood(Q, [1, 2, Fraction(1, P), Fraction(2, P), Fraction(3, P), 3, P, 0], Fraction(1, P))
    )
    # a small set of a large field is scanned on FieldElements
    K = make_field("F1000003")
    _assert_pruned_facts(neighbourhood(K, [0, 1, 2, 3, 6, K.p - 1, (K.p + 1) // 2], 6))
    assert K not in fields._INT_FIELDS


def _counting(monkeypatch):
    """Wrap the kernel's add and mul in counters of their calls."""
    calls = {"add": 0, "mul": 0}
    for name in calls:
        op = getattr(fields.IntField, name)

        def counted(T, a, b, op=op, name=name):
            calls[name] += 1
            return op(T, a, b)

        monkeypatch.setattr(fields.IntField, name, counted)
    return calls


@pytest.mark.parametrize("spec", ["F2", "F3", "F7", "F2^2", "F3^2", "F13"])
def test_fact_system_tests_no_pair_whose_fact_it_prunes(monkeypatch, spec):
    # each pair is tested at most once, as a sum only when neither summand
    # is 0 and as a product only when neither factor is 0 or 1
    K = make_field(spec)
    elems = enumerate_elements(K)
    int_field(K)
    calls = _counting(monkeypatch)
    for A in [Neighbourhood(K, tuple(elems), 0), *_random_subsets(random.Random(416), K, len(elems), 10)]:
        calls.update(add=0, mul=0)
        fact_system(A)
        m = sum(a != K.zero() for a in A.elements)
        m1 = sum(a not in (K.zero(), K.one()) for a in A.elements)
        assert calls["add"] <= m * (m + 1) // 2, A.to_json()
        assert calls["mul"] <= m1 * (m1 + 1) // 2, A.to_json()


def test_fact_system_on_all_of_f7_tests_21_sums_and_15_products(monkeypatch):
    # the 6 * 7 / 2 pairs of nonzero elements and the 5 * 6 / 2 pairs of
    # elements other than 0 and 1
    int_field(F7)
    calls = _counting(monkeypatch)
    fact_system(Neighbourhood(F7, tuple(enumerate_elements(F7)), 0))
    assert calls == {"add": 21, "mul": 15}


def test_certify_chain():
    n = 6
    A = neighbourhood(Q, list(range(1, n + 1)), n)
    assert certify_by_propagation(A) is True


def test_certify_unrelated_is_unknown():
    A = neighbourhood(Q, [1, Fraction(5, 3)], Fraction(5, 3))
    assert certify_by_propagation(A) is False


def test_certify_stays_unknown_without_a_single_unknown_place():
    # 0 * 5/3 = 0 does not solve for 5/3, since its other factor is zero
    A = neighbourhood(Q, [1, 0, Fraction(5, 3)], Fraction(5, 3))
    assert certify_by_propagation(A) is False
    # 1/2 + 1/2 = 1 and (-1) * (-1) = 1 each leave one element in two places
    assert certify_by_propagation(neighbourhood(Q, [1, Fraction(1, 2)], Fraction(1, 2))) is False
    assert certify_by_propagation(neighbourhood(Q, [1, -1], -1)) is False


def test_certify_does_no_field_arithmetic(monkeypatch):
    # once the facts are found, certification computes nothing in the field
    A = nbhd_rational(Fraction(5, 3), Q)
    found = defifix.neighbourhood._scan(A, pruned=True)
    monkeypatch.setattr(defifix.neighbourhood, "_scan", lambda B, pruned: found)

    def refuse(*args):
        raise AssertionError("field arithmetic during certification")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(FieldElement, op, refuse)
    assert certify_by_propagation(A) is True


def _root_closure(s, p):
    """The variables the engine's root sets on a fact system, found without
    values: `forced_variables`, grown by the rule the characteristic p
    adds: a + a = k (p odd) or a * a = k (p = 2) sets a once k is set."""
    solved = Times if p == 2 else Plus
    known = forced_variables(s)
    while True:
        new = {a.i for a in s.atoms if type(a) is solved and a.i == a.j and a.k in known}
        if new <= known:
            return known
        s = ConstraintSystem(s.variables, s.atoms + tuple(One(x) for x in new - known), s.free_index)
        known = forced_variables(s)


def test_certify_matches_engine_root_propagation():
    # over a finite field the engine's root state is certification's closure
    # plus what the characteristic solves, so a certificate is set there
    rng = random.Random(414)
    for spec, max_size in [("F5", 5), ("F7", 6), ("F11", 7), ("F2^2", 4), ("F2^3", 6), ("F3^2", 7)]:
        for A in _random_subsets(rng, make_field(spec), max_size, 60):
            s = fact_system(A)
            root = ConstraintSearch(s, A.field).root
            set_at_root = {x for x, v in enumerate(root) if v >= 0}
            assert set_at_root == _root_closure(s, A.field.p), A.to_json()
            if certify_by_propagation(A):
                assert root[A.target_index] >= 0, A.to_json()


def test_certify_rational_construction():
    A = nbhd_rational(Fraction(5, 3), Q)
    assert certify_by_propagation(A) is True
    # cross-check the same construction's image over F_7 by enumeration
    B = nbhd_rational(Fraction(5, 3), F7)
    assert is_neighbourhood(B).yes


def test_certify_sound_on_random_sets():
    rng = random.Random(411)
    pool = enumerate_elements(F5)
    for _ in range(40):
        size = rng.randint(1, 4)
        elems = rng.sample(pool, size)
        A = Neighbourhood(F5, tuple(elems), rng.randrange(size))
        if certify_by_propagation(A):
            assert is_neighbourhood(A).yes


def test_combine_neg_example():
    A = neighbourhood(F7, [1, 2], 2)
    B = combine("neg", A)
    assert [str(a) for a in B.elements] == ["[0]", "[5]", "[1]", "[2]"]
    assert B.r == F7.element(5)


def test_combine_add_ones():
    one = combine("one", field=F7)
    two = combine("add", one, one)
    assert [str(a) for a in two.elements] == ["[2]", "[1]"]
    assert two.r == F7.element(2)


def test_combine_contract_errors():
    zero = combine("zero", field=F7)
    with pytest.raises(ZeroDivisionError):
        combine("inv", zero)
    with pytest.raises(FieldMismatchError):
        combine("add", combine("one", field=F7), combine("one", field=F5))
    with pytest.raises(ValueError):
        combine("half", combine("one", field=F7))
    one = combine("one", field=F7)
    with pytest.raises(ValueError, match="^zero takes no inputs and an explicit field$"):
        combine("zero", one, field=F7)
    with pytest.raises(ValueError, match="^one takes no inputs and an explicit field$"):
        combine("one")
    with pytest.raises(ValueError, match="^inv takes exactly one input$"):
        combine("inv", one, one)
    with pytest.raises(ValueError, match="^mul takes exactly two inputs$"):
        combine("mul", one)


def test_combine_preserves_yes():
    # closure steps keep the neighbourhood property (checked exhaustively)
    A = neighbourhood(F7, [1, 2], 2)
    for B in [combine("neg", A), combine("inv", A), combine("add", A, A), combine("mul", A, A)]:
        assert is_neighbourhood(B).yes


def test_nbhd_rational_five():
    A = nbhd_rational(5, Q)
    assert [str(a) for a in A.elements] == ["5", "4", "2", "1"]
    assert certify_by_propagation(A) is True


def test_nbhd_rational_half_mod7():
    A = nbhd_rational(Fraction(1, 2), F7)
    assert A.r == F7.element(4)  # 2 * 4 = 1
    assert certify_by_propagation(A) is True
    assert is_neighbourhood(A).yes


def test_nbhd_rational_zero_and_char_guard():
    assert nbhd_rational(0, F5).elements == (F5.element(0),)
    with pytest.raises(ZeroDivisionError):
        nbhd_rational(Fraction(1, 7), F7)


def test_nbhd_rational_refuses_a_float():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10
    for K in (Q, F7):
        for q in (0.1, 0.5):
            with pytest.raises(TypeError, match="is a float"):
                nbhd_rational(q, K)
    assert nbhd_rational("5/3", Q).r == Q.element(Fraction(5, 3))
    assert nbhd_rational(Fraction(1, 2), F7).r == nbhd_rational("1/2", F7).r == F7.element(4)


def test_nbhd_rational_reads_ascii_fractions():
    # Fraction alone would read "\u0663" as 3 and "1_0/3" as 10/3
    for K in (Q, F7):
        for text in ("\u0663", "\u0665/\u0663", "1_0/3"):
            with pytest.raises(ValueError, match=f"^Invalid literal for Fraction: {text!r}$"):
                nbhd_rational(text, K)
        with pytest.raises(ZeroDivisionError, match="^zero denominator in '1/0'$"):
            nbhd_rational("1/0", K)
        assert nbhd_rational(" 5/3 ", K).r == nbhd_rational("1.5", K).r + K.element(Fraction(1, 6))


def test_nbhd_rational_negative():
    A = nbhd_rational(-3, Q)
    assert A.r == Q.element(-3)
    assert certify_by_propagation(A) is True


def _recursive_rational(q, K):
    """nbhd_rational as a recursion over the combinators: A(2m) is
    add(A(m), A(m)) and A(2m+1) is add(A(2m), A(1))."""
    c, d = q.numerator, q.denominator
    if c == 0:
        return combine("zero", field=K)

    def ints(n):
        if n == 1:
            return combine("one", field=K)
        if n % 2 == 0:
            half = ints(n // 2)
            return combine("add", half, half)
        return combine("add", ints(n - 1), combine("one", field=K))

    if c == 1 and d > 1:
        return combine("inv", ints(d))
    num = ints(abs(c))
    if c < 0:
        num = combine("neg", num)
    if d == 1:
        return num
    return combine("mul", num, combine("inv", ints(d)))


def test_nbhd_rational_matches_recursive_reference():
    for K in (Q, F7, make_field("F3^2"), make_field("F2"), make_field("F13"), make_field("F2^2")):
        for c in range(-45, 46):
            for d in range(1, 25):
                q = Fraction(c, d)
                if K.is_finite and q.denominator % K.p == 0:
                    with pytest.raises(ZeroDivisionError, match=re.escape(
                            f"denominator {q.denominator} vanishes in {K.spec()}")):
                        nbhd_rational(q, K)
                    continue
                want = _recursive_rational(q, K)
                got = nbhd_rational(q, K)
                assert (got.elements, got.target_index) == (want.elements, want.target_index), (K.spec(), q)


def test_nbhd_rational_huge_integer():
    A = nbhd_rational(10**400, Q)
    assert A.r == Q.element(10**400)
    assert A.elements[-1] == Q.one()
    assert len(A.elements) <= 2 * 1330  # at most two values per bit


def _full_scan_facts(A):
    index = {a: i for i, a in enumerate(A.elements)}
    sums, products = set(), set()
    for (i, a), (j, b) in itertools.product(enumerate(A.elements), repeat=2):
        if a + b in index:
            sums.add((i, j, index[a + b]))
        if a * b in index:
            products.add((i, j, index[a * b]))
    return sums, products


def test_facts_match_full_scan():
    rng = random.Random(1931)
    P = 2**30 - 35  # the residue prime: these values collide modulo it
    pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(10)]
    pool += [0, 1, -1, P, P + 1, 2 * P, P * P, Fraction(P + 2, 3), Fraction(2, P + 2)]
    cases = [Neighbourhood(Q, tuple(Q.element(v) for v in dict.fromkeys(rng.sample(pool, 8))), 0)
             for _ in range(300)]
    # a denominator the prime divides takes the full scan
    cases.append(neighbourhood(Q, [1, 2, Fraction(1, P), Fraction(2, P)], 1))
    cases.append(neighbourhood(Q, [1, 2, Fraction(1, P), Fraction(2, P), Fraction(3, P), 3, P], Fraction(1, P)))
    cases += [nbhd_rational(Fraction(c, d), Q) for c, d in ((5, 3), (-7, 12), (1000001, 999))]
    for K in (F5, F7, F4, make_field("F3^2")):
        elems = list(enumerate_elements(K))
        cases += [Neighbourhood(K, tuple(rng.sample(elems, rng.randint(1, len(elems)))), 0)
                  for _ in range(40)]
    for A in cases:
        fs = facts(A)
        assert (set(fs.sums), set(fs.products)) == _full_scan_facts(A), A.elements


def test_kernel_facts_match_field_element_scan():
    # random subsets, in random order, of fields whose kernel indices and
    # coefficient vectors differ most; the tables are built first, so every
    # subset, however small, takes the kernel path
    rng = random.Random(1932)
    for spec in ("F5^2", "F2^4", "F3^3"):
        K = make_field(spec)
        int_field(K)
        elems = list(enumerate_elements(K))
        for _ in range(30):
            A = Neighbourhood(K, tuple(rng.sample(elems, rng.randint(1, len(elems)))), 0)
            fs = facts(A)
            assert fs.ones == {i for i, a in enumerate(A.elements) if a == K.one()}
            assert (set(fs.sums), set(fs.products)) == _full_scan_facts(A), A.to_json()


def test_facts_do_no_field_element_arithmetic(monkeypatch):
    # the whole field, distinguished at index 2: the element 2 of F7 and of
    # F3^3, which every map fixes, and F4's generator, which Frobenius moves
    cases = [Neighbourhood(K, tuple(enumerate_elements(K)), 2) for K in (F7, F4, make_field("F3^3"))]
    want = [(facts(A), is_neighbourhood(A)) for A in cases]

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic in facts")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__", "inverse"):
        monkeypatch.setattr(FieldElement, op, refuse)
    assert [(facts(A), is_neighbourhood(A)) for A in cases] == want
    assert [d.yes for _, d in want] == [True, False, True]


def test_small_sets_in_large_fields_build_no_kernel():
    # certifying or compiling a few elements reads only their facts, which
    # do not repay the O(q) tables of a million-element field
    K = make_field("F1000003")
    A = neighbourhood(K, [1, 2, 3, 6, K.p - 1], 6)
    fs = facts(A)
    assert (set(fs.sums), set(fs.products)) == _full_scan_facts(A)
    assert fs.ones == {0}
    assert certify_by_propagation(A) is True
    assert certify_by_propagation(nbhd_rational(Fraction(5, 7), K)) is True
    assert neighbourhood_to_formula(A) is not None
    assert K not in fields._INT_FIELDS


def test_fixed_subfield_prime_field_is_everything():
    assert fixed_subfield(F5) == set(enumerate_elements(F5))


def test_fixed_subfield_f4():
    got = fixed_subfield(F4)
    assert got == {F4.element(0), F4.element(1)}
    # agrees with the Frobenius fixed points
    assert got == {a for a in enumerate_elements(F4) if frobenius(a) == a}


GENERATING_FIELDS = (
    "F2", "F3", "F5", "F7", "F11", "F13", "F2^2", "F2^3", "F2^4",
    "F3^2", "F3^3", "F3^4", "F5^2", "F7^2", "F11^2", "F13^2", "F7^1:3,1",
)


@pytest.mark.parametrize("spec", GENERATING_FIELDS)
def test_generating_system_has_the_maps_of_the_full_fact_system(spec):
    # x generates K over F_p: the maps fixed by a root of the modulus as
    # the image of x are the maps the search finds on all facts of A = K
    K = make_field(spec)
    elems = enumerate_elements(K)
    full = enumerate_arithmetic_maps(Neighbourhood(K, tuple(elems), 0))
    T = int_field(K)
    assert list(automorphisms(K)) == [[T.index(a) for a in m.values] for m in full]
    assert len(full) == K.degree
    assert fixed_subfield(K) == {a for a in elems if frobenius(a) == a}
    with pytest.raises(CapExceededError):
        fixed_subfield(K, cap=K.degree - 1)
    assert fixed_subfield(K, cap=K.degree) == fixed_subfield(K)


def test_fixed_subfield_cap_counts_automorphisms():
    K = make_field("F2^4")
    with pytest.raises(CapExceededError, match="more than 3 arithmetic maps"):
        fixed_subfield(K, cap=3)
    assert fixed_subfield(K, cap=4) == {K.element(0), K.element(1)}


def test_fixed_subfield_needs_finite():
    with pytest.raises(InfiniteFieldError):
        fixed_subfield(Q)


def test_neighbourhood_constructor_validation():
    with pytest.raises(ValueError):
        Neighbourhood(F5, (F5.element(1), F5.element(1)), 0)
    with pytest.raises(ValueError):
        Neighbourhood(F5, (F5.element(1),), 3)
    with pytest.raises(ValueError):
        neighbourhood(F5, [1, 2], 4)
    deduped = neighbourhood(F5, [1, 2, 1, 2], 2)
    assert deduped.elements == (F5.element(1), F5.element(2))


def test_serialization():
    A = neighbourhood(F7, [1, 2], 2)
    assert A.to_json() == {
        "field": "F7",
        "elements": ["[1]", "[2]"],
        "target_index": 1,
    }
    maps = enumerate_arithmetic_maps(A)
    assert maps[0].as_pairs() == [["[1]", "[1]"], ["[2]", "[2]"]]


def test_decision_truthiness():
    assert bool(Decision(True)) is True
    assert bool(Decision(False, None)) is False
