"""The validation of constraint systems and the incidence lists the
search reads, the engine's propagation of atoms whose two operand places
are one variable, x + x = c and x * x = c, and a differential check of the
search against full enumeration."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defifix.engine import (
    ConstraintSearch,
    ConstraintSystem,
    One,
    Plus,
    Times,
    _incidence_and_forced,
)
from defifix.errors import NormalizationError
from defifix.fields import enumerate_elements, int_field, make_field


def _system(names, atoms, free=0):
    return ConstraintSystem(tuple(names.split()), tuple(atoms), free)


@pytest.mark.parametrize("free", [-1, 3])
def test_system_rejects_a_free_index_outside_the_table(free):
    with pytest.raises(NormalizationError, match="^distinguished variable missing from table$"):
        _system("a b c", [], free)


@pytest.mark.parametrize(
    "bad",
    [One(-1), One(3), Plus(-1, 0, 1), Plus(0, 3, 1), Plus(0, 1, 3), Times(3, 0, 1),
     Times(0, -1, 1), Times(0, 1, -1)],
)
def test_system_names_the_first_atom_outside_the_table(bad):
    later = Times(0, 4, 1)
    with pytest.raises(NormalizationError) as raised:
        _system("a b c", [One(0), Plus(0, 0, 1), bad, later])
    assert str(raised.value) == f"atom {bad} indexes outside the variable table"


def test_incidence_lists_each_atom_once_per_distinct_place():
    s = _system("z o x y", [Plus(0, 0, 0), One(1), Times(2, 2, 1), Plus(3, 2, 3), Times(2, 3, 2)])
    incidence, forced = _incidence_and_forced(s)
    assert incidence == [
        [(False, 0, 0, 0)],
        [(True, 2, 2, 1)],
        [(True, 2, 2, 1), (False, 3, 2, 3), (True, 2, 3, 2)],
        [(False, 3, 2, 3), (True, 2, 3, 2)],
    ]
    # 1 for a One atom, 0 for the other summand of x + y = y and of 0 + 0 = 0,
    # each with the atom that forces it
    assert forced == [(0, 0, (False, 0, 0, 0)), (1, 1, One(1)), (2, 0, (False, 3, 2, 3))]


def _pinned(search, var, v):
    """The root state with var set to v and propagated, or None on a
    conflict."""
    vals = list(search.root)
    return vals if search._assign(vals, [], var, v) else None


@pytest.mark.parametrize("spec", ["F7", "F3^2"])
def test_doubling_sets_the_half_at_the_root(spec):
    K = make_field(spec)
    T = int_field(K)
    half = T.inv(2)
    search = ConstraintSearch(_system("c x", [One(0), Plus(1, 1, 0)]), K)
    assert search.root == [1, half]
    search = ConstraintSearch(_system("c x", [Plus(1, 1, 0)]), K)
    for c in range(T.q):
        assert _pinned(search, 0, c) == [c, T.mul(c, half)]


@pytest.mark.parametrize("spec", ["F2^2", "F2^3"])
def test_square_sets_the_square_root_in_characteristic_2(spec):
    K = make_field(spec)
    T = int_field(K)
    search = ConstraintSearch(_system("o x", [One(0), Times(1, 1, 0)]), K)
    assert search.root == [1, 1]
    search = ConstraintSearch(_system("c x", [Times(1, 1, 0)]), K)
    for c in range(T.q):
        (root,) = [r for r in range(T.q) if T.mul(r, r) == c]
        assert _pinned(search, 0, c) == [c, root]


def test_doubling_a_nonzero_element_fails_in_characteristic_2():
    F4 = make_field("F2^2")
    s = _system("c x", [One(0), Plus(1, 1, 0)])
    search = ConstraintSearch(s, F4)
    assert search.root is None
    assert list(search.solutions()) == []
    # x + x = 0 holds for every x: nothing is set
    search = ConstraintSearch(_system("z x", [Plus(0, 0, 0), Plus(1, 1, 0)]), F4)
    assert search.root == [0, -1]
    assert len(list(search.solutions())) == 4


def test_square_of_a_non_square_fails_at_the_root():
    F7 = make_field("F7")
    # o = 1, t = 2, c = 3, which is no square mod 7
    s = _system("o t c x", [One(0), Plus(0, 0, 1), Plus(1, 0, 2), Times(3, 3, 2)])
    search = ConstraintSearch(s, F7)
    assert search.root is None
    assert list(search.solutions()) == []
    # c = 2 = 3^2 has the two roots 3 and 4, so x stays unset
    s = _system("o c x", [One(0), Plus(0, 0, 1), Times(2, 2, 1)])
    search = ConstraintSearch(s, F7)
    assert search.root == [1, 2, -1]
    assert [sol[2] for sol in search.solutions()] == [3, 4]


@pytest.mark.parametrize("spec", ["F7", "F2^2", "F3^2"])
def test_square_or_double_of_zero_sets_zero(spec):
    K = make_field(spec)
    search = ConstraintSearch(_system("z x", [Plus(0, 0, 0), Times(1, 1, 0)]), K)
    assert search.root == [0, 0]
    if K.p != 2:
        search = ConstraintSearch(_system("z x", [Plus(0, 0, 0), Plus(1, 1, 0)]), K)
        assert search.root == [0, 0]


# -- differential check against full enumeration -----------------------------------

DIFFERENTIAL_FIELDS = ["F5", "F7", "F2^2", "F2^3", "F3^2"]


def _tables(K):
    """Addition and multiplication tables on `IntField` indices, from
    FieldElement arithmetic, so they share no table with the engine."""
    elements = enumerate_elements(K)
    index = {a: i for i, a in enumerate(elements)}
    add = [[index[a + b] for b in elements] for a in elements]
    mul = [[index[a * b] for b in elements] for a in elements]
    return add, mul


def _enumerated(s, K):
    """Every tuple of the q^n in lexicographic order that meets the atoms."""
    add, mul = _tables(K)
    checks = [
        (lambda v, a=a: v[a.i] == 1) if isinstance(a, One)
        else (lambda v, a=a: add[v[a.i]][v[a.j]] == v[a.k]) if isinstance(a, Plus)
        else (lambda v, a=a: mul[v[a.i]][v[a.j]] == v[a.k])
        for a in s.atoms
    ]
    q = K.order
    return [
        v
        for v in itertools.product(range(q), repeat=len(s.variables))
        if all(holds(v) for holds in checks)
    ]


@st.composite
def _systems(draw):
    """Up to 5 variables (and q^n within 20,000, so enumeration is cheap)
    with up to 6 atoms: ones, ordinary sums and products, and sums and
    products whose two operands are one variable."""
    spec = draw(st.sampled_from(DIFFERENTIAL_FIELDS))
    q = make_field(spec).order
    n = draw(st.integers(1, max(n for n in range(1, 6) if q**n <= 20_000)))
    var = st.integers(0, n - 1)
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from([One, Plus, Times, "double", "square"]))
        if kind is One:
            atoms.append(One(draw(var)))
        elif kind in ("double", "square"):
            x = draw(var)
            atoms.append((Plus if kind == "double" else Times)(x, x, draw(var)))
        else:
            atoms.append(kind(draw(var), draw(var), draw(var)))
    free = draw(var)
    return spec, ConstraintSystem(tuple(f"v{i}" for i in range(n)), tuple(atoms), free)


@settings(max_examples=200, deadline=None)
@example(("F7", _system("o c x y", [One(0), Plus(0, 0, 1), Times(2, 2, 1), Plus(3, 3, 2)])))
@example(("F2^3", _system("o x c y", [One(0), Plus(1, 0, 2), Times(3, 3, 2)], 1)))
@example(("F2^2", _system("o x y", [One(0), Plus(1, 1, 2), Times(2, 1, 0)], 1)))
@example(("F3^2", _system("x o y", [One(1), Plus(2, 2, 1), Times(0, 0, 2)])))
@given(_systems())
def test_search_matches_full_enumeration(case):
    spec, s = case
    K = make_field(spec)
    search = ConstraintSearch(s, K)
    expected = _enumerated(s, K)
    assert list(search.solutions()) == expected
    first: dict[int, tuple[int, ...]] = {}
    for sol in expected:
        first.setdefault(sol[s.free_index], sol)
    assert list(search.projection().items()) == sorted(first.items())
