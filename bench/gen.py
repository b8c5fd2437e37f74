"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain inputs for the
program: formulas, subsets of finite fields, rationals and plane curves.
Nothing here imports from `tests/`, so editing the tests cannot change a
workload.
"""

from __future__ import annotations

import random
from fractions import Fraction

from defifix.formulas import And, Equal, Exists, Not, Or, free_variables
from defifix.terms import Term

BOUND_NAMES = ("y", "z", "w")


# -- formulas ------------------------------------------------------------------


def random_polynomial(rng: random.Random, pool: list[str]) -> Term:
    """1-3 monomials of total degree <= 3 with small integer coefficients."""
    t = Term.zero()
    for _ in range(rng.randint(1, 3)):
        part = Term.constant(rng.choice((1, 1, 2, 3, -1, -2)))
        degree = 0
        for _ in range(rng.randint(0, 2)):
            e = rng.randint(1, 2)
            if degree + e > 3:
                break
            part = part * Term.variable(rng.choice(pool)) ** e
            degree += e
        t = t + part
    return t


def random_formula(rng: random.Random, bound: int, max_negations: int = 2):
    """Existential formula with free variable x and exactly `bound` bound
    variables, all of which occur; degree <= 3, at most `max_negations`
    negated equations, an And/Or tree of depth <= 2."""
    names = list(BOUND_NAMES[:bound])
    pool = ["x"] + names
    while True:
        budget = [max_negations]

        def atom():
            eq = Equal(random_polynomial(rng, pool), random_polynomial(rng, pool))
            if budget[0] > 0 and rng.random() < 0.3:
                budget[0] -= 1
                return Not(eq)
            return eq

        def tree(depth: int):
            if depth == 0 or rng.random() < 0.4:
                return atom()
            parts = tuple(tree(depth - 1) for _ in range(rng.randint(2, 3)))
            return And(parts) if rng.random() < 0.6 else Or(parts)

        core = tree(2)
        if free_variables(core) != set(pool):
            continue
        f = core
        for v in reversed(names):
            f = Exists(v, f)
        return f


# -- subsets, rationals, curves ---------------------------------------------------


def random_subset(rng: random.Random, order: int, low: int = 4, high: int = 10):
    """A random subset of element indices 0..order-1 (enumeration order) of
    size low..high, and a target index drawn from it."""
    size = rng.randint(low, min(high, order))
    chosen = rng.sample(range(order), size)
    return chosen, rng.choice(chosen)


def random_rational(rng: random.Random, p: int = 0, bound: int = 10) -> Fraction:
    """c/d with 1 <= |c|, d <= bound and d prime to p (when p > 0), so
    that q has an image in F_p."""
    c = rng.choice((-1, 1)) * rng.randint(1, bound)
    while True:
        d = rng.randint(1, bound)
        if not p or d % p:
            return Fraction(c, d)


def random_curve(rng: random.Random, p: int) -> Term:
    """y^2 = x^3 + a x^2 + b x + c with |a|, |b|, |c| <= 3, so that the
    height bound m = 3 stays below the characteristic p >= 5."""
    x, y = Term.variable("x"), Term.variable("y")
    g = y**2 - x**3
    for e in (2, 1, 0):
        c = rng.randint(-3, 3)
        if c:
            g = g - c * x**e
    return g
