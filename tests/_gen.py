"""Random existential ring formulas for semantic-preservation tests, and
the benchmark's own inputs (`bench_module`)."""

import importlib
import random
import sys
from pathlib import Path

from defifix.formulas import And, Equal, Exists, Formula, Not, Or, free_variables
from defifix.terms import Term


def random_polynomial(rng: random.Random, pool: list[str]) -> Term:
    # degree <= 3, small integer coefficients
    t = Term.zero()
    for _ in range(rng.randint(1, 3)):
        part = Term.constant(rng.choice([1, 1, 2, 3, -1, -2]))
        for _ in range(rng.randint(0, 2)):
            part = part * Term.variable(rng.choice(pool)) ** rng.randint(1, 2)
        if part.degree() > 3:
            part = Term.variable(rng.choice(pool))
        t = t + part
    return t


def random_existential_formula(rng: random.Random, max_negations: int = 2) -> Formula:
    """One free variable "x", bound "y"/"z", <= 3 variables total,
    degree <= 3, at most `max_negations` negated atoms."""
    pool = ["x", "y", "z"]
    budget = [max_negations]

    def atom() -> Formula:
        eq = Equal(random_polynomial(rng, pool), random_polynomial(rng, pool))
        if budget[0] > 0 and rng.random() < 0.3:
            budget[0] -= 1
            return Not(eq)
        return eq

    def tree(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.4:
            return atom()
        parts = tuple(tree(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(parts) if rng.random() < 0.6 else Or(parts)

    while True:
        budget[0] = max_negations
        core = tree(2)
        f: Formula = core
        for v in ("z", "y"):
            if v in free_variables(f):
                f = Exists(v, f)
        if free_variables(f) == {"x"}:
            return f


BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def bench_module(name: str):
    """A module of the benchmark (`bench/`), such as `gen` or `workloads`,
    imported with bench/ on the path for the import only."""
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)
