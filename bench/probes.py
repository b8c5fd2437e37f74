"""Probes for layers reached only inside other calls: field add/mul/inv
per field kind, Term.evaluate, facts, and CLI start-up versus import.

They run on the workload's own inputs (its fields, terms, neighbourhoods
and rationals) and are reported apart from the spans. A field kind the
workload never uses is probed on F7, F3^2 or small rationals instead, so
every workload reports every probe.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

from clock import cpu_seconds

from defifix import cli as cli_module
from defifix.fields import enumerate_elements, make_field
from defifix.neighbourhood import facts

REPEATS = 5
FALLBACK = {"prime": "F7", "ext": "F3^2"}


def _per_call_us(fn, args: list) -> float:
    """Median over REPEATS of the mean time of fn(*a) for a in args, in µs."""
    runs = []
    for _ in range(REPEATS):
        t0 = cpu_seconds()
        for a in args:
            fn(*a)
        runs.append((cpu_seconds() - t0) / len(args))
    return statistics.median(runs) * 1e6


def _pairs(rng: Random, elements: list, count: int) -> list:
    return [(rng.choice(elements), rng.choice(elements)) for _ in range(count)]


def fields(workload, rationals: list) -> dict:
    rng = Random(0)
    pools = {"prime": [], "ext": []}
    for K in workload.fields.values():
        if K.is_finite:
            pools["prime" if K.degree == 1 else "ext"] += enumerate_elements(K)[1:]
    for kind, spec in FALLBACK.items():
        if not pools[kind]:
            pools[kind] = enumerate_elements(make_field(spec))[1:]
    Q = make_field("Q")
    pools["Q"] = [Q.element(q) for q in rationals if q] or [
        Q.element(Fraction(c, d)) for c in range(-9, 10) if c for d in range(1, 10)
    ]
    out = {}
    for kind, elements in pools.items():
        # pairs are drawn within one field: mixed operands would raise
        by_field: dict = {}
        for a in elements:
            by_field.setdefault(a.field, []).append(a)
        pairs = [p for group in by_field.values() for p in _pairs(rng, group, 500 // len(by_field) + 1)]
        out[f"fields.{kind}.add_us"] = _per_call_us(lambda a, b: a + b, pairs)
        out[f"fields.{kind}.mul_us"] = _per_call_us(lambda a, b: a * b, pairs)
        out[f"fields.{kind}.inv_us"] = _per_call_us(lambda a, b: a.inverse(), pairs)
    return out


def terms(term_specs: list, workload) -> dict:
    """Term.evaluate on the workload's terms (the first 200) at random
    points of the finite field each term belongs to."""
    rng = Random(0)
    calls = []
    for term, spec in term_specs[:200]:
        K = workload.fields.get(spec) or make_field(spec)
        elements = enumerate_elements(K)
        point = {v: rng.choice(elements) for v in term.free_variables()}
        calls.append((term, point, K))
    return {"terms.evaluate_us": _per_call_us(lambda t, a, K: t.evaluate(a, K), calls)}


def neighbourhoods(As: list) -> dict:
    """facts() on the workload's neighbourhoods: facts found per call."""
    if not As:
        return {"neighbourhood.facts.count": 0.0, "neighbourhood.facts_us": 0.0}
    counts = []
    for A in As:
        fs = facts(A)
        counts.append(len(fs.ones) + len(fs.sums) + len(fs.products))
    return {
        "neighbourhood.facts.count": statistics.mean(counts),
        "neighbourhood.facts_us": _per_call_us(facts, [(A,) for A in As]),
    }


def _child_ms(argv: list, env: dict, cwd) -> float:
    runs = []
    for _ in range(REPEATS):
        t0 = cpu_seconds()
        subprocess.run(argv, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
        runs.append(cpu_seconds() - t0)
    return statistics.median(runs) * 1e3


def cli(calls: list, env: dict, cwd) -> dict:
    """Interpreter start-up, `import defifix.cli` on top of it, and
    in-process cli.main over the cli-calls command mix."""
    interp = _child_ms([sys.executable, "-c", "pass"], env, cwd)
    imported = _child_ms([sys.executable, "-c", "import defifix.cli"], env, cwd)
    runs = []
    for _ in range(REPEATS):
        t0 = cpu_seconds()
        for call in calls:
            with redirect_stdout(io.StringIO()):
                cli_module.main(call["argv"])
        runs.append((cpu_seconds() - t0) / len(calls))
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.run_ms": statistics.median(runs) * 1e3,
    }
