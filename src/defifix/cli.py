"""Command-line surface: every subcommand reads a config, runs one
pipeline, and prints a single report to stdout.

Exit codes: 0 for success (Yes / Certified / true), 1 for a semantic
negative (No / Unknown / not a singleton / cap exceeded), with a
machine-readable `witness` or `reason` in the report, and 2 for usage
or input errors.  The default format is JSON with a frozen key set and
order per subcommand (bumping OUTPUT_SCHEMA_VERSION is the contract for
changing them); `--format text` renders the same report as indented
lines.  Identical invocations produce byte-identical stdout.

Formulas come inline (--formula) or from a file (--in).  The
DEFIFIX_CAP environment variable overrides every default search cap;
an explicit --cap flag wins over both.  --seed is accepted for
reproducibility plumbing; every implemented search is deterministic,
so it never changes output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import curve_lab, schemas
from .compiler import (
    DEFAULT_TERM_CAP,
    compile_singleton,
    formula_to_neighbourhood,
    neighbourhood_to_formula,
)
from .errors import (
    CapExceededError,
    DefifixError,
    NotDefiningError,
    NotSingletonError,
)
from .fields import FieldDescriptor, FieldElement, element_str, enumerate_elements, make_field
from .formulas import evaluate, free_variables, parse, parse_term, print_formula
from .neighbourhood import (
    DEFAULT_MAP_CAP,
    Neighbourhood,
    certify_by_propagation,
    enumerate_arithmetic_maps,
    fixed_subfield,
    is_neighbourhood,
    nbhd_rational,
    neighbourhood,
)
from .normalize import DEFAULT_DNF_CAP, normalize
from .schemas import SchemaParams
from .terms import Term

OUTPUT_SCHEMA_VERSION = 1

_SEMANTIC_ERRORS = (
    CapExceededError,
    NotDefiningError,
    NotSingletonError,
)


# -- input helpers ---------------------------------------------------------------


def _read_formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    with open(args.infile, encoding="utf-8") as handle:
        return handle.read()


def _split_elements(text: str) -> list[str]:
    """Split a comma-separated element list, keeping bracketed vectors whole."""
    out, depth, current = [], 0, []
    for c in text:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(current).strip())
            current = []
        else:
            current.append(c)
    tail = "".join(current).strip()
    if tail:
        out.append(tail)
    return out


def _parse_elements(K: FieldDescriptor, text: str) -> list[FieldElement]:
    parts = _split_elements(text)
    if not parts:
        raise ValueError("empty element list")
    return [K.element(p) for p in parts]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {text!r}") from None


def _cap(args, default: int) -> int:
    value = args.cap
    if value is None:
        env = os.environ.get("DEFIFIX_CAP")
        value = int(env) if env else default
    if value <= 0:
        raise ValueError(f"cap must be positive, got {value}")
    return value


def _ordered(K: FieldDescriptor, elements) -> list[str]:
    """Element strings in field enumeration order (finite fields only)."""
    chosen = set(elements)
    return [element_str(a) for a in enumerate_elements(K) if a in chosen]


# -- subcommand handlers -----------------------------------------------------------


def _cmd_parse(args):
    f = parse(_read_formula_text(args))
    return 0, {
        "formula": print_formula(f),
        "free_variables": sorted(free_variables(f)),
    }


def _cmd_eval(args):
    f = parse(_read_formula_text(args))
    K = make_field(args.field)
    assignment = {}
    for item in args.assign or []:
        name, _, value = item.partition("=")
        if not _ or not name:
            raise ValueError(f"malformed --assign {item!r}; expected name=element")
        assignment[name.strip()] = K.element(value.strip())
    interp = {}
    for item in args.pred or []:
        name, _, values = item.partition("=")
        if not _ or not name:
            raise ValueError(f"malformed --pred {item!r}; expected name=v;v;...")
        interp[name.strip()] = {K.element(v.strip()) for v in values.split(";") if v.strip()}
    value = evaluate(f, K, assignment, interp)
    payload = {
        "formula": print_formula(f),
        "field": K.spec(),
        "assignment": {n: element_str(a) for n, a in sorted(assignment.items())},
        "value": value,
    }
    if value:
        return 0, payload
    payload["reason"] = "formula evaluates to false"
    return 1, payload


def _cmd_normalize(args):
    f = parse(_read_formula_text(args))
    nf = normalize(f, _cap(args, DEFAULT_DNF_CAP))
    systems = [
        {
            "variables": list(s.variables),
            "free_index": s.free_index,
            "atoms": [s.atom_text(a) for a in s.atoms],
        }
        for s in nf.systems
    ]
    return 0, {
        "formula": print_formula(f),
        "free_variable": nf.free_var,
        "systems": systems,
        "negations_eliminated": nf.negations,
        "fresh_variables": nf.negations,
    }


def _make_neighbourhood(args) -> Neighbourhood:
    K = make_field(args.field)
    return neighbourhood(K, _parse_elements(K, args.elements), K.element(args.target))


def _nbhd_head(A: Neighbourhood) -> dict:
    """The field, elements and target that open a neighbourhood report."""
    return {
        "field": A.field.spec(),
        "elements": [element_str(a) for a in A.elements],
        "target": element_str(A.r),
    }


def _certify(A: Neighbourhood, payload: dict):
    """Close a report with `certified`, and its `reason` when Unknown."""
    certified = payload["certified"] = certify_by_propagation(A)
    if certified:
        return 0, payload
    payload["reason"] = "value propagation does not pin the target; status unknown"
    return 1, payload


def _cmd_nbhd_check(args):
    A = _make_neighbourhood(args)
    decision = is_neighbourhood(A, _cap(args, DEFAULT_MAP_CAP))
    payload = {**_nbhd_head(A), "neighbourhood": decision.yes}
    if decision.yes:
        return 0, payload
    payload["witness"] = {
        "pairs": decision.witness.as_pairs(),
        "moves_target_to": element_str(decision.witness(A.r)),
    }
    return 1, payload


def _cmd_nbhd_maps(args):
    K = make_field(args.field)
    elements = _parse_elements(K, args.elements)
    A = Neighbourhood(K, tuple(elements), 0)
    maps = enumerate_arithmetic_maps(A, _cap(args, DEFAULT_MAP_CAP))
    return 0, {
        "field": K.spec(),
        "elements": [element_str(a) for a in A.elements],
        "count": len(maps),
        "maps": [
            {"values": [element_str(v) for v in m.values], "identity": m.is_identity}
            for m in maps
        ],
    }


def _cmd_nbhd_certify(args):
    A = _make_neighbourhood(args)
    return _certify(A, _nbhd_head(A))


def _cmd_nbhd_rational(args):
    K = make_field(args.field)
    A = nbhd_rational(_rational(args.q), K)
    return _certify(A, {"q": args.q, **_nbhd_head(A)})


def _cmd_compile_to_formula(args):
    A = _make_neighbourhood(args)
    f = neighbourhood_to_formula(A)
    return 0, {**_nbhd_head(A), "formula": print_formula(f), "free_variable": "x1"}


def _cmd_compile_from_formula(args):
    K = make_field(args.field)
    f = parse(_read_formula_text(args))
    A = formula_to_neighbourhood(f, K, _cap(args, DEFAULT_DNF_CAP))
    return 0, {
        "field": K.spec(),
        "formula": print_formula(f),
        "neighbourhood": A.to_json(),
    }


def _cmd_compile_single_eq(args):
    A = _make_neighbourhood(args)
    f = compile_singleton(A, args.prefer_linear, _cap(args, DEFAULT_TERM_CAP))
    return 0, {**_nbhd_head(A), "formula": print_formula(f)}


def _cmd_fixed_field(args):
    K = make_field(args.field)
    fixed = fixed_subfield(K, _cap(args, DEFAULT_MAP_CAP))
    return 0, {"fixed": _ordered(K, fixed)}


def _cmd_curve_lab(args):
    K = make_field(args.field)
    g = parse_term(args.poly)
    data = curve_lab.CurveData.build(g, K)
    cap = _cap(args, curve_lab.DEFAULT_CLOSURE_CAP)
    recipe = curve_lab.build_closure(data, mode=args.mode, cap=cap)
    report = curve_lab.verify_closure(data, recipe, cap)
    payload = {
        "curve": data.to_json(),
        "closure": recipe.to_json(),
        "report": report,
    }
    claims = [
        report["identity_on_w_image"],
        report["abscissas_into_abscissas"],
        report["injective_on_abscissas"],
    ] + [row["in_closure"] and row["is_neighbourhood"] for row in report["per_k"]]
    if all(claims):
        return 0, payload
    payload["reason"] = "some verification claim failed; see report"
    return 1, payload


def _cmd_schema_emit(args):
    params = SchemaParams(
        U=parse_term(args.U) if args.U else None,
        V=parse_term(args.V) if args.V else None,
        F=parse(args.F) if args.F else None,
        G=parse(args.G) if args.G else None,
        N=parse(args.N) if args.N else None,
        phi=parse(args.phi) if args.phi else None,
        predicate=args.predicate,
        i=args.i,
    )
    f = schemas.emit(args.name, params)
    return 0, {
        "name": args.name,
        "formula": print_formula(f),
        "free_variables": sorted(free_variables(f)),
    }


# -- argument parsing ---------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("text", "json"), default="json")
    sp.add_argument("--seed", type=int, default=None, help="accepted for reproducibility; all searches are deterministic")


def _add_formula_source(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="inline formula text")
    group.add_argument("--in", dest="infile", help="read the formula from a file")


def _add_nbhd_args(sp, with_target=True):
    sp.add_argument("--field", required=True)
    sp.add_argument("--elements", required=True, help="comma-separated element list")
    if with_target:
        sp.add_argument("--target", required=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="defifix",
        description="decide and construct parameter-free singleton definitions in computable fields",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a formula and print its canonical form")
    _add_formula_source(sp)
    _add_common(sp)

    sp = sub.add_parser("eval", help="evaluate a formula over a finite field")
    _add_formula_source(sp)
    sp.add_argument("--field", required=True)
    sp.add_argument("--assign", action="append", help="name=element, repeatable")
    sp.add_argument("--pred", action="append", help="name=v;v;..., repeatable (unary predicates)")
    _add_common(sp)

    sp = sub.add_parser("normalize", help="rewrite into three-address constraint systems")
    _add_formula_source(sp)
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)

    nbhd = sub.add_parser("nbhd", help="arithmetic neighbourhood toolkit")
    nsub = nbhd.add_subparsers(dest="subcommand", required=True)
    sp = nsub.add_parser("check", help="decide whether the set pins the target")
    _add_nbhd_args(sp)
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)
    sp = nsub.add_parser("maps", help="list all arithmetic maps on the set")
    _add_nbhd_args(sp, with_target=False)
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)
    sp = nsub.add_parser("certify", help="one-sided certification by value propagation")
    _add_nbhd_args(sp)
    _add_common(sp)
    sp = nsub.add_parser("rational", help="build and certify a neighbourhood of a rational")
    sp.add_argument("--q", required=True, help="rational number, e.g. 5/3")
    sp.add_argument("--field", default="Q")
    _add_common(sp)

    comp = sub.add_parser("compile", help="between neighbourhoods and defining formulas")
    csub = comp.add_subparsers(dest="subcommand", required=True)
    sp = csub.add_parser("to-formula", help="emit the fact conjunction as a formula")
    _add_nbhd_args(sp)
    _add_common(sp)
    sp = csub.add_parser("from-formula", help="recover a neighbourhood from a defining formula")
    _add_formula_source(sp)
    sp.add_argument("--field", required=True)
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)
    sp = csub.add_parser("single-eq", help="fold the facts into one equation")
    _add_nbhd_args(sp)
    sp.add_argument("--prefer-linear", action="store_true")
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("fixed-field", help="arithmetically fixed elements of a finite field")
    sp.add_argument("--field", required=True)
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("curve-lab", help="closure construction for symmetric values of a plane curve")
    sp.add_argument("--field", required=True)
    sp.add_argument("--poly", required=True, help="curve polynomial in x and y")
    sp.add_argument("--mode", choices=("prefix", "paper"), default="prefix")
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)

    schema = sub.add_parser("schema", help="named formula templates")
    ssub = schema.add_subparsers(dest="subcommand", required=True)
    sp = ssub.add_parser("emit", help="emit one template by name")
    sp.add_argument("--name", required=True, choices=schemas.SCHEMA_NAMES)
    sp.add_argument("--U", help="polynomial in y")
    sp.add_argument("--V", help="polynomial in y")
    sp.add_argument("--F", help="formula in s, t")
    sp.add_argument("--G", help="formula in s, t")
    sp.add_argument("--N", help="formula in x")
    sp.add_argument("--phi", help="quantifier-free core formula")
    sp.add_argument("--predicate", default="U")
    sp.add_argument("--i", type=int, default=None)
    _add_common(sp)

    return p


_DISPATCH = {
    ("parse", None): _cmd_parse,
    ("eval", None): _cmd_eval,
    ("normalize", None): _cmd_normalize,
    ("nbhd", "check"): _cmd_nbhd_check,
    ("nbhd", "maps"): _cmd_nbhd_maps,
    ("nbhd", "certify"): _cmd_nbhd_certify,
    ("nbhd", "rational"): _cmd_nbhd_rational,
    ("compile", "to-formula"): _cmd_compile_to_formula,
    ("compile", "from-formula"): _cmd_compile_from_formula,
    ("compile", "single-eq"): _cmd_compile_single_eq,
    ("fixed-field", None): _cmd_fixed_field,
    ("curve-lab", None): _cmd_curve_lab,
    ("schema", "emit"): _cmd_schema_emit,
}


def run(args) -> tuple[int, dict]:
    """Dispatch a parsed config; returns (exit status, report)."""
    handler = _DISPATCH[(args.command, getattr(args, "subcommand", None))]
    try:
        return handler(args)
    except _SEMANTIC_ERRORS as e:
        payload = {
            "error": {"code": e.code, "message": str(e)},
            "reason": str(e),
        }
        if isinstance(e, NotSingletonError) and e.definable is not None:
            K = make_field(args.field)
            payload["definable"] = _ordered(K, e.definable)
        return 1, payload
    except DefifixError as e:
        return 2, {"error": {"code": e.code, "message": str(e)}}
    except (ValueError, ZeroDivisionError) as e:
        return 2, {"error": {"code": "input", "message": str(e)}}
    except OSError as e:
        return 2, {"error": {"code": "io", "message": str(e)}}


def _render_text(payload, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
        return lines
    if isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
        return lines
    return [f"{pad}{_scalar(payload)}"]


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, separators=(",", ": "))
    return "\n".join(_render_text(payload))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; fold its exit into our return code
        return 2 if exc.code else 0
    code, payload = run(args)
    sys.stdout.write(render(payload, args.format) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
