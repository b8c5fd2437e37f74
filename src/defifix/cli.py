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

Library names come through the package (`defifix.parse`,
`defifix.curve_lab.build_closure`), never from a module imported here,
so a call loads only the modules its subcommand uses: `parse` loads no
solver, only `schema emit` loads `schemas` (the parser reads the template
names off the package), and no `nbhd` or `fixed-field` call loads a
formula module.  Only the error classes are imported up front, since
`run` names them in its except clauses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import defifix

from .errors import CapExceededError, DefifixError, NotDefiningError, NotSingletonError

OUTPUT_SCHEMA_VERSION = 3

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


def _parse_elements(K: defifix.FieldDescriptor, text: str) -> list[defifix.FieldElement]:
    parts = _split_elements(text)
    if not parts:
        raise ValueError("empty element list")
    return [K.element(p) for p in parts]


def _named(items, flag: str, shape: str, read) -> dict:
    """`name=value` items of a repeatable option, each value passed through read."""
    out = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ValueError(f"malformed {flag} {item!r}; expected name={shape}")
        out[name.strip()] = read(value)
    return out


def _cap(args, default: int) -> int:
    value = args.cap
    if value is None:
        env = os.environ.get("DEFIFIX_CAP")
        value = defifix.fields._read_int(env) if env else default
    if value <= 0:
        raise ValueError(f"cap must be positive, got {value}")
    return value


def _ordered(K: defifix.FieldDescriptor, elements) -> list[str]:
    """Element strings in field enumeration order (finite fields only),
    sorted by kernel index: both callers have built the kernel."""
    return [defifix.element_str(a) for a in sorted(elements, key=defifix.int_field(K).index)]


# -- subcommand handlers -----------------------------------------------------------


def _cmd_parse(args):
    f = defifix.parse(_read_formula_text(args))
    return 0, {
        "formula": defifix.print_formula(f),
        "free_variables": sorted(defifix.free_variables(f)),
    }


def _cmd_eval(args):
    f = defifix.parse(_read_formula_text(args))
    K = defifix.make_field(args.field)
    assignment = _named(args.assign, "--assign", "element", lambda v: K.element(v.strip()))
    interp = _named(args.pred, "--pred", "v;v;...",
                    lambda vs: {K.element(v.strip()) for v in vs.split(";") if v.strip()})
    value = defifix.evaluate(f, K, assignment, interp)
    payload = {
        "formula": defifix.print_formula(f),
        "field": K.spec(),
        "assignment": {n: defifix.element_str(a) for n, a in sorted(assignment.items())},
        "value": value,
    }
    if value:
        return 0, payload
    payload["reason"] = "formula evaluates to false"
    return 1, payload


def _cmd_normalize(args):
    f = defifix.parse(_read_formula_text(args))
    nf = defifix.normalize.normalize(f, _cap(args, defifix.normalize.DEFAULT_DNF_CAP))
    systems = [
        {
            "variables": list(s.variables),
            "free_index": s.free_index,
            "atoms": [s.atom_text(a) for a in s.atoms],
        }
        for s in nf.systems
    ]
    return 0, {
        "formula": defifix.print_formula(f),
        "free_variable": nf.free_var,
        "systems": systems,
        "negations_eliminated": nf.negations,
        "fresh_variables": nf.negations,
    }


def _make_neighbourhood(args) -> defifix.Neighbourhood:
    K = defifix.make_field(args.field)
    elements = _parse_elements(K, args.elements)
    return defifix.neighbourhood.neighbourhood(K, elements, K.element(args.target))


def _nbhd_head(A: defifix.Neighbourhood) -> dict:
    """The field, elements and target that open a neighbourhood report."""
    return {
        "field": A.field.spec(),
        "elements": [defifix.element_str(a) for a in A.elements],
        "target": defifix.element_str(A.r),
    }


def _certify(A: defifix.Neighbourhood, payload: dict):
    """Close a report with `certified`, and its `reason` when Unknown."""
    certified = payload["certified"] = defifix.certify_by_propagation(A)
    if certified:
        return 0, payload
    payload["reason"] = "value propagation does not pin the target; status unknown"
    return 1, payload


def _cmd_nbhd_check(args):
    A = _make_neighbourhood(args)
    decision = defifix.is_neighbourhood(A, _cap(args, defifix.neighbourhood.DEFAULT_MAP_CAP))
    payload = {**_nbhd_head(A), "neighbourhood": decision.yes}
    if decision.yes:
        return 0, payload
    payload["witness"] = {
        "pairs": decision.witness.as_pairs(),
        "moves_target_to": defifix.element_str(decision.witness(A.r)),
    }
    return 1, payload


def _cmd_nbhd_maps(args):
    K = defifix.make_field(args.field)
    elements = _parse_elements(K, args.elements)
    # duplicates merge, first occurrence winning, as in every other subcommand
    A = defifix.neighbourhood.neighbourhood(K, elements, elements[0])
    maps = defifix.enumerate_arithmetic_maps(A, _cap(args, defifix.neighbourhood.DEFAULT_MAP_CAP))
    return 0, {
        "field": K.spec(),
        "elements": [defifix.element_str(a) for a in A.elements],
        "count": len(maps),
        "maps": [
            {"values": [defifix.element_str(v) for v in m.values], "identity": m.is_identity}
            for m in maps
        ],
    }


def _cmd_nbhd_certify(args):
    A = _make_neighbourhood(args)
    return _certify(A, _nbhd_head(A))


def _cmd_nbhd_rational(args):
    K = defifix.make_field(args.field)
    A = defifix.nbhd_rational(args.q, K)
    return _certify(A, {"q": args.q, **_nbhd_head(A)})


def _cmd_compile_to_formula(args):
    A = _make_neighbourhood(args)
    f = defifix.neighbourhood_to_formula(A)
    return 0, {**_nbhd_head(A), "formula": defifix.print_formula(f), "free_variable": "x1"}


def _cmd_compile_from_formula(args):
    K = defifix.make_field(args.field)
    f = defifix.parse(_read_formula_text(args))
    A = defifix.formula_to_neighbourhood(f, K, _cap(args, defifix.normalize.DEFAULT_DNF_CAP))
    return 0, {
        "field": K.spec(),
        "formula": defifix.print_formula(f),
        "neighbourhood": A.to_json(),
    }


def _cmd_compile_single_eq(args):
    A = _make_neighbourhood(args)
    cap = _cap(args, defifix.compiler.DEFAULT_TERM_CAP)
    f = defifix.compile_singleton(A, args.prefer_linear, cap)
    return 0, {**_nbhd_head(A), "formula": defifix.print_formula(f)}


def _cmd_fixed_field(args):
    K = defifix.make_field(args.field)
    fixed = defifix.fixed_subfield(K, _cap(args, defifix.neighbourhood.DEFAULT_MAP_CAP))
    return 0, {"fixed": _ordered(K, fixed)}


def _cmd_curve_lab(args):
    K = defifix.make_field(args.field)
    g = defifix.parse_term(args.poly)
    data = defifix.curve_lab.CurveData.build(g, K)
    cap = _cap(args, defifix.curve_lab.DEFAULT_CLOSURE_CAP)
    recipe = defifix.curve_lab.build_closure(data, mode=args.mode, cap=cap)
    report = defifix.curve_lab.verify_closure(data, recipe, cap)
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
    params = defifix.SchemaParams(
        U=defifix.parse_term(args.U) if args.U else None,
        V=defifix.parse_term(args.V) if args.V else None,
        F=defifix.parse(args.F) if args.F else None,
        G=defifix.parse(args.G) if args.G else None,
        N=defifix.parse(args.N) if args.N else None,
        phi=defifix.parse(args.phi) if args.phi else None,
        predicate=args.predicate,
        i=args.i,
    )
    f = defifix.emit(args.name, params)
    return 0, {
        "name": args.name,
        "formula": defifix.print_formula(f),
        "free_variables": sorted(defifix.free_variables(f)),
    }


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    def options(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    common = options()
    common.add_argument("--format", choices=("text", "json"), default="json")
    common.add_argument("--seed", type=defifix.fields._read_int, default=None, help="accepted for reproducibility; all searches are deterministic")
    cap = options()
    cap.add_argument("--cap", type=defifix.fields._read_int, default=None)
    formula = options()
    source = formula.add_mutually_exclusive_group(required=True)
    source.add_argument("--formula", help="inline formula text")
    source.add_argument("--in", dest="infile", help="read the formula from a file")
    field = options()
    field.add_argument("--field", required=True)
    elements = options(field)
    elements.add_argument("--elements", required=True, help="comma-separated element list")
    target = options(elements)
    target.add_argument("--target", required=True)

    def leaf(subparsers, name, handler, help, *parents):
        sp = subparsers.add_parser(name, help=help, parents=[*parents, common])
        sp.set_defaults(handler=handler)
        return sp

    p = argparse.ArgumentParser(
        prog="defifix",
        description="decide and construct parameter-free singleton definitions in computable fields",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    leaf(sub, "parse", _cmd_parse, "parse a formula and print its canonical form", formula)
    sp = leaf(sub, "eval", _cmd_eval, "evaluate a formula over a finite field", formula, field)
    sp.add_argument("--assign", action="append", help="name=element, repeatable")
    sp.add_argument("--pred", action="append", help="name=v;v;..., repeatable (unary predicates)")
    leaf(sub, "normalize", _cmd_normalize, "rewrite into three-address constraint systems", formula, cap)

    nsub = group("nbhd", "arithmetic neighbourhood toolkit")
    leaf(nsub, "check", _cmd_nbhd_check, "decide whether the set pins the target", target, cap)
    leaf(nsub, "maps", _cmd_nbhd_maps, "list all arithmetic maps on the set", elements, cap)
    leaf(nsub, "certify", _cmd_nbhd_certify, "one-sided certification by value propagation", target)
    sp = leaf(nsub, "rational", _cmd_nbhd_rational, "build and certify a neighbourhood of a rational")
    sp.add_argument("--q", required=True, help="rational number, e.g. 5/3")
    sp.add_argument("--field", default="Q")

    csub = group("compile", "between neighbourhoods and defining formulas")
    leaf(csub, "to-formula", _cmd_compile_to_formula, "emit the fact conjunction as a formula", target)
    leaf(csub, "from-formula", _cmd_compile_from_formula,
         "recover a neighbourhood from a defining formula", formula, field, cap)
    sp = leaf(csub, "single-eq", _cmd_compile_single_eq, "fold the facts into one equation", target, cap)
    sp.add_argument("--prefer-linear", action="store_true")

    leaf(sub, "fixed-field", _cmd_fixed_field, "arithmetically fixed elements of a finite field", field, cap)
    sp = leaf(sub, "curve-lab", _cmd_curve_lab,
              "closure construction for symmetric values of a plane curve", field, cap)
    sp.add_argument("--poly", required=True, help="curve polynomial in x and y")
    sp.add_argument("--mode", choices=("prefix", "paper"), default="prefix")

    ssub = group("schema", "named formula templates")
    sp = leaf(ssub, "emit", _cmd_schema_emit, "emit one template by name")
    sp.add_argument("--name", required=True, choices=defifix.SCHEMA_NAMES)
    sp.add_argument("--U", help="polynomial in y")
    sp.add_argument("--V", help="polynomial in y")
    sp.add_argument("--F", help="formula in s, t")
    sp.add_argument("--G", help="formula in s, t")
    sp.add_argument("--N", help="formula in x")
    sp.add_argument("--phi", help="quantifier-free core formula")
    sp.add_argument("--predicate", default="U")
    sp.add_argument("--i", type=defifix.fields._read_int, default=None)
    return p


def run(args) -> tuple[int, dict]:
    """Dispatch a parsed config; returns (exit status, report)."""
    try:
        return args.handler(args)
    except _SEMANTIC_ERRORS as e:
        payload = {
            "error": {"code": e.code, "message": str(e)},
            "reason": str(e),
        }
        if isinstance(e, NotSingletonError) and e.definable is not None:
            K = defifix.make_field(args.field)
            payload["definable"] = _ordered(K, e.definable)
        return 1, payload
    except DefifixError as e:
        return 2, {"error": {"code": e.code, "message": str(e)}}
    except (ValueError, ZeroDivisionError) as e:
        return 2, {"error": {"code": "input", "message": str(e)}}
    except OSError as e:
        return 2, {"error": {"code": "io", "message": str(e)}}


def _render_text(payload, indent: int = 0):
    """Indented lines: `key:` heads for a mapping, `-` heads for a list."""
    pad = "  " * indent
    if isinstance(payload, dict):
        heads = ((f"{pad}{key}:", value) for key, value in payload.items())
    else:
        heads = ((f"{pad}-", value) for value in payload)
    for head, value in heads:
        if isinstance(value, (dict, list)):
            yield head
            yield from _render_text(value, indent + 1)
        else:
            yield f"{head} {_scalar(value)}"


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
