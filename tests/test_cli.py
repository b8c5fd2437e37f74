import argparse
import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from test_package import fresh

from defifix import SCHEMA_NAMES, curve_lab, fields
from defifix.cli import OUTPUT_SCHEMA_VERSION, build_parser, main, render, run


def invoke(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def payload(*argv):
    code, out = invoke(*argv)
    return code, json.loads(out)


def test_fixed_field_f4_bytes():
    code, out = invoke("fixed-field", "--field", "F2^2")
    assert code == 0
    assert out == '{"fixed": ["[0]","[1]"]}\n'


def test_fixed_field_cap_counts_automorphisms():
    # F2^4 has four automorphisms: three are too few, four are enough
    code, out = invoke("fixed-field", "--field", "F2^4", "--cap", "3")
    assert code == 1
    assert out == (
        '{"error": {"code": "cap-exceeded","message": "more than 3 arithmetic maps"},'
        '"reason": "more than 3 arithmetic maps"}\n'
    )
    code, out = invoke("fixed-field", "--field", "F2^4", "--cap", "4")
    assert code == 0
    assert out == '{"fixed": ["[0]","[1]"]}\n'


def test_fixed_field_f211_squared_is_quick():
    # the maps are evaluations at the two roots of the modulus, found
    # without search; the prime field comes out in index order
    start = time.process_time()
    try:
        code, data = payload("fixed-field", "--field", "F211^2")
    finally:
        fields._INT_FIELDS.pop(fields.make_field("F211^2"), None)
    assert time.process_time() - start < 2.0
    assert code == 0
    assert data["fixed"] == [f"[{c}]" for c in range(211)]


def test_fixed_field_f31_squared_is_the_prime_field():
    code, data = payload("fixed-field", "--field", "F31^2")
    assert code == 0
    assert data == {"fixed": [f"[{i}]" for i in range(31)]}


def test_nbhd_check_yes():
    code, data = payload("nbhd", "check", "--field", "F7",
                         "--elements", "1,2", "--target", "2")
    assert code == 0
    assert data["neighbourhood"] is True
    assert data["elements"] == ["[1]", "[2]"]


def test_nbhd_check_large_prime_field_is_quick():
    # root propagation decides {1, 2}; the kernel of F1000003 is built from
    # ints, not from a million FieldElements
    start = time.process_time()
    try:
        code, data = payload("nbhd", "check", "--field", "F1000003",
                             "--elements", "1,2", "--target", "2")
    finally:
        fields._INT_FIELDS.pop(fields.make_field("F1000003"), None)
    assert time.process_time() - start < 3.0
    assert code == 0
    assert data["neighbourhood"] is True


def test_nbhd_check_no_carries_witness():
    code, data = payload("nbhd", "check", "--field", "F7",
                         "--elements", "1,5", "--target", "5")
    assert code == 1
    assert data["neighbourhood"] is False
    w = data["witness"]
    assert ["[5]", "[0]"] in w["pairs"]
    assert w["moves_target_to"] != "[5]"


def test_nbhd_check_cap_counts_the_maps_the_decision_reads():
    # 2 = 1 + 1 is set at the search root, so the decision reads no map,
    # though 5 is free and {1, 2, 5} has 7 maps
    code, data = payload("nbhd", "maps", "--field", "F7", "--elements", "1,2,5")
    assert (code, data["count"]) == (0, 7)
    code, data = payload("nbhd", "check", "--field", "F7", "--elements", "1,2,5",
                         "--target", "2", "--cap", "1")
    assert code == 0
    assert data["neighbourhood"] is True
    # x^2 = 3 leaves x two values: the first map read fixes x, the second
    # moves it
    argv = ("nbhd", "check", "--field", "F5^2", "--elements", "1,2,3,[0,1]", "--target", "[0,1]")
    code, data = payload(*argv, "--cap", "1")
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"
    code, data = payload(*argv, "--cap", "2")
    assert code == 1
    assert data["witness"]["moves_target_to"] == "[0,4]"


def test_normalize_counts():
    code, data = payload("normalize", "--formula", "exists y. ~(y=0) & x*y=1")
    assert code == 0
    assert data["negations_eliminated"] == 1
    assert data["fresh_variables"] == 1
    assert data["free_variable"] == "x"
    assert len(data["systems"]) == 1


def test_normalize_example_atoms():
    code, data = payload("normalize", "--formula", "exists y. ~(y=0) & x*y=1")
    assert code == 0
    assert data["systems"] == [
        {
            "variables": ["x", "_t1", "_t2", "y", "_t3"],
            "free_index": 0,
            "atoms": ["_t1 * y = _t2", "_t2 = 1", "x * y = _t3", "_t3 = 1"],
        }
    ]


def test_normalize_huge_exponent_is_quick():
    start = time.perf_counter()
    code, data = payload("normalize", "--formula", "x^100000000 = 1")
    assert code == 0
    assert time.perf_counter() - start < 1.0
    assert len(data["systems"][0]["atoms"]) <= 2 * (10**8).bit_length()


def test_parse_reports_free_variables():
    code, data = payload("parse", "--formula", "exists y. x = y + z")
    assert code == 0
    assert data["free_variables"] == ["x", "z"]


def test_parse_syntax_error_exit_2():
    for text in ("exists y. x = +", "x = ²", "x² = 1"):
        code, data = payload("parse", "--formula", text)
        assert code == 2
        assert data["error"]["code"] == "syntax"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("parse", "--formula", "x = ٣"), "syntax", "unexpected character '\u0663' (line 1, column 5)"),
        (("parse", "--formula", "x٣ = 1"), "syntax", "unexpected character '\u0663' (line 1, column 2)"),
        (("eval", "--formula", "x = 3", "--field", "F5", "--assign", "x=٣"),
         "field-spec", "malformed element '\u0663'"),
        (("nbhd", "check", "--field", "F٧", "--elements", "1,2", "--target", "2"),
         "field-spec", "malformed field spec 'F\u0667'"),
        (("nbhd", "check", "--field", "F7", "--elements", "1_0,2", "--target", "2"),
         "field-spec", "malformed element '1_0'"),
        (("nbhd", "check", "--field", "F7", "--elements", "٣/2,2", "--target", "2"),
         "input", "invalid literal for int() with base 10: '\u0663'"),
        (("nbhd", "rational", "--field", "F7", "--q", "٥/٣"),
         "input", "Invalid literal for Fraction: '\u0665/\u0663'"),
        (("nbhd", "rational", "--field", "F7", "--q", "1_0/3"),
         "input", "Invalid literal for Fraction: '1_0/3'"),
    ],
    ids=["formula", "after-name", "assign", "field", "underscore", "fraction", "q", "q-underscore"],
)
def test_numbers_are_ascii_digits(argv, code, message):
    # each read int(), Fraction or re's \d, which take any Unicode digit
    exit_code, data = payload(*argv)
    assert exit_code == 2
    assert data == {"error": {"code": code, "message": message}}


@pytest.mark.parametrize("argv", [
    ("nbhd", "maps", "--field", "F7", "--elements", "1,2,5", "--cap", "١"),
    ("fixed-field", "--field", "F2^2", "--cap", "1_0"),
    ("fixed-field", "--field", "F2^2", "--cap", "+4"),
    ("fixed-field", "--field", "F2^2", "--cap", "abc"),
    ("fixed-field", "--field", "F2^2", "--seed", "٣"),
    ("schema", "emit", "--name", "theorem7_def", "--i", "٣"),
], ids=["cap", "cap-underscore", "cap-plus", "cap-letters", "seed", "i"])
def test_integer_options_are_ascii_digits(argv, capsys):
    # argparse refuses the value with its usage error, before any report
    assert invoke(*argv) == (2, "")
    assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err


def test_integer_options_read_ascii_digits():
    code, data = payload("schema", "emit", "--name", "theorem7_def", "--i", " 3 ", "--seed", "-1")
    assert code == 0
    assert data["formula"] == "exists t. exists y. (t^2 + x = 0 & x = y + 3 & U(y))"


@pytest.mark.parametrize("value, message", [
    ("1_0", "invalid literal for int() with base 10: '1_0'"),
    ("١", "invalid literal for int() with base 10: '\u0661'"),
    ("0", "cap must be positive, got 0"),
], ids=["underscore", "arabic-indic", "zero"])
def test_cap_variable_is_a_positive_ascii_integer(monkeypatch, value, message):
    monkeypatch.setenv("DEFIFIX_CAP", value)
    assert payload("fixed-field", "--field", "F2^2") == (
        2, {"error": {"code": "input", "message": message}})


@pytest.mark.parametrize("argv, message", [
    (("fixed-field", "--field", "F2^2", "--cap", "0"), "cap must be positive, got 0"),
    (("eval", "--formula", "x = 1", "--field", "F5", "--assign", "x"),
     "malformed --assign 'x'; expected name=element"),
    (("eval", "--formula", "U(x)", "--field", "F5", "--assign", "x=1", "--pred", "U"),
     "malformed --pred 'U'; expected name=v;v;..."),
    (("nbhd", "maps", "--field", "F7", "--elements", ""), "empty element list"),
], ids=["cap-zero", "assign", "pred", "elements"])
def test_malformed_options_are_input_errors(argv, message):
    assert payload(*argv) == (2, {"error": {"code": "input", "message": message}})


def test_missing_formula_file_is_an_io_error(tmp_path):
    code, data = payload("parse", "--in", str(tmp_path / "missing.txt"))
    assert code == 2
    assert data["error"]["code"] == "io"


def test_eval_true_and_false():
    code, data = payload("eval", "--formula", "x = 1", "--field", "F5",
                         "--assign", "x=1")
    assert code == 0
    assert data["value"] is True
    code, data = payload("eval", "--formula", "x = 1", "--field", "F5",
                         "--assign", "x=2")
    assert code == 1
    assert data["value"] is False
    assert data["reason"]


def test_eval_with_predicate_table():
    code, data = payload("eval", "--formula", "U(x)", "--field", "F5",
                         "--assign", "x=3", "--pred", "U=1;3")
    assert code == 0
    assert data["value"] is True


def test_nbhd_maps_f4():
    code, data = payload("nbhd", "maps", "--field", "F2^2",
                         "--elements", "[0],[1],[0,1],[1,1]")
    assert code == 0
    assert data["count"] == 2
    identities = [m["identity"] for m in data["maps"]]
    assert identities.count(True) == 1


def test_nbhd_certify_rationals():
    code, data = payload("nbhd", "certify", "--field", "Q",
                         "--elements", "1,2", "--target", "2")
    assert code == 0
    assert data["certified"] is True
    code, data = payload("nbhd", "certify", "--field", "Q",
                         "--elements", "1,2,5", "--target", "5")
    assert code == 1
    assert data["certified"] is False
    assert data["reason"] == "value propagation does not pin the target; status unknown"


def test_nbhd_rational_defaults_to_q():
    code, data = payload("nbhd", "rational", "--q", "5/3")
    assert code == 0
    assert data["field"] == "Q"
    assert data["target"] == "5/3"
    assert data["certified"] is True


def test_nbhd_rational_huge_integer():
    q = str(10**400)
    start = time.process_time()
    code, data = payload("nbhd", "rational", "--field", "Q", "--q", q)
    assert time.process_time() - start < 1.0
    assert code == 0
    assert data["target"] == q
    assert data["certified"] is True


def test_nbhd_rational_takes_no_cap():
    # the doubling construction does no search, so there is nothing to cap
    code, _ = invoke("nbhd", "rational", "--q", "5/3", "--cap", "1")
    assert code == 2


def test_nbhd_rational_vanishing_denominator_exit_2():
    code, data = payload("nbhd", "rational", "--q", "1/7", "--field", "F7")
    assert code == 2
    assert data["error"]["code"] == "input"


def test_nbhd_rational_zero_denominator_is_named():
    for field in ("Q", "F7"):
        code, data = payload("nbhd", "rational", "--q", "1/0", "--field", field)
        assert code == 2
        assert data["error"] == {"code": "input", "message": "zero denominator in '1/0'"}


def test_element_zero_denominator_is_named():
    for field in ("Q", "F7"):
        code, data = payload("nbhd", "check", "--field", field,
                             "--elements", "1,1/0", "--target", "1")
        assert code == 2
        assert data["error"] == {"code": "input", "message": "zero denominator in '1/0'"}


def test_compile_to_formula():
    code, data = payload("compile", "to-formula", "--field", "F7",
                         "--elements", "1,2", "--target", "2")
    assert code == 0
    assert data["formula"] == "exists x2. (x2 = 1 & 2*x2 = x1)"
    assert data["free_variable"] == "x1"


def test_compile_to_formula_not_defining_exit_1():
    code, data = payload("compile", "to-formula", "--field", "F7",
                         "--elements", "1,5", "--target", "5")
    assert code == 1
    assert data["error"]["code"] == "not-defining"
    assert data["reason"]


def test_compile_from_formula_round_trip():
    code, data = payload("compile", "from-formula", "--field", "F7",
                         "--formula", "exists y. (x = y + y & y = 1)")
    assert code == 0
    assert data["neighbourhood"]["elements"] == ["[1]", "[2]"]
    assert data["neighbourhood"]["target_index"] == 1


def test_compile_from_formula_not_singleton_lists_set():
    code, data = payload("compile", "from-formula", "--field", "F5",
                         "--formula", "exists y. x = y*y")
    assert code == 1
    assert data["error"]["code"] == "not-singleton"
    assert data["definable"] == ["[0]", "[1]", "[4]"]


def test_compile_from_formula_honours_cap():
    argv = ("compile", "from-formula", "--field", "F5", "--formula", "x = 1 | x = 2")
    code, data = payload(*argv, "--cap", "1")
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"
    code, data = payload(*argv)
    assert code == 1
    assert data["error"]["code"] == "not-singleton"


def test_compile_from_formula_outside_fragment_exit_2():
    # normalization comes before the singleton check, for any definable set
    for text in ("forall y. x = x", "P(x)"):
        code, data = payload("compile", "from-formula", "--field", "F5", "--formula", text)
        assert code == 2
        assert data["error"]["code"] == "normalization"
        assert "definable" not in data


def test_compile_single_eq_prefer_linear():
    code, data = payload("compile", "single-eq", "--field", "F7",
                         "--elements", "0,1,2", "--target", "2",
                         "--prefer-linear")
    assert code == 0
    assert data["formula"] == "x + 5 = 0"


def test_compile_single_eq_prefer_linear_large_prime_is_quick():
    # the prime-field image is read off the coefficient vector, not searched
    start = time.process_time()
    code, out = invoke("compile", "single-eq", "--field", "F1000003",
                       "--elements", "1,999999", "--target", "999999",
                       "--prefer-linear")
    assert time.process_time() - start < 0.3
    assert code == 0
    assert out == ('{"field": "F1000003","elements": ["[1]","[999999]"],'
                   '"target": "[999999]","formula": "x + 4 = 0"}\n')


def test_compile_single_eq_prefer_linear_outside_prime_image_folds():
    code, out = invoke("compile", "single-eq", "--field", "F2^2",
                       "--elements", "[0,1],[1,1]", "--target", "[0,1]",
                       "--prefer-linear")
    assert code == 0
    assert out == (
        '{"field": "F2^2:1,1,1","elements": ["[0,1]","[1,1]"],"target": "[0,1]",'
        '"formula": "exists x2. x^6 + x^2*x2^4 + x2^6 - 3*x^4*x2 - 2*x^3*x2^2'
        ' - 3*x*x2^4 - x2^5 + x^4 + 6*x^2*x2^2 + 2*x*x2^3 - x^3 - x^2*x2 - x2^3 = 0"}\n'
    )


def test_compile_single_eq_cap_exceeded():
    # nbhd_rational(10, F7): 19 kept facts, whose fold would expand to
    # about 5 * 10^7 monomials; the default cap stops it before the last step
    start = time.process_time()
    code, data = payload("compile", "single-eq", "--field", "F7",
                         "--elements", "3,5,4,2,1", "--target", "3")
    assert time.process_time() - start < 2.0
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"


def test_compile_single_eq_honours_cap(monkeypatch):
    argv = ("compile", "single-eq", "--field", "F7", "--elements", "1,2", "--target", "2")
    code, data = payload(*argv, "--cap", "5")
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"
    monkeypatch.setenv("DEFIFIX_CAP", "5")
    code, data = payload(*argv)
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"
    code, data = payload(*argv, "--cap", "1000")
    assert code == 0
    assert data["formula"] == "exists x2. x^2 - 4*x*x2 + 5*x2^2 - 2*x2 + 1 = 0"


def test_certify_and_to_formula_take_no_cap():
    # neither runs a search, so there is nothing to cap
    for sub in (("nbhd", "certify"), ("compile", "to-formula")):
        code, _ = invoke(*sub, "--field", "F7", "--elements", "1,2", "--target", "2", "--cap", "5")
        assert code == 2
        code, _ = invoke(*sub, "--field", "F7", "--elements", "1,2", "--target", "2")
        assert code == 0


def test_curve_lab_all_claims_hold():
    code, data = payload("curve-lab", "--field", "F5",
                         "--poly", "y^2 - x^3 - x")
    assert code == 0
    rep = data["report"]
    assert rep["identity_on_w_image"] is True
    assert all(row["is_neighbourhood"] for row in rep["per_k"])


def test_curve_lab_cap_bounds_abscissa_products():
    # three abscissas over F5 give seven products
    code, data = payload("curve-lab", "--field", "F5",
                         "--poly", "y^2 - x^3 - x", "--cap", "6")
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"


def test_curve_lab_cap_reaches_map_enumeration(monkeypatch):
    caps = []
    verify = curve_lab.verify_closure

    def spy(data, recipe, cap):
        caps.append(cap)
        return verify(data, recipe, cap)

    monkeypatch.setattr(curve_lab, "verify_closure", spy)
    code, _ = invoke("curve-lab", "--field", "F5", "--poly", "y^2 - x^3 - x", "--cap", "50")
    assert code == 0
    assert caps == [50]


def test_schema_emit_with_polynomials():
    code, data = payload("schema", "emit", "--name", "robinson",
                         "--U", "y^2 - 2", "--V", "y")
    assert code == 0
    assert data["formula"] == "exists y. (y^2 - 2 = 0 & x = y)"


def test_schema_emit_missing_param_exit_2():
    code, data = payload("schema", "emit", "--name", "robinson")
    assert code == 2
    assert data["error"]["code"] == "schema"


def test_fixed_field_infinite_exit_2():
    code, data = payload("fixed-field", "--field", "Q")
    assert code == 2
    assert data["error"]["code"] == "infinite-field"


def test_identical_invocations_byte_identical():
    argv = ("curve-lab", "--field", "F5", "--poly", "y^2 - x^3 - x")
    assert invoke(*argv) == invoke(*argv)
    argv = ("nbhd", "rational", "--q", "5/3", "--seed", "9")
    assert invoke(*argv) == invoke(*argv)


def test_cap_env_override(monkeypatch):
    # 5 is unconstrained by the facts on {1,5}, so there are 7 maps
    monkeypatch.setenv("DEFIFIX_CAP", "1")
    code, data = payload("nbhd", "maps", "--field", "F7", "--elements", "1,5")
    assert code == 1
    assert data["error"]["code"] == "cap-exceeded"
    # explicit --cap beats the env var
    code, data = payload("nbhd", "maps", "--field", "F7",
                         "--elements", "1,5", "--cap", "1000")
    assert code == 0
    assert data["count"] == 7


def test_formula_from_file(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("x = 1\n")
    code, data = payload("parse", "--in", str(p))
    assert code == 0
    assert data["formula"] == "x = 1"


def test_bracketed_element_parsing():
    code, data = payload("nbhd", "check", "--field", "F3^2",
                         "--elements", "[0,1],[1],[2,2]", "--target", "[0,1]")
    assert code in (0, 1)
    assert data["elements"] == ["[0,1]", "[1]", "[2,2]"]


def test_text_format_renders_nested_report():
    code, out = invoke("eval", "--formula", "x = 1", "--field", "F5",
                       "--assign", "x=1", "--format", "text")
    assert code == 0
    assert "value: true" in out


def test_text_format_renders_lists():
    code, out = invoke("nbhd", "maps", "--field", "F2^2", "--elements", "[1],[0,1]",
                       "--format", "text")
    assert code == 0
    assert out.splitlines()[1:5] == ["elements:", "  - [1]", "  - [0,1]", "count: 4"]


def test_render_json_separators():
    assert render({"a": [1, 2]}, "json") == '{"a": [1,2]}'


def test_usage_error_exit_2():
    # argparse failures must not escape as SystemExit tracebacks
    code, out = invoke("nbhd", "check", "--field", "F7", "--target", "2")
    assert code == 2


def test_run_returns_schema_version_constant():
    assert OUTPUT_SCHEMA_VERSION == 1
    parser = build_parser()
    args = parser.parse_args(["fixed-field", "--field", "F2"])
    code, data = run(args)
    assert code == 0
    assert data == {"fixed": ["[0]", "[1]"]}


PINNED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected" / "cli.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("call", PINNED, ids=lambda call: " ".join(call["argv"]))
def test_pinned_output_is_byte_identical(call):
    assert invoke(*call["argv"]) == (call["code"], call["stdout"])


@pytest.mark.parametrize("argv, unloaded", [
    (["parse", "--formula", "x = 1"], {"normalize", "neighbourhood", "compiler", "curve_lab"}),
    (["nbhd", "check", "--field", "F7", "--elements", "1,2", "--target", "2"],
     {"compiler", "curve_lab"}),
], ids=["parse", "nbhd-check"])
def test_subcommand_loads_only_what_it_uses(argv, unloaded):
    loaded = fresh("import contextlib, io, json, sys\n"
                   "from defifix import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    cli.main({argv!r})\n"
                   "print(json.dumps([m for m in sys.modules if m.startswith('defifix.')]))")
    assert not {m.removeprefix("defifix.") for m in loaded} & unloaded


def _row(dest, action="store", required=False, default=None, choices=None, type=None):
    return dest, action, required, default, choices, type


_COMMON = {"--format": _row("format", default="json", choices=("text", "json")),
           "--seed": _row("seed", type="_read_int")}
_CAP = {"--cap": _row("cap", type="_read_int")}
_FORMULA = {"--formula": _row("formula"), "--in": _row("infile")}
_FORMULA_GROUP = [(True, ["--formula", "--in"])]
_FIELD = {"--field": _row("field", required=True)}
_ELEMENTS = {**_FIELD, "--elements": _row("elements", required=True)}
_TARGET = {**_ELEMENTS, "--target": _row("target", required=True)}

# every leaf subcommand: its options, keyed by option strings, and its
# mutually exclusive groups as (required, options)
OPTION_TABLES = {
    "parse": ({**_FORMULA, **_COMMON}, _FORMULA_GROUP),
    "eval": ({**_FORMULA, **_FIELD, "--assign": _row("assign", "append"),
              "--pred": _row("pred", "append"), **_COMMON}, _FORMULA_GROUP),
    "normalize": ({**_FORMULA, **_CAP, **_COMMON}, _FORMULA_GROUP),
    "nbhd check": ({**_TARGET, **_CAP, **_COMMON}, []),
    "nbhd maps": ({**_ELEMENTS, **_CAP, **_COMMON}, []),
    "nbhd certify": ({**_TARGET, **_COMMON}, []),
    "nbhd rational": ({"--q": _row("q", required=True), "--field": _row("field", default="Q"),
                       **_COMMON}, []),
    "compile to-formula": ({**_TARGET, **_COMMON}, []),
    "compile from-formula": ({**_FORMULA, **_FIELD, **_CAP, **_COMMON}, _FORMULA_GROUP),
    "compile single-eq": ({**_TARGET, "--prefer-linear": _row("prefer_linear", "storetrue", default=False),
                           **_CAP, **_COMMON}, []),
    "fixed-field": ({**_FIELD, **_CAP, **_COMMON}, []),
    "curve-lab": ({**_FIELD, "--poly": _row("poly", required=True),
                   "--mode": _row("mode", default="prefix", choices=("prefix", "paper")),
                   **_CAP, **_COMMON}, []),
    "schema emit": ({"--name": _row("name", required=True, choices=tuple(SCHEMA_NAMES)),
                     **{f"--{n}": _row(n) for n in ("U", "V", "F", "G", "N", "phi")},
                     "--predicate": _row("predicate", default="U"),
                     "--i": _row("i", type="_read_int"), **_COMMON}, []),
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def _option_table(parser):
    options = {
        "/".join(a.option_strings): _row(
            a.dest, type(a).__name__.strip("_").removesuffix("Action").lower(), a.required,
            a.default, None if a.choices is None else tuple(a.choices),
            getattr(a.type, "__name__", None))
        for a in parser._actions if not isinstance(a, argparse._HelpAction)
    }
    groups = sorted((g.required, ["/".join(a.option_strings) for a in g._group_actions])
                    for g in parser._mutually_exclusive_groups)
    return options, groups


def test_every_subcommand_keeps_its_option_table():
    tables = {name: _option_table(sp) for name, sp in _leaf_parsers(build_parser())}
    assert tables.keys() == OPTION_TABLES.keys()
    for name, table in tables.items():
        assert table == OPTION_TABLES[name], name


@pytest.mark.parametrize("leaf", OPTION_TABLES)
def test_every_subcommand_prints_help(leaf):
    code, out = invoke(*leaf.split(), "-h")
    assert code == 0
    assert out.startswith(f"usage: defifix {leaf} ")
