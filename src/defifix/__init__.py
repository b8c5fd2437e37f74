"""defifix: decide and construct existential parameter-free definability of
field elements, via arithmetic neighbourhoods and equation compilation.

Each public name is listed once below, under the module that defines it;
every submodule has an entry, `cli` with no names.  `import defifix` loads
no submodule: a module is imported the first time one of its names, or the
module itself, is asked for (PEP 562).  No name is exported under a
submodule's own name, so `defifix.normalize` and `defifix.neighbourhood`
are always the modules; their functions of the same name are imported
from them.

`SCHEMA_NAMES`, the names of the `schemas` templates, is defined here, so
the CLI can offer them without loading `schemas`; `schemas` re-exports it.
"""

import importlib

__version__ = "0.1.0"

SCHEMA_NAMES = ("robinson", "theorem2", "pyth_M", "lt6", "le7", "succ", "accum",
                "theorem6_def", "theorem7_sentence", "theorem7_def")

_EXPORTS = {
    "errors": """
        CapExceededError DefifixError EvaluationError FieldMismatchError
        FieldSpecError FormulaSyntaxError InfiniteFieldError NormalizationError
        NotDefiningError NotSingletonError SchemaError
    """,
    "fields": """
        RATIONALS FieldDescriptor FieldElement IntField element_str
        enumerate_elements frobenius int_field make_field parse_element ring
    """,
    "terms": "Term",
    "formulas": """
        And Equal Exists ForAll Iff Implies Not Or PredicateApp all_variables
        conj definable_set desugar disj evaluate free_variables map_subformulas
        parse parse_term print_formula substitute_terms subformulas
    """,
    "engine": "ConstraintSearch ConstraintSystem solve_system",
    "normalize": """
        NormalizedFormula atomize eliminate_negations normalized_definable_set
        to_dnf
    """,
    "neighbourhood": """
        ArithmeticMap Decision FactSet Neighbourhood certify_by_propagation
        combine enumerate_arithmetic_maps fact_system facts fixed_subfield
        is_neighbourhood nbhd_rational
    """,
    "compiler": """
        RootlessPolynomial combine_equations compile_singleton find_rootless
        formula_to_neighbourhood homogenize neighbourhood_to_formula
    """,
    "curve_lab": """
        ClosureRecipe CurveData abscissa_set build_closure coefficient_table
        elementary_symmetric symmetric_value_formula verify_closure w_set
    """,
    "schemas": " ".join(("SCHEMA_NAMES SchemaParams emit", *SCHEMA_NAMES)),
    "cli": "",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
