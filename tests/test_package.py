import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import defifix

SRC = Path(defifix.__file__).resolve().parent.parent
SUBMODULES = {m.name for m in pkgutil.iter_modules(defifix.__path__)}


def fresh(code: str):
    """Run `code` in a new interpreter that finds this package, and return
    the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_loads_no_submodule():
    loaded = fresh("import json, sys, defifix; "
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('defifix.'))))")
    assert loaded == []


def test_every_export_is_its_defining_modules_object():
    listed = [(m, name) for m, names in defifix._EXPORTS.items() for name in names.split()]
    assert len(listed) == len(defifix.__all__) - 1  # each name once, besides __version__
    for module, name in listed:
        assert getattr(defifix, name) is getattr(importlib.import_module(f"defifix.{module}"), name)


def test_every_submodule_resolves_and_none_is_an_export_name():
    assert set(defifix._EXPORTS) == SUBMODULES
    assert not SUBMODULES & set(defifix.__all__)
    for module in SUBMODULES:
        assert getattr(defifix, module) is importlib.import_module(f"defifix.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        defifix.no_such_name


@pytest.mark.parametrize("first", [
    "from defifix import neighbourhood, normalize",
    "from defifix import normalize, neighbourhood",
    "from defifix import is_neighbourhood, normalized_definable_set",
    "from defifix.neighbourhood import neighbourhood; from defifix.normalize import normalize",
    "from defifix import *",
])
def test_collided_names_are_the_modules_in_any_import_order(first):
    kinds = fresh(f"{first}\nimport json, defifix\n"
                  "print(json.dumps([type(defifix.normalize).__name__, "
                  "type(defifix.neighbourhood).__name__]))")
    assert kinds == ["module", "module"]


def package_imports(source: str) -> set[str]:
    """The package modules a module imports directly, relatively
    (`from .m import x`, `from . import m`) or by `defifix.m`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                out.update([node.module] if node.module else [a.name for a in node.names])
            elif (node.module or "").startswith("defifix."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("defifix."))
    return out


def test_package_imports_are_found():
    assert package_imports("from .a import b\nfrom . import c\nimport defifix.d.e\n"
                           "from defifix.f import g\nimport os, defifix\n") == {"a", "c", "d", "f"}


# per module, the package modules it must not import
LAYERS = {
    "engine": SUBMODULES - {"errors", "fields"},
    "fields": SUBMODULES - {"errors"},
    "neighbourhood": {"normalize", "formulas", "terms", "compiler", "curve_lab", "schemas", "cli"},
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layering(module):
    source = (SRC / "defifix" / f"{module}.py").read_text()
    assert not package_imports(source) & LAYERS[module]


def test_neighbourhood_loads_no_formula_module():
    loaded = fresh("import json, sys, defifix.neighbourhood; "
                   "print(json.dumps([m for m in sys.modules if m.startswith('defifix.')]))")
    assert not {"defifix.normalize", "defifix.formulas", "defifix.terms"} & set(loaded)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: `from __future__`
    aside, a name counts as read when it occurs as a name (also as the
    root of an attribute chain or in an annotation)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "os (line 1)", "b (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", sorted((SRC / "defifix").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level `_name`s (def, class or assignment target) that no
    module of `sources` reads: a name counts as read when some module
    loads it as a name, as an attribute or in a `from` import."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{m}.{name} (line {line})" for (m, name), line in defined.items() if name not in read]


def test_unread_private_names_are_found():
    planted = {
        "a": "_used = 1\n_unused = 2\ndef _f(): pass\nclass _C: pass\nimport b\nb._g()\nprint(_used)\n",
        "b": "def _g(): pass\nfrom a import _C\n_x, _y = 1, 2\n__all__ = []\nprint(_y)\n",
    }
    assert unread_private_names(planted) == ["a._unused (line 2)", "a._f (line 3)", "b._x (line 3)"]


def test_no_unread_private_name():
    sources = {p.stem: p.read_text() for p in sorted((SRC / "defifix").glob("*.py"))}
    assert unread_private_names(sources) == []
