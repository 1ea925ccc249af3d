"""Each module imports from the package only the layers listed below it,
and no module loads numpy or scipy on import.

The layer list is the one in the package docstring, bottom up; `cli` is the
top layer and `__init__`, which re-exports every layer, is exempt from the
layering but not from the numpy and scipy rule.
"""

import ast
import re
from pathlib import Path

import pytest

import stokes_isola

PACKAGE = Path(stokes_isola.__file__).parent
LAYERS = re.findall(r"^\* `(\w+)`", stokes_isola.__doc__, flags=re.MULTILINE)
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
#: Loaded where a function first needs them, never on import.
NUMERICAL = {"numpy", "scipy"}


def _package_imports(tree: ast.AST) -> set[str]:
    """Names of the package's modules that ``tree`` imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] if node.module else []
        elif isinstance(node, ast.ImportFrom):
            # from . import a, b  |  from .a import x
            names = [node.module] if node.module else [alias.name for alias in node.names]
            names = [f"stokes_isola.{name}" for name in names]
        else:
            continue
        for name in names:
            head, _, rest = name.partition(".")
            if head == "stokes_isola" and rest:
                found.add(rest.partition(".")[0])
    return found


def _eager_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the modules that ``tree`` imports when it is
    itself imported: outside function bodies and ``if TYPE_CHECKING:``."""
    found = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_the_layer_list_names_every_module_once():
    assert sorted(LAYERS) == MODULES
    assert len(set(LAYERS)) == len(LAYERS)
    assert LAYERS[-1] == "cli"


def test_the_guard_sees_every_import_form():
    code = """
from . import a as x, b
from .c import y
import numpy, stokes_isola.d
def f():
    from stokes_isola.e.f import z
"""
    assert _package_imports(ast.parse(code)) == {"a", "b", "c", "d", "e"}


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    below = set(LAYERS[: LAYERS.index(module)])
    assert _package_imports(tree) <= below, f"{module} imports a layer above it"


def test_the_eager_guard_sees_what_runs_on_import():
    code = """
import numpy.linalg as la, json
from scipy.linalg import eig
from . import floquet
if TYPE_CHECKING:
    import pandas
else:
    import csv
try:
    import yaml
except ImportError:
    pass
class C:
    import decimal
    def f(self):
        import torch
def g():
    import numpy
"""
    assert _eager_imports(ast.parse(code)) == {"numpy", "json", "scipy", "csv", "yaml", "decimal"}


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_imports_no_numerical_library_on_import(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not _eager_imports(tree) & NUMERICAL, f"{module} imports numpy or scipy at module level"
