"""The runtime stays numpy-only: every module of the package imports only
the standard library, numpy and the package itself, and reads every name
it imports."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "zsih").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "zsih"}


def imported_roots(tree):
    """The top-level package of every absolute import in ``tree``; a
    relative import stays inside the package and is left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def unused_imports(tree):
    """The sorted names that an import in ``tree`` binds and no expression
    reads (``import a.b`` binds ``a``)."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_sources_found():
    assert "objective.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []


def test_a_foreign_import_is_caught():
    tree = ast.parse("import os\nimport scipy.linalg\nfrom . import layers\n"
                     "from numpy import linalg\nfrom torch import nn\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["scipy", "torch"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom . import data, layers\n"
                     "from .formats import FormatError as FE, pack_header\n"
                     "x = np.zeros(layers.N)\nraise FE(os)\n")
    assert unused_imports(tree) == ["data", "pack_header"]
