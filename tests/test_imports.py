"""The runtime stays numpy-only: every module of the package imports only
the standard library, numpy and the package itself."""

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
