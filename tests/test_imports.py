"""The runtime stays numpy-only: every module of the package imports only
the standard library, numpy and the package itself, and reads every name
it imports.  Nothing is dead either: every public module-level function
and class of the package is read by the package or by the benchmark.
No module reaches into another's private (underscored) names."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "zsih").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
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


def private_imports(tree):
    """The sorted ``module.name`` of every underscored name that ``tree``
    takes from another module of the package: ``from .m import _x``, or
    ``m._x`` on a module bound by ``from . import m``."""
    modules, found = {}, set()   # bound name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "zsih"
                                                 or node.module.startswith("zsih.")):
            for alias in node.names:
                if node.module in (None, "zsih"):
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def reads(tree, module):
    """The ``(module, name)`` pairs that ``tree``, the source of ``module``,
    reads: ``m.name`` attributes, names imported from ``m`` or ``.m``, and
    its own bare names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((node.module.split(".")[-1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id


def unread_definitions(package, readers):
    """The sorted ``module.name`` of every public module-level function and
    class in ``package`` that no tree of ``package`` or ``readers`` reads;
    both map a module name to its parsed tree."""
    read = {pair for trees in (package, readers)
            for module, tree in trees.items() for pair in reads(tree, module)}
    return sorted(f"{module}.{node.name}" for module, tree in package.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and (module, node.name) not in read)


def parsed(paths):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in paths}


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_imports(tree) == []


def test_a_private_import_is_caught():
    tree = ast.parse("from . import data, layers as L\nfrom .formats import _pack, pack\n"
                     "from zsih.model import _init\nfrom numpy import _core\n"
                     "import zsih\n"
                     "def _own():\n    pass\n"
                     "x = data._text_lines(L.relu, L._per_draw, np._x, _own, pack)\n")
    assert private_imports(tree) == ["data._text_lines", "formats._pack", "layers._per_draw",
                                     "model._init"]


def test_every_public_definition_is_read():
    assert BENCHMARK
    assert unread_definitions(parsed(SOURCES), parsed(BENCHMARK)) == []


def test_an_unread_definition_is_caught():
    package = {
        "layers": ast.parse("def used(x):\n    return helper(x)\n\n"
                            "def helper(x):\n    return x\n\n"
                            "def unused(x):\n    return x\n\n"
                            "def _private():\n    pass\n\n"
                            "class Imported:\n    pass\n\n"
                            "class Orphan:\n    pass\n\n"
                            "def benched():\n    pass\n"),
        "model": ast.parse("from . import layers\nfrom .layers import Imported\n"
                           "unused = Orphan = 1\nlayers.used(Imported, unused, Orphan)\n"),
    }
    readers = {"bench": ast.parse("from zsih import layers\nlayers.benched()\n")}
    assert unread_definitions(package, readers) == ["layers.Orphan", "layers.unused"]
