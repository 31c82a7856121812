"""Every name a library module imports is used in that module, and every
private top-level function or class of the library is used somewhere.

Stdlib stand-ins for a linter's unused-import and dead-code rules. For
imports, `__init__.py` is exempt, since its imports are the package's
re-exports, and so is `from __future__`. A private name is one that starts
with a single underscore; a use inside its own definition, such as a
recursive call, does not count.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "braidwork"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_detects_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == ["os (line 1)", "argv (line 2)"]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and classes, in the order the modules
    define them, whose name no module mentions outside their definition."""
    defined: list[tuple[str, str, int]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if top.name.startswith("_") and not top.name.startswith("__"):
                    own = top.name
                    defined.append((own, module, top.lineno))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{name} ({module} line {line})" for name, module, line in defined if name not in used]


def test_private_names_are_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_detects_unreferenced_private_name():
    sources = {
        "a.py": (
            "def _kept():\n    return 1\n\n\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
            "class _Unused:\n    pass\n"
        ),
        "b.py": "from a import _kept\n",
    }
    assert unreferenced_private_names(sources) == [
        "_recursive (a.py line 5)",
        "_Unused (a.py line 9)",
    ]
