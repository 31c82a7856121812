"""Every name a library module imports is used in that module, every
private top-level function or class of the library is used somewhere,
every public top-level function, class or constant is used outside the
tests, every field of a library dataclass or NamedTuple is read
somewhere, and every defaulted parameter of a library function is passed
somewhere.

Stdlib stand-ins for a linter's unused-import and dead-code rules. For
imports, `__init__.py` is exempt, since its imports are the package's
re-exports, and so is `from __future__`. A private name is one that
starts with a single underscore; a use inside its own definition, such
as a recursive call, does not count. A public name is used when library
code other than `__init__.py` names it outside its own definition, or a
bench script names it, as a name, attribute, import or string constant.
A field is read when the library, the tests or the bench scripts load it
as an attribute (`.field`) or name it in a string constant (as
`getattr(cfg, "left_a")` does); constructing a dataclass or NamedTuple
does not read its fields. A defaulted parameter is passed when some call
to a function of that name, in the library or the bench scripts, names
it as a keyword or gives it a positional argument (a method's `self`
takes none). Calls in the tests do not count: a setting that only tests
pass runs on no workload, so it should be a constant. The few that stay
are allowlisted with a reason each, and an allowlisted name that some
call passes, or that names no defaulted parameter, is reported as well,
so the list cannot go stale.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidwork"
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


def _defines(top: ast.stmt) -> list[str]:
    """The names a top-level statement binds: a function's or class's, or
    the plain names an assignment targets."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign):
        return [t.id for t in top.targets if isinstance(t, ast.Name)]
    if isinstance(top, ast.AnnAssign) and isinstance(top.target, ast.Name):
        return [top.target.id]
    return []


def unreferenced_public_names(library: dict[str, str], others: list[str]) -> list[str]:
    """The public top-level functions, classes and constants of the library
    modules, in the order the modules define them, that no library source
    mentions outside their definition and no other source mentions. A
    mention is a name, an attribute, an imported name or a string
    constant (as `bench/spans.py` names the functions it wraps)."""
    defined: list[tuple[str, str, int]] = []
    used: set[str] = set()
    trees = [(module, ast.parse(source)) for module, source in library.items()]
    trees += [(None, ast.parse(source)) for source in others]
    for module, tree in trees:
        for top in tree.body:
            own = _defines(top) if module is not None else []
            defined += [(name, module, top.lineno) for name in own if not name.startswith("_")]
            mentions: set[str] = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    mentions.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentions.add(node.attr)
                elif isinstance(node, ast.alias):
                    mentions.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    mentions.add(node.value)
            used |= mentions.difference(own)
    return [f"{name} ({module} line {line})" for name, module, line in defined if name not in used]


def test_public_names_are_used_outside_the_tests():
    # `__init__.py` only re-exports, so its imports are not uses. The tests
    # do not count: a name only they use runs on no workload.
    library, bench = library_and_others("bench")
    del library["__init__.py"]
    assert unreferenced_public_names(library, bench) == []


def test_detects_unused_public_name():
    library = {
        "a.py": (
            "LIMIT = 3\nSPARE: int = 4\n\n\n"
            "def kept():\n    return LIMIT\n\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n\n"
            "def traced():\n    return 1\n\n\n"
            "class Unused:\n    pass\n\n\n"
            "def _private():\n    return 2\n"
        ),
        "b.py": "from a import kept\n",
    }
    bench = ["TRACED = ['traced']\n"]
    assert unreferenced_public_names(library, bench) == [
        "SPARE (a.py line 2)",
        "recursive (a.py line 9)",
        "Unused (a.py line 17)",
    ]


def library_and_others(*folders: str) -> tuple[dict[str, str], list[str]]:
    """The library's sources by module name, and the sources of the
    scripts in `folders`."""
    library = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [
        p.read_text()
        for folder in folders
        for p in sorted((ROOT / folder).glob("*.py"))
    ]
    return library, others


def _declares_fields(node: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a NamedTuple."""
    calls = [deco.func if isinstance(deco, ast.Call) else deco for deco in node.decorator_list]
    for target in [*calls, *node.bases]:
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name in ("dataclass", "NamedTuple"):
            return True
    return False


def unread_fields(library: dict[str, str], others: list[str]) -> list[str]:
    """The fields of the library's dataclasses and NamedTuples, in the order
    the modules define them, that neither the library nor the other
    sources read."""
    fields: list[tuple[str, str, str, int]] = []
    reads: set[str] = set()
    for module, source in library.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _declares_fields(node):
                fields += [
                    (node.name, stmt.target.id, module, stmt.lineno)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    for source in [*library.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return [
        f"{cls}.{field} ({module} line {line})"
        for cls, field, module, line in fields
        if field not in reads
    ]


def test_dataclass_fields_are_read():
    assert unread_fields(*library_and_others("tests", "bench")) == []


def test_detects_unread_field():
    library = {
        "a.py": (
            "import dataclasses\n\n\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Point:\n    x: int\n    y: int\n    label: str = ''\n"
        ),
        "b.py": (
            "import typing\nfrom typing import NamedTuple\n\n\n"
            "class Pair(NamedTuple):\n    left: int\n    right: int\n\n\n"
            "class Span(typing.NamedTuple):\n    start: int\n    stop: int\n\n\n"
            "class Plain:\n    width: int\n"
        ),
    }
    others = [
        "from a import Point\n\np = Point(1, y=2)\nprint(p.x, getattr(p, 'label'))\n",
        "from b import Pair, Span\n\nprint(Pair(1, 2).left, Span(3, 4).stop)\n",
    ]
    assert unread_fields(library, others) == [
        "Point.y (a.py line 7)",
        "Pair.right (b.py line 7)",
        "Span.start (b.py line 11)",
    ]


def unpassed_defaults(
    library: dict[str, str], others: list[str], allowed: tuple[str, ...] = ()
) -> list[str]:
    """The defaulted parameters of the library's functions and methods, in
    the order the modules define them, that no call to that name passes
    and `allowed` does not name; then each `allowed` name, in its order,
    that is not such a parameter."""
    params: list[tuple[str, str, int | None, str, int]] = []
    for module, source in library.items():
        tree = ast.parse(source)
        methods = {
            id(stmt)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(getattr(d, "id", "") == "staticmethod" for d in stmt.decorator_list)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first_default = len(positional) - len(args.defaults)
            skip = 1 if id(node) in methods else 0
            params += [
                (node.name, arg.arg, i - skip, module, arg.lineno)
                for i, arg in enumerate(positional)
                if i >= first_default
            ]
            params += [
                (node.name, arg.arg, None, module, arg.lineno)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
    keywords: set[tuple[str, str | None]] = set()
    positions: dict[str, int] = {}
    for source in [*library.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords |= {(name, kw.arg) for kw in node.keywords}
                positions[name] = max(positions.get(name, 0), len(node.args))
    unpassed = [
        (f"{function}.{param}", module, line)
        for function, param, index, module, line in params
        if (function, param) not in keywords
        and (index is None or positions.get(function, 0) <= index)
    ]
    names = {name for name, _, _ in unpassed}
    return [
        f"{name} ({module} line {line})" for name, module, line in unpassed if name not in allowed
    ] + [f"{name} (allowed, but not an unpassed default)" for name in allowed if name not in names]


# The defaulted parameters that no call in `src` or `bench` passes, and why
# each stays settable.
UNPASSED_ALLOWED = {
    "attack_decomposition.method": "ROADMAP item 3(a) gives it a CLI flag",
    "decide_edl.subsets": "acceptance criterion 7 passes it",
    "make_preset.exponent_bound": "acceptance criterion 6 passes it",
    "main.argv": "cli.main is the entry point the tests drive",
}


def test_defaulted_parameters_are_passed():
    assert unpassed_defaults(*library_and_others("bench"), tuple(UNPASSED_ALLOWED)) == []
    # Each allowlisted one is still reached: some test passes it.
    assert unpassed_defaults(*library_and_others("tests", "bench")) == []


def test_detects_unpassed_default():
    library = {
        "a.py": (
            "def scale(x, factor=2, *, offset=0, unused=1):\n"
            "    return x * factor + offset\n\n\n"
            "class Box:\n"
            "    def grow(self, by=1, cap=9):\n        return by\n\n"
            "    @staticmethod\n"
            "    def make(size=1):\n        return Box()\n"
        ),
    }
    others = [
        "from a import Box, scale\n\n"
        "scale(1, 3)\nscale(1, offset=4)\nBox().grow(5)\nBox.make()\n"
    ]
    assert unpassed_defaults(library, others) == [
        "scale.unused (a.py line 1)",
        "grow.cap (a.py line 6)",
        "make.size (a.py line 10)",
    ]
    # An allowed name is not reported, and a stale one is: passed
    # (scale.factor), or no parameter at all (scale.gone).
    allowed = ("grow.cap", "scale.factor", "scale.gone")
    assert unpassed_defaults(library, others, allowed) == [
        "scale.unused (a.py line 1)",
        "make.size (a.py line 10)",
        "scale.factor (allowed, but not an unpassed default)",
        "scale.gone (allowed, but not an unpassed default)",
    ]
