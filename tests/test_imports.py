"""Every name a module imports is used in that module, and every module-level
function, class or assigned constant of the package is referenced from src/,
tests/ or perfbench/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinor10"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit(0)\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(sources):
    """Every name the sources read, import or look up as an attribute; storing
    to a name is not a use of it."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(source: str, referenced):
    """Module-level functions, classes and assigned names (tuple targets
    included) that are not in referenced, as (line, name)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stores = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            found.extend((node.lineno, n.id) for n in stores if isinstance(n.ctx, ast.Store))
    return [(line, name) for line, name in found if name not in referenced]


def test_checker_flags_an_unreferenced_definition():
    lib = "def used():\n    pass\n\ndef dead():\n    used()\n\nclass Gone:\n    pass\n"
    caller = "from lib import used\nimport lib\nlib.dead\n"
    assert unreferenced_definitions(lib, referenced_names([lib])) == [(4, "dead"), (7, "Gone")]
    assert unreferenced_definitions(lib, referenced_names([lib, caller])) == [(7, "Gone")]


def test_checker_flags_an_unreferenced_constant():
    lib = "A, (B, C) = 1, (2, 3)\nD: int = A\nE = 4\nE = 5\nobj.F = obj[G] = 6\n"
    assert unreferenced_definitions(lib, referenced_names([lib])) == [
        (1, "B"), (1, "C"), (2, "D"), (3, "E"), (4, "E"),
    ]
    caller = "from lib import B\nimport lib\nprint(lib.C, lib.E)\n"
    assert unreferenced_definitions(lib, referenced_names([lib, caller])) == [(2, "D")]


def test_every_definition_is_referenced():
    sources = [
        p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
    ]
    referenced = referenced_names(sources)
    dead = {
        path.name: unreferenced_definitions(path.read_text(), referenced)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: d for name, d in dead.items() if d} == {}
