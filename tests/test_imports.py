"""Every name a module imports is used in that module, and every module-level
function or class of the package is referenced from src/, tests/ or perfbench/."""

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
    """Every name the sources read, import or look up as an attribute."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(source: str, referenced):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, defs) and node.name not in referenced
    ]


def test_checker_flags_an_unreferenced_definition():
    lib = "def used():\n    pass\n\ndef dead():\n    used()\n\nclass Gone:\n    pass\n"
    caller = "from lib import used\nimport lib\nlib.dead\n"
    assert unreferenced_definitions(lib, referenced_names([lib])) == [(4, "dead"), (7, "Gone")]
    assert unreferenced_definitions(lib, referenced_names([lib, caller])) == [(7, "Gone")]


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
