"""Source hygiene: no dead module-level imports or private helpers, no
imports inside functions, no dangling exports."""
import ast
from pathlib import Path

import pytest

import rootedminors

ALL_SOURCES = sorted(Path(rootedminors.__file__).parent.glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path) == []


def _imports_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert _imports_inside_functions(path) == []


def _unreferenced_private_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in used)


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_private_definitions_are_used_in_their_module(path):
    assert _unreferenced_private_definitions(path) == []


def test_every_exported_name_resolves():
    missing = [name for name in rootedminors.__all__
               if not hasattr(rootedminors, name)]
    assert missing == []
