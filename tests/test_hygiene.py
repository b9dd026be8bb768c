"""Source hygiene: no dead module-level imports or private helpers, no
imports inside functions, no dangling exports, and every name the
benchmark's tracer wraps still in place."""
import ast
import importlib
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


def _traced_boundaries():
    """bench/spans.py's BOUNDARIES, read without importing the tracer."""
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no BOUNDARIES")


@pytest.mark.parametrize("module, attr, owner", _traced_boundaries(),
                         ids=lambda x: x)
def test_traced_name_resolves_to_its_owner(module, attr, owner):
    mod = importlib.import_module("rootedminors." + module)
    own = importlib.import_module("rootedminors." + owner)
    assert hasattr(mod, attr), "rootedminors.%s.%s is gone" % (module, attr)
    assert getattr(mod, attr) is getattr(own, attr)
