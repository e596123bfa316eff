"""Static hygiene of the package source, checked with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hjbranch"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line: name`` for every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source: str) -> list[str]:
    """``line: function(parameter)`` for every named parameter of a
    ``def`` that its body never reads; lambdas are exempt."""
    tree = ast.parse(source)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{node.lineno}: {node.name}({p})" for p in params if p not in read]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def private_lookups_by_name(source: str) -> list[str]:
    """``line: getattr(name)`` for every ``getattr``/``hasattr`` whose
    attribute is a ``_``-prefixed string literal: a private attribute read
    by name, which hides the dependency from readers and from the types."""
    tree = ast.parse(source)
    return [f"{node.lineno}: {node.func.id}({node.args[1].value})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str) and node.args[1].value.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attribute_lookup_by_name(path):
    assert private_lookups_by_name(path.read_text(encoding="utf-8")) == []


def test_every_export_resolves():
    """Each name in ``hjbranch.__all__`` is an attribute of the package, so
    a removed name cannot linger in the export list."""
    import hjbranch

    assert [name for name in hjbranch.__all__ if not hasattr(hjbranch, name)] == []


def scipy_imports(source: str) -> list[str]:
    """``line: module`` for every import of ``scipy`` or one of its submodules."""
    tree = ast.parse(source)
    names = [(node.lineno, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [(node.lineno, node.module) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    return [f"{line}: {name}" for line, name in names
            if name == "scipy" or name.startswith("scipy.")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "operators.py"],
                         ids=lambda p: p.name)
def test_only_operators_imports_scipy(path):
    """Every factorization, its reuse and its failure live in ``operators``."""
    assert scipy_imports(path.read_text(encoding="utf-8")) == []
