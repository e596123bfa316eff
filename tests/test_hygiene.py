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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_reads(source: str) -> list[str]:
    """``line: name`` for every ``_`` name (dunders aside) that the module
    imports from another package module, or reads off a package module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hjbranch")):
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
            if node.module in (None, "hjbranch"):  # from . import branches as br
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.startswith("hjbranch"))
    for node in ast.walk(tree):
        base = node
        while isinstance(base, ast.Attribute):  # hjbranch.operators._gtsv
            base = base.value
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(base, ast.Name) and base.id in modules):
            found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert cross_module_private_reads(path.read_text(encoding="utf-8")) == []


def test_cross_module_private_reads_are_found():
    assert cross_module_private_reads(
        "from .eigen import _inverse_iteration, principal_eigen\nfrom hjbranch.grids import _TINY\n"
        "from . import branches as br\nimport hjbranch.operators\n"
        "x = br._tags(u), br.mixed_mode(g), self._last, hjbranch.operators._gtsv, __version__\n"
        ) == ["1: _inverse_iteration", "2: _TINY", "5: _gtsv", "5: _tags"]


def test_every_export_resolves():
    """Each name in ``hjbranch.__all__`` is an attribute of the package, so
    a removed name cannot linger in the export list."""
    import hjbranch

    assert [name for name in hjbranch.__all__ if not hasattr(hjbranch, name)] == []


def unread_public_names(sources: list[str]) -> list[str]:
    """``name`` or ``Class.method`` for every public top-level function or
    class, and every public method, that no source reads as an
    ``ast.Name`` or ``ast.Attribute`` outside its own ``def``."""
    def public(body, types):
        return [n for n in body if isinstance(n, types) and not n.name.startswith("_")]

    def reads(root, name):
        return sum(getattr(n, "id", None) == name or getattr(n, "attr", None) == name
                   for n in ast.walk(root))

    trees = [ast.parse(source) for source in sources]
    defs = [(f.name, f) for tree in trees for f in public(tree.body, (ast.FunctionDef, ast.ClassDef))]
    defs += [(f"{c.name}.{m.name}", m) for _, c in list(defs) if isinstance(c, ast.ClassDef)
             for m in public(c.body, ast.FunctionDef)]
    return [qualname for qualname, node in defs
            if sum(reads(tree, node.name) for tree in trees) == reads(node, node.name)]


def test_every_public_name_is_read():
    """No dead public helpers: each public function, class and method of a
    module is read somewhere in the package; test-only helpers live in tests."""
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_public_names([init] + [p.read_text(encoding="utf-8") for p in MODULES]) == []


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
