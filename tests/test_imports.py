"""Every import in the package's modules is used by that module and takes
only public names from the other modules; the modules import one another
without a cycle, only bitgrid builds slabs, and only the two budgets raise
ResourceLimitExceeded."""

import ast
from pathlib import Path

import pytest

import modalkit

MODULES = sorted(p for p in Path(modalkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imports(tree: ast.Module) -> list:
    """Every Import and ImportFrom node, at any depth."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _package_module(node: ast.ImportFrom) -> str | None:
    """The modalkit module an ImportFrom reads, without the package prefix:
    "" for the package itself, None for a module outside it."""
    if node.level:
        return node.module or ""
    parts = (node.module or "").split(".")
    return ".".join(parts[1:]) if parts[0] == "modalkit" else None


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names bound by imports from modalkit modules."""
    return [a.name for node in _imports(tree)
            if isinstance(node, ast.ImportFrom) and _package_module(node) is not None
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert _private_imports(ast.parse(path.read_text())) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """The sibling modules a module imports from."""
    out = set()
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("modalkit.")}
        elif (module := _package_module(node)) is not None:
            # `from . import x` names modules; `from .x import y` reads x
            out |= {a.name for a in node.names} if not module else {module}
    return out


def test_module_imports_form_no_cycle():
    graph = {p.stem: _imported_modules(ast.parse(p.read_text())) for p in MODULES}
    assert all(dst in graph for deps in graph.values() for dst in deps), graph
    # remove the modules that import nothing left, until none remain
    while graph:
        leaves = {name for name, deps in graph.items() if not deps}
        assert leaves, f"import cycle among {sorted(graph)}"
        graph = {name: deps - leaves for name, deps in graph.items() if name not in leaves}


def _slab_constructions(tree: ast.Module) -> int:
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "ModelSlab"
                    or getattr(node.func, "attr", None) == "ModelSlab"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_bitgrid_builds_slabs(path):
    count = _slab_constructions(ast.parse(path.read_text()))
    assert count > 0 if path.stem == "bitgrid" else count == 0


def _raise_sites(tree: ast.Module, name: str) -> list[str]:
    """The innermost function around each raise of the named exception,
    "<module>" outside any."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if name in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    sites.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return sites


def test_only_the_budgets_raise_resource_limit_exceeded():
    # the exhaustive engines' work budget, and the tableau once its
    # fallback search finds nothing
    sites = sorted(f"{path.stem}.{site}" for path in MODULES
                   for site in _raise_sites(ast.parse(path.read_text()),
                                            "ResourceLimitExceeded"))
    assert sites == ["bitgrid.charge", "decide.decide"]
