"""Every top-level import in the package's modules is used by that module
and takes only public names from the other modules."""

import ast
from pathlib import Path

import pytest

import modalkit

MODULES = sorted(p for p in Path(modalkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names bound by top-level imports from modalkit modules."""
    return [a.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "modalkit")
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    """A module uses another's public names only.  Like the check above it
    reads top-level imports: translate imports bitgrid's slab budget check
    inside check_faithfulness, because bitgrid imports translate at module
    level and a top-level import back would be circular."""
    assert _private_imports(ast.parse(path.read_text())) == []
