"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

import vermatheta

SOURCES = sorted(Path(vermatheta.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads; ``__all__`` reads its names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_sees_leftovers():
    tree = ast.parse(
        "import os.path\nfrom dataclasses import dataclass, field\n"
        "from .theta import VARIANT_PAIRS as PAIRS\n__all__ = ['field']\n"
        "os.sep\n"
    )
    assert unused_imports(tree) == ["dataclass", "PAIRS"]
