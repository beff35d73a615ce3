"""Static checks on the package source, standing in for a linter."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import vermatheta

SOURCES = sorted(Path(vermatheta.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: the code that runs: the package and the benchmark harness, not the tests
PROGRAM = SOURCES + sorted(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))


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


_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+\Z")


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: a loaded name or attribute, an imported name,
    or a part of a dotted string constant such as ``"VermaModule.apply_gen"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.match(node.value):
            names.update(node.value.split("."))
    return names


def dead_definitions(tree: ast.Module, program: list[ast.Module]) -> list[str]:
    """The functions, methods and classes ``tree`` defines that no module of
    ``program`` reads; dunder methods are called implicitly."""
    read = set().union(*map(read_names, program))
    return sorted(
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_is_read(path):
    program = [ast.parse(p.read_text(encoding="utf-8")) for p in PROGRAM]
    assert dead_definitions(ast.parse(path.read_text(encoding="utf-8")), program) == []


def test_dead_definition_check_sees_leftovers():
    tree = ast.parse(
        "class Module:\n    def __init__(self): pass\n    def used(self): pass\n"
        "    def spare(self): pass\ndef wrapped(): pass\ndef stored(): pass\n"
    )
    reader = ast.parse("Module().used()\nSPANS = ('mod.wrapped',)\nstored = None\n")
    assert dead_definitions(tree, [tree, reader]) == ["spare", "stored"]


def test_only_verma_reads_the_matrix_cache():
    # the shared forms cache is verma's format; other modules ask
    # ``VermaModule.weight_free`` and ``VermaModule.diagonal_forms``
    readers = [
        path.name for path in SOURCES
        if any(isinstance(node, ast.Attribute) and node.attr == "matrix_forms"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert readers == ["verma.py"]


def test_only_exactalg_shifts_a_matrix():
    # a Casimir's nullities come from ``exactalg.nullities``, which picks the
    # band recurrence or the rank of each shift; no other module shifts
    callers = [
        path.name for path in SOURCES
        if any(isinstance(node, ast.Call) and "mat_scalar_shift" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert callers == ["exactalg.py"]


def test_only_kappa_spectrum_measures_a_casimirs_nullities():
    # every weight sample of a space not read off its diagonal is measured
    # the one way, ``kappa_spectrum``; no other branching function calls
    # ``nullities``
    tree = ast.parse((Path(vermatheta.__file__).parent / "branching.py").read_text(encoding="utf-8"))
    callers = [
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and "nullities" in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))
    ]
    assert callers == ["kappa_spectrum"]


def test_closed_form_with_notes_names_no_identity():
    # identity-specific logic stays in ``catalog_terms``; the closed form
    # only expands and sums the terms it yields
    theta = ast.parse((Path(vermatheta.__file__).parent / "theta.py").read_text(encoding="utf-8"))
    body = next(node for node in theta.body
                if isinstance(node, ast.FunctionDef) and node.name == "closed_form_with_notes")
    members = [node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "ClosedFormId"]
    assert members == []


def test_tracer_targets_name_existing_attributes():
    # the benchmark's tracer wraps these names by getattr; a rename or a
    # deletion fails here, naming it, not inside the traced run's subprocess
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"vermatheta.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
