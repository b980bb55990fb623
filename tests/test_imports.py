"""Every name a library module imports is used in that module.

An import nothing reads is dead code that still costs an import and
misleads a reader about the module's dependencies.  The scan covers
every module under ``src/repro`` except the package ``__init__`` files,
whose imports are the public re-exports.  A name counts as used when a
``Name`` node reads it, when a string annotation names it, or when the
module's ``__all__`` lists it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name bound by an import, line) for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read by ``Name`` nodes, string annotations and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_scan_covers_the_library():
    assert len(MODULES) > 50
    assert SRC / "localmodel" / "gather.py" in MODULES


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in imported_names(tree)
        if name not in used
    ]
    assert not unused, f"{path.relative_to(SRC)} imports unused: {', '.join(unused)}"


def test_the_scan_flags_an_unused_import():
    tree = ast.parse(
        "from typing import Dict, List\n"
        "import math\n"
        "x: 'Dict[str, int]' = {}\n"
    )
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == [
        "List",
        "math",
    ]
