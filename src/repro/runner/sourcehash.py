"""Source hashing for the experiment cache keys.

A cached cell result is only valid while the code that produced it is
unchanged.  Rather than hashing the whole package (which would invalidate
every cache entry on any edit), each experiment declares the *root*
modules it depends on and the cache key incorporates a hash of the
transitive intra-package import closure of those roots: editing
``repro.lowerbounds`` invalidates T9 but leaves T3's cached cells alive.

Every key also hashes the bytes of :mod:`repro.runner.cells`, where the
cell bodies live: no experiment's closure reaches that module, so
without it an edited cell would keep serving its old cached payload.
The file alone is hashed, not its import closure, which spans the whole
package and would tie every experiment to every module.

The closure is computed statically — ``ast``-parsing ``import`` statements
— so building a cache key never imports (or executes) the modules it
hashes.  Only imports that resolve inside the ``repro`` package are
followed; stdlib imports do not affect the key.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

__all__ = ["module_file", "module_closure", "source_hash"]

PACKAGE = "repro"

#: the module every cache key hashes by its file bytes alone
CELLS_MODULE = "repro.runner.cells"

#: package root directory (src/repro); overridable for tests.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def module_file(name: str, root: Optional[Path] = None) -> Optional[Path]:
    """Resolve a dotted module name inside the package to its source file.

    ``repro.graphs.adjacency`` -> ``<root>/graphs/adjacency.py``;
    packages resolve to their ``__init__.py``.  Names that do not live
    under the package (stdlib, third-party) return ``None``.  Resolution
    is purely lexical — nothing is imported.
    """
    root = root or _PACKAGE_ROOT
    if name != PACKAGE and not name.startswith(PACKAGE + "."):
        return None
    parts = name.split(".")[1:]
    base = root.joinpath(*parts) if parts else root
    candidate = base.with_suffix(".py") if parts else None
    if candidate is not None and candidate.is_file():
        return candidate
    init = base / "__init__.py"
    if init.is_file():
        return init
    return None


def _absolute_name(node: ast.ImportFrom, module_name: str) -> Optional[str]:
    """The absolute dotted module an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module
    # relative import: resolve against the importing module's package
    parts = module_name.split(".")
    # a module's package drops the last component; each extra level drops one more
    anchor = parts[: len(parts) - node.level]
    if not anchor:
        return None
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor)


def _imports_of(path: Path, module_name: str) -> Set[str]:
    """Dotted names (possibly module-or-symbol) imported by a source file."""
    try:
        tree = ast.parse(path.read_text())
    except SyntaxError:
        return set()
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute_name(node, module_name)
            if base is None:
                continue
            found.add(base)
            # ``from repro.graphs import adjacency`` names a submodule;
            # ``... import Graph`` names a symbol.  Record both candidates —
            # non-modules simply fail to resolve later.
            for alias in node.names:
                found.add(f"{base}.{alias.name}")
    return found


def module_closure(
    roots: Sequence[str], root: Optional[Path] = None
) -> Dict[str, Path]:
    """Transitive intra-package import closure of ``roots``.

    Returns ``{module name: source file}`` for every ``repro.*`` module
    reachable from the roots by following ``import`` statements.
    """
    root_dir = root or _PACKAGE_ROOT
    resolved: Dict[str, Path] = {}
    queue: List[str] = list(roots)
    seen: Set[str] = set()
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        path = module_file(name, root_dir)
        if path is None:
            continue
        resolved[name] = path
        # the full package name of the module, for resolving its relative imports
        pkg_relative = path.relative_to(root_dir)
        if path.name == "__init__.py":
            module_name = ".".join([PACKAGE, *pkg_relative.parent.parts])
        else:
            module_name = ".".join([PACKAGE, *pkg_relative.parent.parts, path.stem])
        module_name = module_name.rstrip(".") or PACKAGE
        for dep in _imports_of(path, module_name):
            if dep not in seen:
                queue.append(dep)
    return resolved


def source_hash(roots: Sequence[str], root: Optional[Path] = None) -> str:
    """Hex digest over the import closure of ``roots`` plus the cell module.

    Stable across runs and machines; changes iff a file in the closure
    or :data:`CELLS_MODULE` changes (or a file joins/leaves the closure).
    """
    closure = module_closure(roots, root)
    cells = module_file(CELLS_MODULE, root)
    if cells is not None:
        closure[CELLS_MODULE] = cells
    digest = hashlib.sha256()
    for name in sorted(closure):
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(closure[name].read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()
