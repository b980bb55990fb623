"""Content-addressed cache and the source-hash closure."""

import json
import shutil
from pathlib import Path

import pytest

from repro.runner import plan_cells, run_cells, sourcehash
from repro.runner.cache import ResultCache, cell_key
from repro.runner.registry import REGISTRY
from repro.runner.sourcehash import module_closure, module_file, source_hash


class TestCellKey:
    def test_param_order_does_not_matter(self):
        a = cell_key("T3", "t3_cell", {"n": 10, "seed": 0}, "abc")
        b = cell_key("T3", "t3_cell", {"seed": 0, "n": 10}, "abc")
        assert a == b

    def test_any_component_changes_the_key(self):
        base = cell_key("T3", "t3_cell", {"n": 10}, "abc")
        assert cell_key("T4", "t3_cell", {"n": 10}, "abc") != base
        assert cell_key("T3", "other", {"n": 10}, "abc") != base
        assert cell_key("T3", "t3_cell", {"n": 11}, "abc") != base
        assert cell_key("T3", "t3_cell", {"n": 10}, "xyz") != base


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cell_key("T9", "t9_cell", {"r": 4}, "h")
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, {"density_gap": 0.25}, {"experiment": "T9"})
        hit, value = cache.get(key)
        assert hit and value == {"density_gap": 0.25}
        assert cache.hits == 1 and cache.misses == 1

    def test_floats_survive_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        ugly = 0.1 + 0.2  # not representable; must round-trip bit-for-bit
        cache.put("k" * 64, {"x": ugly})
        _, value = cache.get("k" * 64)
        assert value["x"] == ugly

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, 1)
        path = next(Path(tmp_path).glob("*/*.json"))
        path.write_text("{not json")
        hit, _ = cache.get("a" * 64)
        assert not hit

    def test_clean_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(3):
            cache.put(f"{i}" * 64, i)
        assert cache.size() == 3
        assert cache.clean() == 3
        assert cache.size() == 0
        assert cache.clean() == 0  # idempotent


def _write_package(root: Path, files):
    for name, body in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)


class TestSourceHash:
    def test_module_file_resolution(self):
        assert module_file("repro").name == "__init__.py"
        assert module_file("repro.runner.cache").name == "cache.py"
        assert module_file("repro.graphs").name == "__init__.py"
        assert module_file("json") is None
        assert module_file("repro.no_such_module") is None

    def test_closure_follows_intra_package_imports(self, tmp_path):
        _write_package(tmp_path, {
            "__init__.py": "",
            "a.py": "from .b import thing\nimport json\n",
            "b.py": "from repro.c import other\n",
            "c.py": "x = 1\n",
            "d.py": "unrelated = True\n",
        })
        closure = module_closure(["repro.a"], root=tmp_path)
        assert set(closure) == {"repro.a", "repro.b", "repro.c"}

    def test_hash_changes_only_with_relevant_edits(self, tmp_path):
        files = {
            "__init__.py": "",
            "a.py": "from .b import thing\n",
            "b.py": "thing = 1\n",
            "d.py": "unrelated = True\n",
        }
        _write_package(tmp_path, files)
        before = source_hash(["repro.a"], root=tmp_path)
        assert before == source_hash(["repro.a"], root=tmp_path)  # stable

        (tmp_path / "d.py").write_text("unrelated = False\n")
        assert source_hash(["repro.a"], root=tmp_path) == before

        (tmp_path / "b.py").write_text("thing = 2\n")
        assert source_hash(["repro.a"], root=tmp_path) != before

    def test_relative_imports_resolve(self, tmp_path):
        _write_package(tmp_path, {
            "__init__.py": "",
            "pkg/__init__.py": "",
            "pkg/mod.py": "from ..util import helper\n",
            "util.py": "def helper(): pass\n",
        })
        closure = module_closure(["repro.pkg.mod"], root=tmp_path)
        assert "repro.util" in closure

    def test_real_experiment_deps_have_disjoint_sensitivity(self):
        # editing the lower-bound module must not invalidate T3's key
        t3 = module_closure(["repro.coloring"])
        assert not any(name.startswith("repro.lowerbounds") for name in t3)
        t9 = module_closure(["repro.lowerbounds"])
        assert not any(name.startswith("repro.coloring") for name in t9)


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the ``repro`` sources to edit; ``source_hash(..., root=)`` reads it."""
    root = tmp_path / "repro"
    shutil.copytree(
        module_file("repro").parent, root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


def _edit_a2_cell(package: Path) -> None:
    """Change the value ``a2_cell`` reports, as a cell-body edit would."""
    cells = package / "runner" / "cells.py"
    old = '"cuts": morph_cut_budget(chi, spares),'
    text = cells.read_text()
    assert old in text
    cells.write_text(text.replace(old, '"cuts": morph_cut_budget(chi, spares) + 1,'))


class TestCellModuleInKeys:
    """Cell bodies live in ``repro.runner.cells``, which no deps closure reaches."""

    def test_no_deps_closure_reaches_the_cell_module(self):
        for exp in REGISTRY.values():
            assert "repro.runner.cells" not in module_closure(exp.deps)

    def test_cell_body_edit_changes_the_key(self, package_copy):
        params = {"chi": 4, "k": 1}
        deps = REGISTRY["A1-A3"].deps
        before = cell_key("A1-A3", "a2_cell", params, source_hash(deps, root=package_copy))
        _edit_a2_cell(package_copy)
        after = cell_key("A1-A3", "a2_cell", params, source_hash(deps, root=package_copy))
        assert after != before

    def test_lowerbounds_edit_leaves_t3_alone(self, package_copy):
        t3 = REGISTRY["T3"].deps
        t9 = REGISTRY["T9"].deps
        before = source_hash(t3, root=package_copy), source_hash(t9, root=package_copy)
        for path in (package_copy / "lowerbounds").glob("*.py"):
            path.write_text(path.read_text() + "\n# edited\n")
        assert source_hash(t3, root=package_copy) == before[0]
        assert source_hash(t9, root=package_copy) != before[1]

    def test_cell_body_edit_misses_the_cache(self, package_copy, tmp_path, monkeypatch):
        specs = [s for s in plan_cells(["A1-A3"]) if s.fn == "a2_cell"]
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(sourcehash, "_PACKAGE_ROOT", package_copy)
        run_cells(specs, cache=cache)
        _, warm = run_cells(specs, cache=cache)
        assert warm.cache_hits == len(specs)
        _edit_a2_cell(package_copy)
        _, edited = run_cells(specs, cache=cache)
        assert edited.cache_hits == 0
