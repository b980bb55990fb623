"""``bench_lint.py --check``: the committed file must describe this tree."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_lint", REPO_ROOT / "benchmarks" / "bench_lint.py"
)
bench_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_lint)


def _committed(tmp_path, modules):
    path = tmp_path / "BENCH_lint.json"
    path.write_text(json.dumps({"static": {"modules": modules}}))
    return path


def test_matching_module_count_passes(tmp_path):
    assert bench_lint.committed_module_problem(81, _committed(tmp_path, 81)) is None


def test_stale_module_count_names_the_regenerate_command(tmp_path):
    problem = bench_lint.committed_module_problem(81, _committed(tmp_path, 84))
    assert "records 84 modules but the live scan found 81" in problem
    assert bench_lint.REGENERATE in problem


def test_missing_or_malformed_file_is_a_problem(tmp_path):
    missing = bench_lint.committed_module_problem(81, tmp_path / "absent.json")
    assert "unreadable" in missing and bench_lint.REGENERATE in missing
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert "unreadable" in bench_lint.committed_module_problem(81, bad)

