"""The docs-consistency checker: extractors, failure modes, and the repo itself."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestExtractors:
    def test_experiments_md_headings(self):
        text = (
            "# EXPERIMENTS\n"
            "## T3 — Theorem 3: stuff\n"
            "## T5/T6 — Theorems 5-6\n"
            "## F1–F6 — Figures 1–6 (en dashes)\n"
            "## Reading the round counts\n"
            "### T9 — not a section heading\n"
        )
        assert check_docs.experiment_ids_in_experiments_md(text) == [
            "T3", "T5/T6", "F1-F6",
        ]

    def test_design_md_table_rows_skip_prose_cells(self):
        text = (
            "| Id | Paper artifact |\n"
            "| T4 | Theorem 4 |\n"
            "| A1–A3 | ablations |\n"
            "| Graph substrate | not an id |\n"
            "| S0 | bench-only, allowlisted |\n"
        )
        assert check_docs.experiment_ids_in_design_md(text) == ["T4", "A1-A3"]

    def test_bench_only_ids_are_excluded_everywhere(self):
        text = "## S0 — substrate microbenchmarks\n"
        assert check_docs.experiment_ids_in_experiments_md(text) == []

    def test_cli_subcommands_match_parser(self):
        assert check_docs.cli_subcommands() == [
            "chaos", "color", "faults", "generate", "info", "lint", "mis",
            "report", "run", "trace",
        ]

    def test_package_inventory(self):
        packages = check_docs.package_inventory(REPO_ROOT / "src")
        assert "runner" in packages and "graphs" in packages
        assert "__pycache__" not in packages


class TestCheck:
    def test_this_repository_is_consistent(self):
        assert check_docs.check(REPO_ROOT) == []

    @pytest.fixture
    def broken_root(self, tmp_path):
        """A synthetic repo root with every class of inconsistency."""
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "EXPERIMENTS.md").write_text(
            "## T3 — real\n## Z9 — bogus id\n"
        )
        (tmp_path / "DESIGN.md").write_text("| T4 | Theorem 4 |\n")
        (tmp_path / "README.md").write_text("only `python -m repro info` here\n")
        return tmp_path

    def test_problems_are_itemized(self, broken_root):
        problems = check_docs.check(broken_root)
        text = "\n".join(problems)
        assert "'Z9' is not in the repro.runner registry" in text
        assert "subcommand 'run' is undocumented" in text
        assert "docs/architecture.md: file missing" in text
        assert "docs/runner.md: file missing" in text
        assert "docs/tracing.md: file missing" in text
        assert "docs/faults.md: file missing" in text
        assert "docs/index.md: file missing" in text
        # the one documented subcommand is not flagged
        assert "'info' is undocumented" not in text

    def test_unlinked_docs_page_is_flagged(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "orphan.md").write_text("# nobody links me\n")
        problems = check_docs.check(broken_root)
        text = "\n".join(problems)
        assert "README.md: docs page 'docs/orphan.md' is never linked" in text

    def test_index_must_map_every_page_and_subcommand(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "index.md").write_text("# index with no entries\n")
        (docs / "extra.md").write_text("# a page the index ignores\n")
        problems = check_docs.check(broken_root)
        text = "\n".join(problems)
        assert (
            "docs/index.md: docs page 'extra.md' is missing from the "
            "subsystem map" in text
        )
        assert "docs/index.md: CLI subcommand 'faults' is never mentioned" in text

    def test_faults_doc_terms_enforced(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "faults.md").write_text("# faults, vaguely\n")
        problems = check_docs.check(broken_root)
        text = "\n".join(problems)
        assert "docs/faults.md: 'FaultPlan' is never mentioned" in text
        assert "docs/faults.md: 'self-healing' is never mentioned" in text

    def test_kernels_doc_must_name_the_early_stopping_searches(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "kernels.md").write_text("# GraphIndex only\n")
        text = "\n".join(check_docs.check(broken_root))
        for term in ("Graph.diameter", "compute_parent", "greedy_distance_k_selection"):
            assert f"docs/kernels.md: {term!r} is never mentioned" in text

    def test_gather_doc_must_name_the_subtree_table(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "gather.md").write_text("# KnownBall and local_view_from_ball\n")
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/gather.md: 'SubtreeTable' is never mentioned" in text
        assert "docs/gather.md: 'local_view_from_ball' is never mentioned" not in text

    def test_retired_experiment_paths_are_flagged(self, broken_root):
        (broken_root / "README.md").write_text(
            "run `python -m repro.analysis.report T4`\n"
        )
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "runner.md").write_text(
            "sweeps from repro.analysis.experiments and repro.analysis.ablations\n"
        )
        text = "\n".join(check_docs.check(broken_root))
        assert "README.md: names the retired 'repro.analysis.report'" in text
        for retired in ("repro.analysis.experiments", "repro.analysis.ablations"):
            assert f"docs/runner.md: names the retired {retired!r}" in text
        assert "DESIGN.md: names the retired" not in text

    def test_empty_extraction_is_itself_a_problem(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "EXPERIMENTS.md").write_text("no headings here\n")
        problems = check_docs.check(tmp_path)
        assert any(
            "EXPERIMENTS.md: found no experiment ids" in p for p in problems
        )
        assert any("DESIGN.md: file missing" in p for p in problems)

    def test_main_exit_status(self, capsys):
        assert check_docs.main(["--root", str(REPO_ROOT)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_main_nonzero_on_problems(self, tmp_path, capsys):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        assert check_docs.main(["--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "problem(s)" in err
