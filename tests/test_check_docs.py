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

    def test_kernels_doc_must_name_the_forest_builder(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "kernels.md").write_text("# GraphIndex and compute_parent\n")
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/kernels.md: 'clique_forest_from_peo' is never mentioned" in text

    def test_retired_wg_kernels_are_flagged(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "kernels.md").write_text(
            "clique_forest_from_peo replaced clique_intersection_edges\n"
        )
        (broken_root / "DESIGN.md").write_text(
            "| T4 | Theorem 4 |\nKruskal: maximum_weight_spanning_forest_ids\n"
        )
        text = "\n".join(check_docs.check(broken_root))
        assert (
            "docs/kernels.md: names the retired kernel 'clique_intersection_edges'"
            in text
        )
        assert (
            "DESIGN.md: names the retired kernel "
            "'maximum_weight_spanning_forest_ids'" in text
        )
        assert "'clique_forest_from_peo' is never mentioned" not in text
        assert "README.md: names the retired kernel" not in text

    def test_retired_peeling_terms_are_flagged(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "kernels.md").write_text(
            "clique_forest_from_peo; kernels.peeling_layers is layers only\n"
        )
        (docs / "architecture.md").write_text("`_RestrictedBFS` stamps\n")
        (broken_root / "EXPERIMENTS.md").write_text("## K1 — PeelingLayers\n")
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/kernels.md: names the retired 'peeling_layers'" in text
        assert "docs/architecture.md: names the retired '_RestrictedBFS'" in text
        assert "EXPERIMENTS.md: names the retired 'PeelingLayers'" in text
        assert "README.md: names the retired" not in text
        assert "(peel_chordal_graph is the one peeling)" in text

    def test_retired_executor_terms_are_flagged(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "executor.md").write_text(
            "gather_balls dispatches itself; BatchExecutor.run is gone\n"
        )
        (docs / "gather.md").write_text("`BFSLayerKernel` and `batch_kernel`\n")
        (broken_root / "README.md").write_text("see KernelIneligible\n")
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/executor.md: names the retired 'BatchExecutor'" in text
        assert "docs/gather.md: names the retired 'BFSLayerKernel'" in text
        assert "docs/gather.md: names the retired 'batch_kernel'" in text
        assert "README.md: names the retired 'KernelIneligible'" in text
        assert "names the retired 'LinialPathKernel'" not in text
        assert "docs/executor.md: 'BatchExecutor' is never mentioned" not in text

    def test_retired_stock_terms_are_flagged(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "faults.md").write_text(
            "mix plans with corruption_grid; kinds from FAULT_VALIDATORS\n"
        )
        (docs / "lint.md").write_text("the `_sanitize_suite` programs\n")
        (docs / "architecture.md").write_text("| `rounds` | RoundLedger |\n")
        (broken_root / "EXPERIMENTS.md").write_text("## C1 — see _c1_instance\n")
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/faults.md: names the retired 'corruption_grid'" in text
        assert "docs/faults.md: names the retired 'FAULT_VALIDATORS'" in text
        assert "docs/lint.md: names the retired '_sanitize_suite'" in text
        assert "docs/architecture.md: names the retired 'RoundLedger'" in text
        assert "EXPERIMENTS.md: names the retired '_c1_instance'" in text
        assert "README.md: names the retired" not in text
        assert "(repro.localmodel.stock is the one catalogue)" in text

    def test_gather_doc_must_name_the_subtree_table(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "gather.md").write_text("# KnownBall and local_view_from_ball\n")
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/gather.md: 'SubtreeTable' is never mentioned" in text
        assert "docs/gather.md: 'local_view_from_ball' is never mentioned" not in text

    def test_gather_doc_must_name_vertex_facts(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "gather.md").write_text('# DeltaGatherKernel and info["executed"]\n')
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/gather.md: 'vertex facts' is never mentioned" in text
        assert "docs/gather.md: 'DeltaGatherKernel' is never mentioned" not in text
        assert "docs/gather.md: 'info[\"executed\"]' is never mentioned" not in text
        # the retired per-node options are no longer required anywhere
        for term in ("sealed=True", "FaultPlan", "fallback_reason"):
            assert f"{term!r} is never mentioned" not in text
        assert "docs/executor.md" not in text

    def test_retired_fallback_terms_are_flagged(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "tracing.md").write_text("wrap it in a TracedNetwork\n")
        (docs / "gather.md").write_text("info[\"fallback_reason\"] names the blockers\n")
        (broken_root / "DESIGN.md").write_text(
            "| T4 | Theorem 4 |\n`_per_node_blockers` picks the path\n"
        )
        text = "\n".join(check_docs.check(broken_root))
        assert "docs/tracing.md: names the retired 'TracedNetwork'" in text
        assert "docs/gather.md: names the retired 'fallback_reason'" in text
        assert "DESIGN.md: names the retired '_per_node_blockers'" in text
        assert "README.md: names the retired" not in text
        assert "(only SyncNetwork seals, traces or faults a run)" in text

    def test_retired_fact_id_space_is_flagged_on_docs_pages(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "executor.md").write_text("a dense *fact-id* space\n")
        (docs / "gather.md").write_text("vertex facts replaced the fact-id space\n")
        (broken_root / "README.md").write_text("history: the fact-id kernel\n")
        text = "\n".join(check_docs.check(broken_root))
        for page in ("docs/executor.md", "docs/gather.md"):
            assert f"{page}: describes the retired 'fact-id' gather kernel" in text
        assert "README.md: describes the retired" not in text
        assert "'vertex facts' is never mentioned" not in text

    def test_index_must_hold_the_epsilon_table(self, broken_root):
        docs = broken_root / "docs"
        docs.mkdir()
        (docs / "index.md").write_text(
            "| entry point | also covers | accepted ε |\n"
            "|---|---|---|\n"
            "| `ColoringParameters.from_epsilon` | `repro color` | ε > 0 and finite |\n"
            "| `interval_mis` | — | 0 < ε < ½ |\n"
            "`mis_peeling_parameters` takes 0 < ε < ½ (prose, not a row)\n"
        )
        text = "\n".join(check_docs.check(broken_root))
        assert (
            "docs/index.md: the accepted-epsilon table has no row for "
            "'interval_mis' with '0 < ε < 1'" in text
        )
        assert "no row for 'mis_peeling_parameters'" in text
        assert "no row for 'ColoringParameters.from_epsilon'" not in text

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
