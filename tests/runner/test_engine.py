"""The parallel executor: determinism, isolation, caching, logging."""

import json
import os

import pytest

from repro.runner import (
    ResultCache,
    plan_cells,
    run_bench,
    run_cells,
    run_experiments,
    write_jsonl,
)
from repro.runner.engine import execute_cell
from repro.runner.registry import CellSpec

#: shrunken sweeps so the whole module runs in seconds
SMALL = {
    "T3": {"eps_values": (1.0,), "n": 30, "seeds": (0, 1)},
    "L6": {"ns": (30, 60)},
    "T9": {"r_values": (4, 8), "n": 400, "trials": 2},
}


class TestExecuteCell:
    def test_ok_envelope(self):
        status, value, error, elapsed = execute_cell(
            "L6", "l6_cell", {"n": 30, "family": "chordal", "seed": 0}
        )
        assert status == "ok" and error is None
        assert value["layers"] >= 1 and elapsed >= 0

    def test_raising_cell_is_contained(self):
        status, value, error, _ = execute_cell(
            "T3", "t3_cell", {"family": "no-such-family", "eps": 1.0, "n": 10, "seed": 0}
        )
        assert status == "failed" and value is None
        assert "KeyError" in error

    def test_unknown_fn_is_contained(self):
        status, _, error, _ = execute_cell("T3", "no_such_cell", {})
        assert status == "failed" and "no_such_cell" in error

    def test_timeout_interrupts_a_hanging_cell(self):
        status, value, error, elapsed = execute_cell(
            "T3", "_sleep_cell", {"seconds": 30.0}, timeout=0.2
        )
        assert status == "timeout" and value is None
        assert "timeout" in error
        assert elapsed < 5.0


class TestRunCells:
    def test_results_in_plan_order(self):
        specs = plan_cells(["L6"], overrides=SMALL)
        results, stats = run_cells(specs, jobs=1)
        assert [r.params["n"] for r in results] == [30, 60]
        assert stats.cells == 2 and stats.ok == 2

    def test_parallel_equals_serial(self):
        specs = plan_cells(["T3"], overrides=SMALL)
        serial, _ = run_cells(specs, jobs=1)
        parallel, _ = run_cells(specs, jobs=4)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.params for r in serial] == [r.params for r in parallel]

    def test_failed_cell_does_not_kill_the_sweep(self):
        specs = [
            CellSpec("L6", "l6_cell", {"n": 30, "family": "chordal", "seed": 0}),
            CellSpec("L6", "l6_cell", {"n": 40, "family": "no-such", "seed": 0}),
            CellSpec("L6", "l6_cell", {"n": 50, "family": "chordal", "seed": 0}),
        ]
        for jobs in (1, 3):
            results, stats = run_cells(specs, jobs=jobs)
            assert [r.status for r in results] == ["ok", "failed", "ok"]
            assert stats.ok == 2 and stats.failed == 1

    def test_hard_crash_is_isolated_even_for_a_single_pending_cell(self):
        # Regression: `jobs == 1 or len(pending) <= 1` used to run a lone
        # pending cell in-process even with jobs > 1, so an os._exit cell
        # killed the whole sweep (pytest included) instead of settling a
        # `failed` envelope.
        specs = [CellSpec("L6", "_exit_cell", {"code": 13})]
        results, stats = run_cells(specs, jobs=2)
        assert [r.status for r in results] == ["failed"]
        assert "worker crashed" in results[0].error
        assert stats.failed == 1

    def test_hard_crash_mid_sweep_settles_and_neighbors_survive(self):
        specs = [
            CellSpec("L6", "l6_cell", {"n": 30, "family": "chordal", "seed": 0}),
            CellSpec("L6", "_exit_cell", {"code": 13}),
            CellSpec("L6", "l6_cell", {"n": 50, "family": "chordal", "seed": 0}),
        ]
        results, stats = run_cells(specs, jobs=3)
        statuses = [r.status for r in results]
        assert statuses[1] == "failed" and "worker crashed" in results[1].error
        # BrokenProcessPool may take innocent bystanders down with the
        # crashing worker, but every cell must settle to *some* envelope.
        assert len(results) == 3 and stats.cells == 3

    def test_on_result_sees_every_cell(self):
        specs = plan_cells(["L6"], overrides=SMALL)
        seen = []
        run_cells(specs, jobs=2, on_result=seen.append)
        assert sorted(r.params["n"] for r in seen) == [30, 60]


class TestCachingRuns:
    def test_second_invocation_is_at_least_90_percent_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        report1, _, cold = run_experiments(
            ["T3", "L6"], jobs=1, cache=cache, overrides=SMALL
        )
        assert cold.cache_hits == 0
        report2, _, warm = run_experiments(
            ["T3", "L6"], jobs=1, cache=cache, overrides=SMALL
        )
        assert report2 == report1
        assert warm.cache_hit_rate >= 0.9

    def test_parallel_warm_run_matches_serial_cold_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, _, _ = run_experiments(["T9"], jobs=1, cache=cache, overrides=SMALL)
        warm, _, stats = run_experiments(["T9"], jobs=2, cache=cache, overrides=SMALL)
        assert warm == cold and stats.cache_hit_rate == 1.0

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [CellSpec("L6", "l6_cell", {"n": 30, "family": "no-such", "seed": 0})]
        run_cells(specs, jobs=1, cache=cache)
        assert cache.size() == 0

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiments(["L6"], jobs=1, cache=cache, overrides=SMALL)
        _, _, stats = run_experiments(
            ["L6"], jobs=1, cache=cache, overrides={"L6": {"ns": (31, 61)}}
        )
        assert stats.cache_hits == 0


class TestLogsAndBench:
    def test_jsonl_schema(self, tmp_path):
        specs = plan_cells(["L6"], overrides=SMALL)
        results, _ = run_cells(specs, jobs=1)
        path = tmp_path / "cells.jsonl"
        write_jsonl(str(path), results)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(specs)
        for line in lines:
            assert set(line) == {
                "experiment", "fn", "params", "status", "value",
                "error", "elapsed", "cached",
            }
            assert line["status"] == "ok"

    def test_run_bench_summary(self):
        summary = run_bench(["L6"], jobs=2, overrides=SMALL)
        assert summary["reports_identical"] is True
        assert summary["cells"] == 2
        assert summary["serial"]["wall_seconds"] > 0
        assert summary["parallel"]["cache_hits"] == 0
        assert summary["cached_rerun"]["cache_hit_rate"] == 1.0
        assert summary["cpu_count"] == os.cpu_count()
        assert summary["speedup_parallel_over_serial"] > 0

    def test_one_worker_reports_no_parallel_speedup(self):
        # two jobs=1 runs differ only by noise: their ratio is no speedup
        summary = run_bench(["L6"], jobs=1, overrides=SMALL)
        assert summary["parallel"]["jobs"] == 1
        assert "speedup_parallel_over_serial" not in summary
        assert summary["cpu_count"] == os.cpu_count()
