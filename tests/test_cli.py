"""The command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs import cycle_graph, to_edge_list
from repro.localmodel.stock import stock_suite
from tests.oracles import scheduling


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


@pytest.fixture
def tree_file(tmp_path):
    code, _ = run_cli(
        ["generate", "tree", "--n", "30", "--seed", "1",
         "--output", str(tmp_path / "g.edges")]
    )
    assert code == 0
    return str(tmp_path / "g.edges")


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.edges"
    path.write_text(to_edge_list(cycle_graph(8)))
    return str(path)


class TestInfo:
    def test_summary_fields(self, tree_file):
        code, out = run_cli(["info", tree_file])
        assert code == 0
        assert "vertices: 30" in out
        assert "chordal:  True" in out
        assert "alpha:" in out

    def test_non_chordal_omits_certificates(self, cycle_file):
        _, out = run_cli(["info", cycle_file])
        assert "chordal:  False" in out
        assert "alpha" not in out


class TestColor:
    def test_colors_within_bound(self, tree_file):
        code, out = run_cli(["color", tree_file, "--epsilon", "0.5"])
        assert code == 0
        assert "colors used: 2" in out

    def test_distributed_rounds_reported(self, tree_file):
        _, out = run_cli(["color", tree_file, "--distributed"])
        assert "LOCAL rounds:" in out

    def test_output_file(self, tree_file, tmp_path):
        target = tmp_path / "coloring.json"
        run_cli(["color", tree_file, "--output", str(target)])
        coloring = json.loads(target.read_text())
        assert len(coloring) == 30

    def test_non_chordal_rejected_without_flag(self, cycle_file, capsys):
        code, out = run_cli(["color", cycle_file])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "repro color: input graph is not chordal; pass --triangulate "
            "to use its min-fill completion\n"
        )

    def test_triangulate_flag(self, cycle_file):
        code, out = run_cli(["color", cycle_file, "--triangulate"])
        assert code == 0
        assert "triangulated:" in out
        assert "colors used:" in out

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bad_epsilon_exits_2_with_one_line(self, tree_file, epsilon, capsys):
        code, out = run_cli(["color", tree_file, "--epsilon", epsilon])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("repro color: epsilon must be positive and finite")
        assert err.count("\n") == 1


class TestMIS:
    def test_size_and_guarantee(self, tree_file):
        code, out = run_cli(["mis", tree_file, "--epsilon", "0.4"])
        assert code == 0
        assert "independent set size:" in out
        assert "guarantee" in out

    def test_output_file(self, tree_file, tmp_path):
        target = tmp_path / "mis.json"
        run_cli(["mis", tree_file, "--output", str(target)])
        members = json.loads(target.read_text())
        assert len(members) >= 10

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bad_epsilon_exits_2_with_one_line(self, tree_file, epsilon, capsys):
        code, out = run_cli(["mis", tree_file, "--epsilon", epsilon])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("repro mis: epsilon must be in (0, 1/2)")
        assert err.count("\n") == 1


class TestGenerate:
    def test_stdout_default(self):
        code, out = run_cli(["generate", "unit-chain", "--n", "15"])
        assert code == 0
        assert "vertices:" in out

    def test_all_families(self, tmp_path):
        for family in ("chordal", "tree", "interval", "interval-chain",
                       "unit-chain", "k-tree"):
            target = tmp_path / f"{family}.edges"
            code, _ = run_cli(
                ["generate", family, "--n", "25", "--output", str(target)]
            )
            assert code == 0
            assert target.exists()


class TestReport:
    def test_single_experiment(self):
        code, out = run_cli(["report", "L6"])
        assert code == 0
        assert "Lemma 6" in out

    def test_unknown_id_exits_nonzero(self, capsys):
        code, _ = run_cli(["report", "BOGUS"])
        assert code == 2
        assert "known ids are" in capsys.readouterr().err


class TestRun:
    def test_list_registered_experiments(self):
        code, out = run_cli(["run", "--list"])
        assert code == 0
        for experiment_id in ("T3", "T4", "T5/T6", "T7/T8", "T9", "L6", "B1",
                              "F1-F6", "X1"):
            assert experiment_id in out

    def test_tables_match_the_serial_report(self, tmp_path):
        code_run, out_run = run_cli(
            ["run", "--ids", "L6", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache")]
        )
        code_rep, out_rep = run_cli(["report", "L6"])
        assert code_run == code_rep == 0
        assert out_run == out_rep

    def test_executor_flag_removed(self, capsys):
        # the executor picks its path itself; K2 sweeps node and batch
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--ids", "K2", "--executor", "batch"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_second_invocation_hits_the_cache(self, tmp_path, capsys):
        argv = ["run", "--ids", "L6", "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache")]
        run_cli(argv)
        capsys.readouterr()
        code, _ = run_cli(argv)
        assert code == 0
        assert "5 cached" in capsys.readouterr().err

    def test_no_cache_leaves_no_directory(self, tmp_path):
        cache_dir = tmp_path / "cache"
        code, _ = run_cli(["run", "--ids", "L6", "--no-cache",
                           "--cache-dir", str(cache_dir)])
        assert code == 0
        assert not cache_dir.exists()

    def test_clean_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(["run", "--ids", "L6", "--cache-dir", cache_dir])
        code, out = run_cli(["run", "--clean-cache", "--cache-dir", cache_dir])
        assert code == 0
        assert "removed 5 cached" in out

    def test_jsonl_log(self, tmp_path):
        log = tmp_path / "cells.jsonl"
        code, _ = run_cli(["run", "--ids", "L6", "--no-cache",
                           "--jsonl", str(log)])
        assert code == 0
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(lines) == 5
        assert all(l["status"] == "ok" for l in lines)

    def test_unknown_id_exits_nonzero(self, capsys):
        code, _ = run_cli(["run", "--ids", "NOPE"])
        assert code == 2
        assert "known ids are" in capsys.readouterr().err

    def test_alias_ids_accepted(self, tmp_path):
        code, out = run_cli(["run", "--ids", "F3", "--no-cache"])
        assert code == 0
        assert "Figures 1-6" in out


class TestLint:
    def test_package_is_clean_via_cli(self):
        code, out = run_cli(["lint"])
        assert code == 0
        assert "0 findings" in out

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_baseline_flags_removed(self, flag, tmp_path, capsys):
        # inline "# repro-lint: disable=" comments are the one suppression
        # mechanism; a baseline file is no longer accepted
        with pytest.raises(SystemExit) as exc:
            run_cli(["lint", flag, str(tmp_path / "baseline.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_violations_reported_with_locations(self):
        from tests.lint.conftest import CHEATERS

        code, out = run_cli(["lint", str(CHEATERS)])
        assert code == 1
        assert "cheating_programs.py:" in out
        for rule in ("L1", "L2", "L3", "L4", "L5", "L6"):
            assert rule in out

    def test_json_format(self):
        from tests.lint.conftest import CHEATERS

        code, out = run_cli(["lint", str(CHEATERS), "--format", "json"])
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["total"] > 0


class TestTrace:
    def test_metrics_summary(self, tree_file):
        code, out = run_cli(["trace", tree_file, "--program", "echo"])
        assert code == 0
        assert out.startswith("echo on 30 vertices\n")
        assert "rounds:" in out and "node steps:" in out
        assert "echo count at root 0: 30" in out

    def test_timeline_flag(self, tree_file):
        code, out = run_cli(["trace", tree_file, "--program", "bfs", "--timeline"])
        assert code == 0
        assert "round 0:" in out and "msgs" in out

    def test_jsonl_export_schema(self, tree_file, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out = run_cli(
            ["trace", tree_file, "--program", "luby", "--jsonl", str(path)]
        )
        assert code == 0
        assert f"trace written to {path}" in out
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines and [l["round"] for l in lines] == list(range(len(lines)))
        for line in lines:
            assert set(line) == {
                "round", "active", "message_count", "messages", "completed",
            }
            assert line["message_count"] == len(line["messages"])

    def test_no_payloads_shrinks_the_trace(self, tree_file, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            ["trace", tree_file, "--program", "gather", "--radius", "2",
             "--jsonl", str(path), "--no-payloads"]
        )
        assert code == 0
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        for line in lines:
            for message in line["messages"]:
                assert set(message) == {"from", "to"}

    def test_dense_scheduler_same_trace(self, tree_file, tmp_path):
        paths = {}
        for scheduler in ("active", "dense"):
            paths[scheduler] = tmp_path / f"{scheduler}.jsonl"
            with scheduling(scheduler):
                code, out = run_cli(
                    ["trace", tree_file, "--program", "luby",
                     "--jsonl", str(paths[scheduler])]
                )
            assert code == 0
            assert out.startswith("luby on 30 vertices\n")
        assert paths["active"].read_text() == paths["dense"].read_text()

    def test_scheduler_flag_removed(self, tree_file, capsys):
        # dense stepping is a test oracle now, not a CLI choice
        with pytest.raises(SystemExit) as exc:
            run_cli(["trace", tree_file, "--scheduler", "dense"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_executor_flag_removed(self, tree_file, capsys):
        # a trace attaches sinks, so it always steps node by node
        with pytest.raises(SystemExit) as exc:
            run_cli(["trace", tree_file, "--executor", "batch"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sealed_flag(self, tree_file):
        code, out = run_cli(["trace", tree_file, "--program", "leader", "--sealed"])
        assert code == 0
        assert "sealed" in out and "leader: 0" in out

    def test_impossible_workload_aborts_cleanly(self, cycle_file):
        # echo is a tree convergecast; on a cycle it can never finish --
        # the starvation fast-fail must surface as a clean exit, not a
        # traceback (nor a spin to the round budget)
        with pytest.raises(SystemExit, match="trace aborted"):
            run_cli(["trace", cycle_file, "--program", "echo"])


class TestTraceFaultsFlag:
    def test_empty_spec_is_the_identity(self, tree_file):
        code_bare, out_bare = run_cli(["trace", tree_file, "--program", "bfs"])
        code_empty, out_empty = run_cli(
            ["trace", tree_file, "--program", "bfs", "--faults", ""]
        )
        assert code_bare == code_empty == 0
        assert out_bare == out_empty
        assert "faults injected" not in out_bare

    def test_plan_reported_and_counters_printed(self, tree_file):
        code, out = run_cli(
            ["trace", tree_file, "--program", "bfs",
             "--faults", "drop=0.2,seed=3"]
        )
        assert code == 0
        assert "faults injected" in out and "dropped:" in out

    def test_bad_spec_aborts_cleanly(self, tree_file, capsys):
        code, out = run_cli(["trace", tree_file, "--program", "bfs",
                             "--faults", "wibble=1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("repro trace: bad --faults spec")


class TestFaultsCommand:
    def test_requires_graph_or_sweep(self, capsys):
        code, out = run_cli(["faults"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "repro faults: provide a GRAPH file or use --stock / --sweep\n"
        )

    def test_single_run_clean_plan(self, tree_file):
        code, out = run_cli(["faults", tree_file, "--program", "bfs"])
        assert code == 0
        assert "under plan 'none'" in out
        assert "output validity: OK" in out

    def test_single_run_with_drops_counts_injections(self, tree_file):
        code, out = run_cli(
            ["faults", tree_file, "--program", "bfs",
             "--plan", "drop=0.3,seed=2"]
        )
        assert code == 0  # BFS overestimates are still valid
        assert "under plan 'drop=0.3,seed=2'" in out
        assert "faults injected" in out
        assert "output validity: OK" in out

    def test_crash_stop_reported(self, tree_file):
        code, out = run_cli(
            ["faults", tree_file, "--program", "bfs", "--plan", "crash=5@1"]
        )
        assert code == 0
        assert "still crashed: 5" in out

    def test_unsafe_program_exits_nonzero(self, cycle_file):
        # coloring under loss produces an improper coloring somewhere in
        # the default sweep seeds; find one seed that trips the monitor
        outcomes = {}
        for seed in (1, 2, 3, 4):
            code, out = run_cli(
                ["faults", cycle_file, "--program", "coloring",
                 "--plan", f"drop=0.3,seed={seed}", "--max-rounds", "500"]
            )
            outcomes[seed] = (code, out)
        assert any(
            code == 1 and "output validity: VIOLATED" in out
            for code, out in outcomes.values()
        )

    def test_retries_flag_wraps_program(self, tree_file):
        code, out = run_cli(
            ["faults", tree_file, "--program", "echo",
             "--plan", "drop=0.3,seed=1", "--retries"]
        )
        assert code == 0
        assert "with retries" in out

    def test_bad_plan_aborts_cleanly(self, tree_file, capsys):
        code, out = run_cli(["faults", tree_file, "--plan", "drop=nope"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("repro faults: bad --plan spec")

    def test_sweep_classifies_all_stock_programs(self):
        code, out = run_cli(
            ["faults", "--sweep", "--drops", "0.15", "--max-rounds", "2000"]
        )
        assert code == 0
        for name in ("bfs", "leader", "echo", "gather", "luby", "coloring",
                     "linial"):
            assert name in out
        for classification in ("degraded-but-valid", "unsafe"):
            assert classification in out

    def test_sweep_json_schema(self):
        code, out = run_cli(
            ["faults", "--sweep", "--drops", "0.15", "--format", "json",
             "--max-rounds", "2000"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["retries"] is False
        assert payload["grid"]
        by_name = {p["program"]: p for p in payload["programs"]}
        assert set(by_name) == {
            "bfs", "leader", "echo", "gather", "gather-delta", "luby",
            "coloring", "linial",
        }
        for entry in by_name.values():
            assert entry["classification"] in (
                "self-healing", "degraded-but-valid", "unsafe"
            )
            for outcome in entry["outcomes"]:
                assert set(outcome) >= {
                    "plan", "complete", "valid", "matches_baseline", "rounds",
                }

    def test_sweep_with_retries_upgrades_leader_and_echo(self):
        code, out = run_cli(
            ["faults", "--sweep", "--drops", "0.15", "--retries",
             "--format", "json", "--max-rounds", "4000"]
        )
        assert code == 0
        by_name = {
            p["program"]: p["classification"]
            for p in json.loads(out)["programs"]
        }
        assert by_name["leader"] == "self-healing"
        assert by_name["echo"] == "self-healing"
        assert by_name["coloring"] == "unsafe"

    def test_stock_replays_a_chaos_spec(self):
        # the environment every `repro chaos` repro line refers to: the
        # stock sweep graph + seeded factory, no GRAPH file needed
        code, out = run_cli(
            ["faults", "--stock", "--program", "coloring",
             "--plan", "corrupt=7@8:color,seed=2", "--max-rounds", "500"]
        )
        assert code == 1
        assert "output validity: VIOLATED" in out

    @pytest.mark.parametrize("program", [name for name, *_ in stock_suite()])
    def test_stock_replay_runs_every_soaked_program(self, program):
        # `repro chaos` soaks the stock suite and prints a `repro faults
        # --stock --program NAME` replay line for each failure it finds
        code, out = run_cli(["faults", "--stock", "--program", program, "--plan", ""])
        assert code == 0
        assert "output validity: OK" in out

    def test_stock_checkpoint_recovery_flags(self):
        code, out = run_cli(
            ["faults", "--stock", "--program", "bfs",
             "--plan", "crash=3@1-3,seed=1", "--recovery", "checkpoint",
             "--checkpoint-every", "1", "--max-rounds", "500"]
        )
        assert code == 0
        assert "output validity: OK" in out

    def test_checkpoint_recovery_requires_cadence(self, tree_file, capsys):
        code, out = run_cli(["faults", tree_file, "--recovery", "checkpoint"])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("repro faults: ") and "checkpoint_every" in err
        assert err.count("\n") == 1


class TestChaosCommand:
    def test_quick_soak_text_output(self):
        code, out = run_cli(["chaos", "--trials", "3", "--quick"])
        assert code == 0
        assert "chaos soak: 3 trials over 3 programs" in out
        for name in ("bfs", "coloring", "luby"):
            assert name in out
        assert "failures:" in out and "reproduced:" in out

    def test_failures_print_a_replay_line(self):
        code, out = run_cli(
            ["chaos", "--trials", "6", "--quick", "--programs", "coloring"]
        )
        assert code == 0
        if "failures: 0" not in out:
            assert "replay: repro faults --stock --program coloring" in out
            assert "minimized (reproduces):" in out

    def test_json_payload_schema(self):
        code, out = run_cli(
            ["chaos", "--trials", "4", "--quick", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"summary", "trials"}
        assert payload["summary"]["trials"] == 4
        assert len(payload["trials"]) == 4
        for t in payload["trials"]:
            assert set(t) >= {"program", "trial", "plan", "kind", "minimized"}

    def test_soak_replays_bit_for_bit(self):
        runs = [
            run_cli(["chaos", "--trials", "5", "--quick", "--format", "json"])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_check_passes_when_failures_reproduce(self):
        code, out = run_cli(["chaos", "--trials", "6", "--quick", "--check"])
        assert code == 0
        assert "lack a reproducing minimized spec" not in out

    def test_no_minimize_skips_delta_debugging(self):
        code, out = run_cli(
            ["chaos", "--trials", "6", "--quick", "--no-minimize",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert all(t["minimized"] is None for t in payload["trials"])

    def test_unknown_program_aborts_cleanly(self, capsys):
        code, out = run_cli(["chaos", "--programs", "wibble"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            "repro chaos: unknown chaos programs: wibble"
        )

    def test_trials_must_be_positive(self, capsys):
        code, out = run_cli(["chaos", "--trials", "0"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "repro chaos: --trials must be >= 1, got 0\n"


REPO_ROOT = Path(__file__).resolve().parent.parent

#: (argv, stderr prefix): bad input at the CLI boundary; ``{graph}`` is a
#: 30-vertex tree file, ``{bad}`` one with a malformed edge line, ``{c4}``
#: a 4-cycle (not chordal)
CONTRACT = [
    (["color", "{missing}"], "repro color: "),
    (["info", "{bad}"], "repro info: "),
    (["color", "{bad}"], "repro color: "),
    (["trace", "{graph}", "--root", "999"], "repro trace: --root 999"),
    (["trace", "{graph}", "--program", "gather", "--radius", "-3"],
     "repro trace: --radius"),
    (["chaos", "--trials", "0"], "repro chaos: --trials"),
    (["trace", "{graph}", "--program", "linial"],
     "repro trace: LinialPathProgram requires maximum degree 2"),
    (["faults", "{graph}", "--program", "linial"],
     "repro faults: LinialPathProgram requires maximum degree 2"),
    (["faults", "--stock", "--program", "bfs", "--recovery", "checkpoint",
      "--checkpoint-every", "0"], "repro faults: checkpoint_every"),
    # the stock replay's instance fixes the root, the radius and the seed
    (["faults", "--stock", "--program", "gather", "--radius", "7", "--plan", ""],
     "repro faults: --radius cannot be combined with --stock"),
    (["faults", "--stock", "--program", "bfs", "--root", "5", "--plan", ""],
     "repro faults: --root cannot be combined with --stock"),
    (["faults", "--stock", "--program", "luby", "--seed", "9", "--plan", ""],
     "repro faults: --seed cannot be combined with --stock"),
    # the sweep runs the stock suite's own instances under its own grid
    (["faults", "--sweep", "--radius", "7", "--seed", "9", "--root", "3",
      "--plan", "drop=nope", "--program", "linial"],
     "repro faults: --plan/--program/--root/--radius/--seed cannot be "
     "combined with --sweep"),
    (["faults", "--sweep", "{graph}"],
     "repro faults: GRAPH cannot be combined with --sweep"),
    (["faults", "--sweep", "--program", "bfs"],
     "repro faults: --program cannot be combined with --sweep"),
    (["faults", "--sweep", "--root", "0"],
     "repro faults: --root cannot be combined with --sweep"),
    (["faults", "--sweep", "--plan", "drop=0.1"],
     "repro faults: --plan cannot be combined with --sweep"),
    (["faults", "--sweep", "--timeline", "--stock"],
     "repro faults: --timeline/--stock cannot be combined with --sweep"),
    (["faults", "--sweep", "--recovery", "intact"],
     "repro faults: --recovery cannot be combined with --sweep"),
    (["faults", "--sweep", "--checkpoint-every", "3"],
     "repro faults: --checkpoint-every cannot be combined with --sweep"),
    (["color", "{c4}"], "repro color: input graph is not chordal"),
    (["mis", "{c4}"], "repro mis: input graph is not chordal"),
    (["trace", "{graph}", "--faults", "wibble=1"],
     "repro trace: bad --faults spec"),
    (["faults", "{graph}", "--plan", "drop=nope"],
     "repro faults: bad --plan spec"),
    (["faults"], "repro faults: provide a GRAPH file"),
    (["chaos", "--programs", "wibble"], "repro chaos: unknown chaos programs"),
    (["report", "BOGUS"], "error: unknown experiment id(s): BOGUS"),
    (["run", "--ids", "BOGUS"], "error: unknown experiment id(s): BOGUS"),
]


@pytest.mark.parametrize(
    "argv,prefix", CONTRACT, ids=[" ".join(argv) for argv, _ in CONTRACT]
)
def test_bad_input_exits_2_with_one_stderr_line(argv, prefix, tree_file, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n1 2 3\n")
    c4 = tmp_path / "c4.edges"
    c4.write_text(to_edge_list(cycle_graph(4)))
    files = {"graph": tree_file, "bad": str(bad), "c4": str(c4),
             "missing": str(tmp_path / "missing.edges")}
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *(a.format(**files) for a in argv)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
