"""Parent process of the pipeline benchmark: passes, medians, gate.

Two ways to run it, both from the repository root:

* one workload for a fixed time, printing one JSON result line::

      python3 benchmarks/pipeline/run.py --workload color-ktree \\
          --seed 3 --seconds 30 --trace 0

* every workload, passes interleaved, plus one traced pass each::

      python3 -m benchmarks.pipeline [--quick] [--out FILE] [--check]
      python3 -m benchmarks.pipeline --compare A.json B.json
      python3 -m benchmarks.pipeline --record A.json B.json

Every pass is a fresh ``python`` child (:mod:`.child`), one at a time.
The parent builds the instance from the seed, writes it as an edge list
under ``.pipeline-bench/`` in the repository root, and hands the child
only that file, the workload name and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
WORK_DIR = ROOT / ".pipeline-bench"

#: a pass that runs longer than this is killed and counted as failed
PASS_TIMEOUT_S = 40.0
#: fewest untraced passes a timed run makes while within ``--seconds``
MIN_PASSES = 3
#: untraced passes per workload in a full run
FULL_PASSES = 7

#: the end-to-end metrics a timed run prints with ``--trace 0``, and units
END_TO_END = {"wall_s": "s", "vertices_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
#: metrics that must match exactly in ``--check`` and ``--compare``
EXACT = ("rounds", "approx_ratio", "failed_frac")
#: a set-up regression smaller than this many seconds is noise
SETUP_FLOOR_S = 0.02


def machine() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_child(name: str, graph_file: Path, seed: int, traced: bool) -> Dict[str, Any]:
    """One pass in a fresh interpreter; failures come back as ``ok: False``."""
    cmd = [sys.executable, "-m", "benchmarks.pipeline.child", name, str(graph_file), str(seed)]
    if traced:
        cmd.append("--trace")
    # fixed string hashing, so any set order repeats from pass to pass
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"workload": name, "ok": False, "error": f"timed out after {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": name, "ok": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def summarize(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the passes that succeeded, plus the failure count."""
    good = [p for p in passes if p["ok"]]
    summary: Dict[str, Any] = {
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "samples": len(good),
        "errors": [p["error"] for p in passes if not p["ok"]],
    }
    if good:
        wall = statistics.median(p["wall_s"] for p in good)
        summary["metrics"] = {
            "wall_s": wall,
            "vertices_per_s": good[0]["n"] / wall,
            "setup_s": statistics.median(p["setup_s"] for p in good),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
            "rounds": good[0]["rounds"],
            "approx_ratio": good[0]["approx_ratio"],
            "failed_frac": summary["failed"] / len(passes),
        }
    return summary


def traced_metrics(traced: Dict[str, Any], untraced_wall: float) -> Dict[str, float]:
    spans = dict(traced.get("spans", {}))
    if traced["ok"]:
        spans["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    return spans


def write_instance(directory: str, name: str, seed: int, quick: bool) -> Path:
    """Draw the workload's instance for ``seed`` and write it as an edge list."""
    from repro.graphs.io import to_edge_list

    from .workloads import WORKLOADS

    workload = WORKLOADS[name]
    graph = workload.instance(workload.quick_n if quick else workload.n, seed)
    path = Path(directory) / f"{name}-{seed}.edges"
    path.write_text(to_edge_list(graph))
    return path


def timed_run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Passes of one workload for about ``seconds``; one JSON result object."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        graph_file = write_instance(tmp, name, seed, quick=False)
        passes: List[Dict[str, Any]] = []
        start = time.monotonic()
        while True:
            passes.append(run_child(name, graph_file, seed, traced=False))
            print(f"{name} pass {len(passes)}: {describe(passes[-1])}", file=sys.stderr)
            elapsed = time.monotonic() - start
            # the traced pass, when asked for, is one more pass in the budget
            planned = len(passes) + 1 + int(trace)
            if elapsed >= seconds or (
                len(passes) >= MIN_PASSES and elapsed / len(passes) * planned > seconds
            ):
                break
        traced = None
        if trace:
            traced = run_child(name, graph_file, seed, traced=True)
            print(f"{name} traced: {describe(traced)}", file=sys.stderr)
    summary = summarize(passes)
    attempted = summary["attempted"] + (traced is not None)
    failed = summary["failed"] + (traced is not None and not traced["ok"])
    result: Dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    if "metrics" in summary:
        if traced is None:
            result["metrics"] = {
                key: {"value": summary["metrics"][key], "unit": unit}
                for key, unit in END_TO_END.items()
            }
        else:
            spans = traced_metrics(traced, summary["metrics"]["wall_s"])
            result["metrics"] = {
                key: {"value": value, "unit": unit_of(key)} for key, value in spans.items()
            }
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_frac") or metric.endswith("per_vertex"):
        return "ratio"
    return "count"


def full_run(seed: int, quick: bool) -> Dict[str, Any]:
    """Every workload, interleaved passes, then one traced pass each."""
    from .workloads import WORKLOADS

    names = list(WORKLOADS)
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        files = {name: write_instance(tmp, name, seed, quick) for name in names}
        # Rotate through the workloads, alternating direction, so a slow
        # spell of the machine spreads over all of them.
        for i in range(1 if quick else FULL_PASSES):
            for name in names if i % 2 == 0 else reversed(names):
                result = run_child(name, files[name], seed, traced=False)
                passes[name].append(result)
                print(f"{name} pass {i + 1}: {describe(result)}", file=sys.stderr)
        for name in names:
            traced[name] = run_child(name, files[name], seed, traced=True)
            print(f"{name} traced: {describe(traced[name])}", file=sys.stderr)
    report: Dict[str, Any] = {"machine": machine(), "seed": seed, "quick": quick, "workloads": {}}
    for name in names:
        entry = summarize(passes[name])
        entry["n"] = WORKLOADS[name].quick_n if quick else WORKLOADS[name].n
        entry["passes"] = [{k: v for k, v in p.items() if k != "spans"} for p in passes[name]]
        entry["traced_ok"] = traced[name]["ok"]
        if not traced[name]["ok"]:
            entry["errors"].append(traced[name]["error"])
        if "metrics" in entry:
            entry["spans"] = traced_metrics(traced[name], entry["metrics"]["wall_s"])
        report["workloads"][name] = entry
    return report


def describe(result: Dict[str, Any]) -> str:
    if not result["ok"]:
        return "FAILED: " + result["error"].strip()
    return f"wall {result['wall_s']:.3f} s, setup {result['setup_s'] * 1e3:.2f} ms"


def bounds() -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics and their bounds, as ``BENCHMARK.json`` fixes them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def compare(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Every (workload, metric) pair where ``new`` is out of bounds of ``old``."""
    limits = bounds()
    problems = []
    for name, before in old["workloads"].items():
        after = new["workloads"].get(name)
        if after is None or "metrics" not in after:
            problems.append(f"{name}: no result in the new run")
            continue
        if after["failed"] or not after.get("traced_ok", True):
            problems.append(f"{name}: failed passes: {after['errors']}")
        a, b = before["metrics"], after["metrics"]
        for metric, spec in limits.items():
            if metric == "setup_s" and b[metric] - a[metric] <= SETUP_FLOOR_S:
                continue
            change = b[metric] / a[metric] - 1.0
            worse = change if spec["better"] == "lower" else -change
            if worse > spec["bound"]:
                problems.append(
                    f"{name}: {metric} {a[metric]:.6g} -> {b[metric]:.6g} "
                    f"({change:+.1%}) is worse than the {spec['bound']:.0%} bound"
                )
        for metric in EXACT:
            if a[metric] != b[metric]:
                problems.append(f"{name}: {metric} {a[metric]} -> {b[metric]} must not change")
    return problems


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def print_report(report: Dict[str, Any]) -> None:
    print(f"machine: {report['machine']}")
    for name, entry in report["workloads"].items():
        metrics = entry.get("metrics", {})
        shown = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in metrics.items())
        print(f"{name} (n={entry['n']}, {entry['samples']} samples): {shown}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.pipeline",
        description="End-to-end and per-layer benchmark of the coloring/MIS pipeline.",
    )
    parser.add_argument("--workload", help="time one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0, help="instance seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="with --workload: how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny instances, one pass each plus the traced pass")
    parser.add_argument("--out", help="write the full report to this JSON file")
    parser.add_argument("--check", action="store_true",
                        help="fail when a metric is out of bounds of baseline.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two saved reports and exit")
    parser.add_argument("--record", nargs=2, metavar=("FIRST", "SECOND"),
                        help="write baseline.json from two saved full runs")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from .workloads import WORKLOADS

    if args.compare or args.record:
        first, second = map(load, args.compare or args.record)
        problems = compare(first, second)
        for problem in problems:
            print(problem, file=sys.stderr)
        if args.record:
            if first["quick"] or second["quick"]:
                print("a baseline is recorded from full runs, not --quick", file=sys.stderr)
                return 2
            BASELINE.write_text(json.dumps(
                {"machine": first["machine"], "sets": [first, second], "disagreements": problems},
                indent=1, sort_keys=True) + "\n")
            print(f"wrote {BASELINE}", file=sys.stderr)
        return 1 if problems else 0

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        result = timed_run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    report = full_run(args.seed, args.quick)
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    failed = any(e["failed"] or not e["traced_ok"] for e in report["workloads"].values())
    status = 1 if failed else 0
    if args.check:
        baseline = load(str(BASELINE))["sets"][0]
        if baseline["quick"] != args.quick or baseline["seed"] != args.seed:
            print("baseline.json was recorded with other settings", file=sys.stderr)
            return 2
        problems = compare(baseline, report)
        for problem in problems:
            print(f"REGRESSION {problem}", file=sys.stderr)
        status = status or (1 if problems else 0)
    return status
