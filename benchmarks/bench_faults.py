"""Timing + acceptance benchmark for the fault-injection layer.

Produces ``BENCH_faults.json``: the injection overhead of an *empty*
:class:`~repro.localmodel.faults.FaultPlan` on the quiet-convergecast
scheduler path (the workload the active-set scheduler optimizes, so any
per-delivery cost shows immediately), wall-clocks for the resilience
sweep, and the acceptance facts CI asserts with ``--check``:

* an empty plan is behavior-preserving: identical outputs and
  :class:`~repro.localmodel.network.RunStats` versus ``faults=None``;
* empty-plan injection overhead stays under 10% (median over repeats)
  on the quiet-convergecast workload;
* the resilience classification of every stock program matches the
  pinned table, with and without the retry/ack envelope.

Like ``bench_lint.py`` this is a standalone script, not a
pytest-benchmark module, because its artifact is the committed JSON:

    PYTHONPATH=src python benchmarks/bench_faults.py                  # full run
    PYTHONPATH=src python benchmarks/bench_faults.py --quick --check  # CI smoke

``--quick`` shrinks the convergecast path and the repeat count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUT_PATH = REPO_ROOT / "BENCH_faults.json"

#: empty-plan injection overhead budget on the quiet-convergecast path
OVERHEAD_LIMIT = 0.10
#: absolute slack for timer noise on very fast runs (seconds)
OVERHEAD_ABS_SLACK = 0.003

#: the pinned classification table under the default fault grid; a
#: change here is a deliberate resilience change, not drift
EXPECTED_CLASSES = {
    False: {  # bare programs
        "bfs": "degraded-but-valid",
        "leader": "degraded-but-valid",
        "echo": "degraded-but-valid",
        "gather": "degraded-but-valid",
        "gather-delta": "degraded-but-valid",
        "luby": "unsafe",
        "coloring": "unsafe",
        "linial": "unsafe",
    },
    True: {  # wrapped in the ReliableProgram retry/ack envelope
        "bfs": "degraded-but-valid",
        "leader": "self-healing",
        "echo": "self-healing",
        "gather": "degraded-but-valid",
        "gather-delta": "degraded-but-valid",
        "luby": "unsafe",
        "coloring": "unsafe",
        "linial": "unsafe",
    },
}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def bench_overhead(rows: List[dict], quick: bool) -> Dict[str, Any]:
    """Empty-plan delivery-hook cost on the quiet convergecast."""
    from repro.graphs import path_graph
    from repro.localmodel import EchoCountProgram, FaultPlan, SyncNetwork

    n = 800 if quick else 4000
    repeats = 3 if quick else 7
    graph = path_graph(n)
    factory = lambda v, nbrs: EchoCountProgram(v, nbrs, 0)

    def bare():
        net = SyncNetwork(graph, factory)
        return net.run(max_rounds=2 * n), net.stats

    def injected():
        net = SyncNetwork(graph, factory, faults=FaultPlan())
        return net.run(max_rounds=2 * n), net.stats

    (bare_out, bare_stats), _ = _timed(bare)  # warm up + reference
    (inj_out, inj_stats), _ = _timed(injected)
    bare_times = []
    injected_times = []
    for _ in range(repeats):
        _, t = _timed(bare)
        bare_times.append(t)
        _, t = _timed(injected)
        injected_times.append(t)
    t_bare = statistics.median(bare_times)
    t_injected = statistics.median(injected_times)
    rows.append({"stage": "convergecast:bare", "seconds": round(t_bare, 6)})
    rows.append({"stage": "convergecast:empty-plan", "seconds": round(t_injected, 6)})
    return {
        "workload": f"echo convergecast on P_{n} (active scheduler)",
        "n": n,
        "repeats": repeats,
        "rounds": bare_stats.rounds,
        "bare_seconds": round(t_bare, 6),
        "injected_seconds": round(t_injected, 6),
        "overhead_ratio": round(t_injected / t_bare - 1.0, 4) if t_bare else None,
        "overhead_abs_seconds": round(t_injected - t_bare, 6),
        "outputs_identical": bare_out == inj_out,
        "stats_identical": bare_stats == inj_stats,
    }


def bench_sweep(rows: List[dict]) -> Dict[str, Any]:
    """The resilience classification of every stock program, both modes."""
    from repro.localmodel import resilience_check, with_retries
    from repro.localmodel.stock import stock_suite

    classifications: Dict[str, Dict[str, str]] = {"bare": {}, "retries": {}}
    drift = []
    total = 0.0
    for retry in (False, True):
        mode = "retries" if retry else "bare"
        for name, graph, factory, validator in stock_suite():
            if retry:
                factory = with_retries(factory)
            report, t = _timed(resilience_check, graph, factory, validator)
            rows.append(
                {"stage": f"sweep:{mode}:{name}", "seconds": round(t, 6)}
            )
            total += t
            classifications[mode][name] = report.classification
            if report.classification != EXPECTED_CLASSES[retry][name]:
                drift.append(
                    f"{name} ({mode}): {report.classification}, pinned "
                    f"{EXPECTED_CLASSES[retry][name]}"
                )
    return {
        "classifications": classifications,
        "classification_table_matches": not drift,
        "drift": drift,
        "total_seconds": round(total, 6),
    }


def run(quick: bool) -> dict:
    rows: List[dict] = []
    overhead = bench_overhead(rows, quick)
    sweep = bench_sweep(rows)
    for row in rows:
        print(f"  {row['stage']:<28} {row['seconds']:.4f}s")
    return {
        "benchmark": "repro.localmodel.faults",
        "quick": quick,
        "rows": rows,
        "overhead": overhead,
        "sweep": sweep,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless every acceptance fact above holds",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON output path")
    args = parser.parse_args(argv)

    payload = run(quick=args.quick)

    if args.check:
        problems = []
        overhead = payload["overhead"]
        if not overhead["outputs_identical"]:
            problems.append("empty plan changed the convergecast outputs")
        if not overhead["stats_identical"]:
            problems.append("empty plan changed the RunStats")
        ratio = overhead["overhead_ratio"]
        if (
            ratio is not None
            and ratio > OVERHEAD_LIMIT
            and overhead["overhead_abs_seconds"] > OVERHEAD_ABS_SLACK
        ):
            problems.append(
                f"empty-plan overhead {ratio:.1%} exceeds {OVERHEAD_LIMIT:.0%}"
            )
        sweep = payload["sweep"]
        if not sweep["classification_table_matches"]:
            problems.append(
                "classification drifted from the pinned table: "
                + "; ".join(sweep["drift"])
            )
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        print(
            "check passed: empty plan behavior-preserving, overhead "
            "bounded, classifications pinned"
        )

    out = args.out
    if out is None and not args.quick:
        out = OUT_PATH
    if out is not None:
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
