"""Timing + acceptance benchmark for the self-stabilization layer.

Produces ``BENCH_chaos.json``: wall-clocks for the chaos soak and the
S1 stabilization matrix, plus the acceptance facts CI asserts with
``--check``:

* every chaos-soak failure delta-debugs to a minimized spec that
  reproduces on replay (the actionability gate);
* the S1 classification of every (program, repaired, kind) cell matches
  the pinned table — repaired programs self-heal under a provably
  violating single-node flip, unrepaired ones are unsafe;
* crash-recover with a round-1 checkpoint cadence finishes in strictly
  fewer rounds than a round-0 restart (checkpoints actually save work).

Like ``bench_faults.py`` this is a standalone script, not a
pytest-benchmark module, because its artifact is the committed JSON:

    PYTHONPATH=src python benchmarks/bench_chaos.py                  # full run
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick --check  # CI smoke

``--quick`` shrinks the trial count and the recovery workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUT_PATH = REPO_ROOT / "BENCH_chaos.json"

#: the pinned S1 stabilization table (n=14, seed=0); a change here is a
#: deliberate repair-semantics change, not drift
EXPECTED_S1 = {
    ("coloring", False, "flip"): "unsafe",
    ("coloring", False, "scramble"): "self-healing",
    ("coloring", True, "flip"): "self-healing",
    ("coloring", True, "scramble"): "self-healing",
    ("mis", False, "flip"): "unsafe",
    ("mis", False, "scramble"): "unsafe",
    ("mis", True, "flip"): "self-healing",
    ("mis", True, "scramble"): "self-healing",
}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def bench_soak(rows: List[dict], quick: bool) -> Dict[str, Any]:
    """The seeded fuzz soak over the quick suite, repro-gated."""
    from repro.localmodel.chaos import chaos_soak
    from repro.localmodel.stock import QUICK_PROGRAMS, stock_suite

    trials = 25 if quick else 100
    suite = [e for e in stock_suite() if e[0] in QUICK_PROGRAMS]
    report, t = _timed(chaos_soak, suite, trials=trials, seed=0)
    rows.append({"stage": f"soak:{trials}-trials", "seconds": round(t, 6)})
    summary = report.summary()
    failures = report.failures()
    return {
        "programs": [e[0] for e in suite],
        "trials": summary["trials"],
        "failures": summary["failures"],
        "by_kind": summary["by_kind"],
        "by_program": summary["by_program"],
        "minimized": summary["minimized"],
        "reproduced": summary["reproduced"],
        "all_reproduce": all(f.reproduces for f in failures),
        "seconds": round(t, 6),
    }


def bench_stabilization(rows: List[dict]) -> Dict[str, Any]:
    """The S1 matrix: one violating corruption per (program, repaired, kind)."""
    from repro.runner.cells import s1_cell

    cells: Dict[str, str] = {}
    drift = []
    total = 0.0
    for (program, repaired, kind), expected in EXPECTED_S1.items():
        payload, t = _timed(
            s1_cell, program=program, repaired=repaired, kind=kind, n=14, seed=0
        )
        total += t
        key = f"{program}:{'repaired' if repaired else 'plain'}:{kind}"
        cells[key] = payload["classification"]
        if payload["classification"] != expected:
            drift.append(
                f"{key}: {payload['classification']}, pinned {expected}"
            )
    rows.append({"stage": "stabilization:matrix", "seconds": round(total, 6)})
    return {
        "cells": cells,
        "table_matches": not drift,
        "drift": drift,
        "total_seconds": round(total, 6),
    }


def counter_factory(target):
    """Pure internal progress: checkpoint savings are directly visible.

    Message-driven programs rebuild lost state from their neighbors, so
    a restart costs them little; a counter makes the rework explicit —
    a restarted node repeats every counted round, a checkpointed one
    repeats only the rounds since its last snapshot.
    """
    from repro.localmodel import NodeProgram

    class Counter(NodeProgram):
        always_active = True

        def __init__(self, node, neighbors):
            super().__init__(node, neighbors)
            self.count = 0

        def step(self, ctx):
            self.count += 1
            if self.count >= target:
                self.output = self.count
                self.done = True
            return {}

    return lambda v, nbrs: Counter(v, nbrs)


def bench_recovery(rows: List[dict], quick: bool) -> Dict[str, Any]:
    """Checkpointed crash-recover versus a round-0 restart."""
    from repro.graphs import path_graph
    from repro.localmodel import FaultPlan, SyncNetwork

    target = 12 if quick else 60
    crash_at = target // 3
    graph = path_graph(5)
    plan = FaultPlan.parse(f"crash=1@{crash_at}-{crash_at + 2}")
    results: Dict[str, int] = {}
    for mode, cadence in (("restart", None), ("checkpoint", 1)):
        def run():
            net = SyncNetwork(
                graph,
                counter_factory(target),
                faults=plan,
                recovery=mode,
                checkpoint_every=cadence,
            )
            net.run(max_rounds=20 * target)
            return net.stats.rounds

        rounds, t = _timed(run)
        results[mode] = rounds
        rows.append({"stage": f"recovery:{mode}", "seconds": round(t, 6)})
    return {
        "workload": f"counter target {target} on P_5, crash {plan.spec()}",
        "restart_rounds": results["restart"],
        "checkpoint_rounds": results["checkpoint"],
        "checkpoint_beats_restart": results["checkpoint"] < results["restart"],
    }


def run(quick: bool) -> dict:
    rows: List[dict] = []
    soak = bench_soak(rows, quick)
    stabilization = bench_stabilization(rows)
    recovery = bench_recovery(rows, quick)
    for row in rows:
        print(f"  {row['stage']:<28} {row['seconds']:.4f}s")
    return {
        "benchmark": "repro.localmodel.stabilize+chaos",
        "quick": quick,
        "rows": rows,
        "soak": soak,
        "stabilization": stabilization,
        "recovery": recovery,
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
        soak = payload["soak"]
        if not soak["all_reproduce"]:
            unreproduced = soak["failures"] - soak["reproduced"]
            problems.append(
                f"{unreproduced} soak failure(s) lack a reproducing "
                "minimized spec"
            )
        stabilization = payload["stabilization"]
        if not stabilization["table_matches"]:
            problems.append(
                "S1 classification drifted from the pinned table: "
                + "; ".join(stabilization["drift"])
            )
        recovery = payload["recovery"]
        if not recovery["checkpoint_beats_restart"]:
            problems.append(
                f"checkpointed recovery ({recovery['checkpoint_rounds']} "
                f"rounds) does not beat restart "
                f"({recovery['restart_rounds']} rounds)"
            )
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        print(
            "check passed: soak failures reproduce, S1 table pinned, "
            "checkpoints beat restarts"
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
