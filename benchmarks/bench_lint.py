"""Timing + acceptance benchmark for the conformance/bandwidth toolchain.

Produces ``BENCH_lint.json``: wall-clocks for every stage of the
``repro.lint`` pipeline (module loading, the L1-L6 AST pass, the L7-L9
dataflow/bandwidth pass, the shadow-execution sanitize suite) plus the
meter's runtime overhead, and the acceptance facts CI asserts with
``--check``:

* the repro package lints clean (no active findings);
* every stock program's certificate matches the pinned class table;
* the shadow suite passes every stock program and still catches the
  planted order-dependent fixture;
* metering a run costs less than a fixed multiple of the bare run;
* the committed ``BENCH_lint.json`` describes this tree: its
  ``static.modules`` equals the live scan's module count.

Like ``bench_kernels.py`` this is a standalone script, not a
pytest-benchmark module, because its artifact is the committed JSON:

    PYTHONPATH=src python benchmarks/bench_lint.py                  # full run
    PYTHONPATH=src python benchmarks/bench_lint.py --quick --check  # CI smoke

``--quick`` shrinks the shadow suite to one seed and skips the repeated
timing passes.  The JSON records the machine's CPU count and the Python
version, so runs from different machines are not compared as if they
were one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUT_PATH = REPO_ROOT / "BENCH_lint.json"
FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures" / "bandwidth_programs.py"

#: the pinned certificate table (program -> (class, horizon)); a change
#: here is a deliberate certifier change, not drift
EXPECTED_CLASSES = {
    "BFSLayerProgram": ("const", None),
    "LeaderElectionProgram": ("const", None),
    "EchoCountProgram": ("const", None),
    "BallGatherProgram": ("ball", "radius"),
    "LinialPathProgram": ("const", None),
    "LubyMISProgram": ("const", None),
    "RandomizedColoringProgram": ("const", None),
}

#: how to regenerate the committed file when it no longer describes the tree
REGENERATE = "PYTHONPATH=src python benchmarks/bench_lint.py"

#: metering must cost less than this per message (the sink serializes
#: every payload, so the bound is absolute per-message, not a ratio
#: against the near-zero cost of a bare tiny-payload run)
METER_COST_LIMIT_US = 500.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def bench_static(rows: List[dict]) -> Dict[str, Any]:
    from repro.lint import (
        active_findings,
        analyze_modules,
        certificates_for_modules,
        load_modules,
    )

    package = REPO_ROOT / "src" / "repro"
    modules, t_load = _timed(load_modules, [package])
    rows.append({"stage": "load_modules", "seconds": round(t_load, 6)})

    findings, t_analyze = _timed(analyze_modules, modules)
    rows.append({"stage": "analyze_modules(L1-L9)", "seconds": round(t_analyze, 6)})

    certs, t_certs = _timed(certificates_for_modules, modules)
    rows.append({"stage": "certificates", "seconds": round(t_certs, 6)})

    cert_map = {c.program: (c.message_class, c.horizon) for c in certs}
    fixture_certs = {
        c.program: c.message_class
        for c in certificates_for_modules(load_modules([FIXTURES]))
    }
    return {
        "modules": len(modules),
        "findings": len(findings),
        "active_findings": len(active_findings(findings)),
        "certificates": len(certs),
        "certificate_table_matches": all(
            cert_map.get(prog) == expected
            for prog, expected in EXPECTED_CLASSES.items()
        ),
        "planted_fixture_is_unbounded": (
            fixture_certs.get("EndlessFloodProgram") == "unbounded"
        ),
    }


def bench_sanitize(rows: List[dict], quick: bool) -> Dict[str, Any]:
    from repro.graphs import cycle_graph
    from repro.localmodel import shadow_check
    from repro.localmodel.stock import stock_suite

    seeds = (1,) if quick else (1, 2, 3)
    failures = []
    total = 0.0
    suite = stock_suite()
    for name, graph, factory, _validator in suite:
        report, t = _timed(shadow_check, graph, factory, seeds=seeds)
        rows.append({"stage": f"shadow:{name}", "seconds": round(t, 6)})
        total += t
        if not report.deterministic:
            failures.append(name)

    # the planted fixture must still be caught
    sys.path.insert(0, str(FIXTURES.parent))
    try:
        from bandwidth_programs import GossipOrderProgram
    finally:
        sys.path.pop(0)
    planted, t = _timed(shadow_check, cycle_graph(8), GossipOrderProgram, seeds=seeds)
    rows.append({"stage": "shadow:planted-fixture", "seconds": round(t, 6)})
    return {
        "programs": len(suite),
        "seeds": list(seeds),
        "false_positives": failures,
        "planted_fixture_caught": not planted.deterministic,
        "total_seconds": round(total, 6),
    }


def bench_meter(rows: List[dict], quick: bool) -> Dict[str, Any]:
    from repro.graphs import cycle_graph
    from repro.localmodel import BallGatherProgram, MessageMeter, SyncNetwork

    n = 32 if quick else 128
    radius = 4
    factory = lambda v, nbrs: BallGatherProgram(v, nbrs, radius, ("s", v))

    def bare():
        return SyncNetwork(cycle_graph(n), factory).run()

    def metered():
        meter = MessageMeter()
        SyncNetwork(cycle_graph(n), factory, sinks=[meter]).run()
        return meter

    bare(), metered()  # warm up
    _, t_bare = _timed(bare)
    meter, t_metered = _timed(metered)
    rows.append({"stage": "run:bare", "seconds": round(t_bare, 6)})
    rows.append({"stage": "run:metered", "seconds": round(t_metered, 6)})
    messages = sum(r["messages"] for r in meter.per_round)
    cost_us = (
        (t_metered - t_bare) / messages * 1e6 if messages else None
    )
    return {
        "n": n,
        "radius": radius,
        "messages": messages,
        "max_payload_words": meter.max_payload_words,
        "meter_cost_us_per_message": (
            round(cost_us, 2) if cost_us is not None else None
        ),
    }


def run(quick: bool) -> dict:
    rows: List[dict] = []
    static = bench_static(rows)
    sanitize = bench_sanitize(rows, quick)
    meter = bench_meter(rows, quick)
    for row in rows:
        print(f"  {row['stage']:<28} {row['seconds']:.4f}s")
    return {
        "benchmark": "repro.lint",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
        "static": static,
        "sanitize": sanitize,
        "meter": meter,
    }


def committed_module_problem(scanned: int, path: Path = OUT_PATH) -> Optional[str]:
    """Why the committed file at ``path`` does not describe a tree of
    ``scanned`` modules, or None when its ``static.modules`` matches."""
    try:
        committed = json.loads(path.read_text())["static"]["modules"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path.name} is unreadable ({exc!r}); regenerate it with `{REGENERATE}`"
    if committed != scanned:
        return (
            f"{path.name} records {committed} modules but the live scan found "
            f"{scanned}; regenerate it with `{REGENERATE}`"
        )
    return None


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
        static = payload["static"]
        if static["active_findings"]:
            problems.append(
                f"{static['active_findings']} active finding(s) in the package"
            )
        if not static["certificate_table_matches"]:
            problems.append("certificate table drifted from the pinned classes")
        if not static["planted_fixture_is_unbounded"]:
            problems.append("EndlessFloodProgram no longer certifies unbounded")
        stale = committed_module_problem(static["modules"])
        if stale is not None:
            problems.append(stale)
        sanitize = payload["sanitize"]
        if sanitize["false_positives"]:
            problems.append(
                "shadow suite flagged stock programs: "
                + ", ".join(sanitize["false_positives"])
            )
        if not sanitize["planted_fixture_caught"]:
            problems.append("shadow suite missed the planted fixture")
        cost = payload["meter"]["meter_cost_us_per_message"]
        if cost is not None and cost > METER_COST_LIMIT_US:
            problems.append(
                f"metering costs {cost}us/message, over {METER_COST_LIMIT_US}us"
            )
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        print("check passed: package clean, certificates pinned, "
              "shadow suite sound, meter overhead bounded")

    out = args.out
    if out is None and not args.quick:
        out = OUT_PATH
    if out is not None:
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
