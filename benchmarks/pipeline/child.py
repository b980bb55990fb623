"""One benchmark pass, run in a fresh interpreter.

Usage (the parent harness starts it; ``src`` must be on ``PYTHONPATH``)::

    python -m benchmarks.pipeline.child WORKLOAD GRAPH_FILE SEED [--trace]

The pass warms up on a tiny instance so lazy imports are loaded, times
set-up (parse the edge list, build the graph index) several times,
times the entry point once, reads its peak RSS, and then checks the
output untimed.  With ``--trace`` it sets up once and wraps the
pipeline's functions in spans for the set-up and the entry point.  The
last line of standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List

from repro.graphs import index, io

from .spans import Tracer
from .workloads import WORKLOADS, CheckFailed

#: set-up repeats until it has run this long (and at least MIN times)
SETUP_BUDGET_S = 0.2
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25

WARMUP_N = 30

#: a traced pass fails when more of its time than this is in no span
MAX_LEFTOVER_FRAC = 0.10


def peak_rss_mb() -> float:
    """This process's high-water RSS in MB (Linux).

    ``VmHWM`` belongs to the address space made at exec.  ``ru_maxrss``
    would not do: Linux carries it over from the forked parent, so every
    child of a large parent reported the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _setup(text: str):
    graph = io.from_edge_list(text)
    index.graph_index(graph)
    return graph


def _enough(setup_times: List[float]) -> bool:
    return len(setup_times) >= SETUP_MAX_REPS or (
        len(setup_times) >= SETUP_MIN_REPS and sum(setup_times) >= SETUP_BUDGET_S
    )


def run_pass(name: str, text: str, seed: int, traced: bool) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    workload.run(workload.instance(WARMUP_N, seed))

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        setup_times: List[float] = []
        while not setup_times or not (traced or _enough(setup_times)):
            t0 = perf_counter()
            graph = _setup(text)
            setup_times.append(perf_counter() - t0)
        gc.collect()
        t0 = perf_counter()
        output, rounds = workload.run(graph)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()

    result: Dict[str, Any] = {
        "workload": name,
        "n": len(graph),
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "setup_reps": len(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "rounds": rounds,
    }
    try:
        result["approx_ratio"] = workload.check(graph, output)
    except CheckFailed as exc:
        return {**result, "ok": False, "error": f"check failed: {exc}"}
    if tracer is not None:
        # the traced region: one set-up and the entry point
        spans = result["spans"] = tracer.metrics(len(graph), setup_times[0] + wall)
        # A moved call site must not quietly report its layer as free.
        silent = [s for s in workload.spans if spans[f"{s}.calls"] == 0]
        if silent:
            return {**result, "ok": False, "error": f"spans never called: {silent}"}
        if spans["trace.leftover_frac"] > MAX_LEFTOVER_FRAC:
            return {**result, "ok": False, "error": "untraced time "
                    f"{spans['trace.leftover_frac']:.3f} > {MAX_LEFTOVER_FRAC}"}
    return {**result, "ok": True}


def main(argv: List[str]) -> int:
    traced = "--trace" in argv
    name, path, seed = [a for a in argv if a != "--trace"]
    with open(path) as fh:
        text = fh.read()
    try:
        result = run_pass(name, text, int(seed), traced)
    except Exception:  # a crashing pass is reported, not fatal to the run
        result = {"workload": name, "ok": False, "error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
