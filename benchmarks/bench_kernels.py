"""Legacy vs kernel benchmark for the CSR chordal kernels.

Produces ``BENCH_kernels.json``: for every (family, n, operation) cell the
legacy implementation and the kernel dispatch are both run, their outputs
asserted identical, and both wall-clocks recorded.  Three comparators
appear for LexBFS:

* ``seed``      -- the pre-kernel implementation this PR replaced
                   (``head.pop(0)`` plus a full rescan of every block per
                   visited vertex, i.e. O(n^2); reproduced verbatim below
                   as the baseline),
* ``reference`` -- the label-space implementation kept as a test
                   oracle in ``tests/oracles.py`` (itself repaired to
                   near-linear, so it understates the win),
* the kernel dispatch through the public API.

The ``clique_forest`` rows time :func:`repro.graphs.kernels.clique_forest_from_peo`
against the reference pair it replaced: maximal cliques, then every edge of
W_G (``tests.oracles.clique_intersection_edges``) and Kruskal over all of
them (``tests.oracles.maximum_weight_spanning_forest_ids``).  Both forests
are asserted identical before the row is written.

The ``induced_subgraph`` rows time :meth:`repro.graphs.adjacency.Graph.induced_subgraph`
(one set intersection per kept vertex) against
``tests.oracles.induced_subgraph_by_edges``, the vertex-by-vertex and
edge-by-edge builder it replaced, on a seeded random half of the
vertices.  Both subgraphs are asserted equal before the row is written.

The ``peeling`` rows time :func:`repro.coloring.prune.peel_chordal_graph`,
the one peeling loop (T_1 walked by clique position, internal paths
decided inside G[V_P]), against ``tests.oracles.reference_peeling``, the
loop it replaced (a forest rebuilt and the graph shrunk every iteration,
diameters searched in the current graph).  Both ``Peeling`` outputs are
asserted equal before the row is written.  The large-n rows time the one
loop alone, on every family.  In all three kinds of row the two sides are
timed in turns, each after a full collection, and each side's best of
three runs counts; a row where either side's best is under 50 ms takes
the best of 15 instead, since three turns of a few milliseconds leave
timer noise room to show a sub-1x row.

Unlike the rest of ``benchmarks/`` this is a standalone script, not a
pytest-benchmark module, because its artifact is the committed JSON:

    PYTHONPATH=src python benchmarks/bench_kernels.py                  # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check  # CI smoke

``--quick`` shrinks the sweep to one medium size per family; ``--check``
exits nonzero unless every output pair matched, the kernel's total
wall-clock (index build included) beat the legacy total, every
``clique_forest`` row's builder beat its reference pair, every
``induced_subgraph`` row beat the edge-by-edge builder, and every
``peeling`` row's loop beat the oracle.  The JSON records the machine's
CPU count and the Python version.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.graphs import chordal, kernels
from repro.graphs.adjacency import Graph
from repro.graphs.generators import path_graph, random_k_tree, unit_interval_chain
from repro.graphs.index import GraphIndex, graph_index
from tests import oracles

OUT_PATH = ROOT / "BENCH_kernels.json"

#: sizes where legacy and kernel are both run and compared
COMPARE_NS = (1000, 3000, 10000)
#: sizes where only the kernel can finish in reasonable time
KERNEL_ONLY_NS = (30000, 100000)
#: the seed implementation is O(n^2); cap how far it is dragged along
SEED_LEXBFS_MAX_N = 10000
#: peeling compared against the reference loop at these sizes
PEEL_COMPARE_NS = (300, 1000)
PEEL_THRESHOLD = 6
PEEL_LARGE_THRESHOLD = 12

FAMILIES: Dict[str, Callable[[int], Graph]] = {
    "ktree3": lambda n: random_k_tree(n, 3, seed=0),
    "interval": lambda n: unit_interval_chain(n, seed=0),
    "path": path_graph,
}

#: timed runs per side of a ``clique_forest``, ``induced_subgraph`` or
#: ``peeling`` row (the best one counts) ...
BEST_OF = 3
#: ... and of a row where either side's best is under SHORT_SECONDS
BEST_OF_SHORT = 15
SHORT_SECONDS = 0.05


def seed_lex_bfs(graph: Graph) -> List:
    """The pre-kernel ``lex_bfs`` body, verbatim, as the seed baseline."""
    if len(graph) == 0:
        return []
    verts = graph.vertices()
    blocks: List[List] = [list(verts)]
    order: List = []
    while blocks:
        head = blocks[0]
        v = head.pop(0)
        if not head:
            blocks.pop(0)
        order.append(v)
        nbrs = graph.neighbors(v)
        new_blocks: List[List] = []
        for block in blocks:
            inside = [u for u in block if u in nbrs]
            outside = [u for u in block if u not in nbrs]
            if inside:
                new_blocks.append(inside)
            if outside:
                new_blocks.append(outside)
        blocks = new_blocks
    return order


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _best_in_turns(*calls: Callable[[], object]) -> List[float]:
    """Best seconds of each call, run in turns, each after a full collection.

    Taking turns gives both sides the same machine state, and collecting
    first keeps one side's garbage out of the other's timing.  The turns
    stop after :data:`BEST_OF`, or after :data:`BEST_OF_SHORT` while a
    side's best is under :data:`SHORT_SECONDS`.
    """
    best = [float("inf")] * len(calls)
    turns = 0
    while turns < BEST_OF or (turns < BEST_OF_SHORT and min(best) < SHORT_SECONDS):
        for i, call in enumerate(calls):
            gc.collect()
            best[i] = min(best[i], _timed(call)[1])
        turns += 1
    return best


def oracle_clique_forest(index: GraphIndex, peo: List[int]):
    """Maximal cliques, then Kruskal under ``<`` over all of W_G."""
    cliques = kernels.maximal_cliques_from_peo(index, peo)
    wg = oracles.clique_intersection_edges(cliques)
    return cliques, oracles.maximum_weight_spanning_forest_ids(cliques, wg)


def forest_pairs(cliques, edges) -> List[tuple]:
    """A forest as its sorted (lower-sigma, higher-sigma) clique pairs."""
    return sorted(tuple(sorted((cliques[i], cliques[j]))) for i, j in edges)


def _row(
    rows: List[dict],
    family: str,
    n: int,
    m: int,
    op: str,
    baseline: Optional[str],
    legacy_seconds: Optional[float],
    kernel_seconds: float,
    identical: Optional[bool],
) -> None:
    speedup = (
        round(legacy_seconds / kernel_seconds, 2)
        if legacy_seconds is not None and kernel_seconds > 0
        else None
    )
    rows.append(
        {
            "family": family,
            "n": n,
            "m": m,
            "op": op,
            "baseline": baseline,
            "legacy_seconds": (
                round(legacy_seconds, 6) if legacy_seconds is not None else None
            ),
            "kernel_seconds": round(kernel_seconds, 6),
            "speedup": speedup,
            "identical": identical,
        }
    )
    tag = f"{family} n={n} {op}"
    if legacy_seconds is None:
        print(f"  {tag}: kernel {kernel_seconds:.4f}s")
    else:
        print(
            f"  {tag} [{baseline}]: legacy {legacy_seconds:.4f}s"
            f" kernel {kernel_seconds:.4f}s ({speedup}x, identical={identical})"
        )


def _compare_cell(rows: List[dict], family: str, g: Graph, seed_baseline: bool) -> None:
    """Run every op legacy-vs-kernel on one graph, asserting identity."""
    n = len(g)
    # the kernel side pays the snapshot build once; time it explicitly so
    # per-op rows compare algorithm against algorithm
    _, t_index = _timed(GraphIndex, g)
    idx = graph_index(g)
    m = idx.m
    _row(rows, family, n, m, "index_build", None, None, t_index, None)

    if seed_baseline:
        seed_order, t_seed = _timed(seed_lex_bfs, g)
    k_order, t_k = _timed(chordal.lex_bfs, g)
    ref_order, t_ref = _timed(oracles.reference_lex_bfs, g)
    assert ref_order == k_order
    _row(rows, family, n, m, "lexbfs", "reference", t_ref, t_k, ref_order == k_order)
    if seed_baseline:
        assert seed_order == k_order
        _row(rows, family, n, m, "lexbfs", "seed", t_seed, t_k, seed_order == k_order)

    k_mcs, t_k = _timed(chordal.maximum_cardinality_search, g)
    ref_mcs, t_ref = _timed(oracles.reference_maximum_cardinality_search, g)
    assert ref_mcs == k_mcs
    _row(rows, family, n, m, "mcs", "reference", t_ref, t_k, ref_mcs == k_mcs)

    peo = list(reversed(k_order))
    k_bad, t_k = _timed(chordal.check_peo, g, peo)
    ref_bad, t_ref = _timed(oracles.reference_check_peo, g, peo)
    assert ref_bad == k_bad is None
    _row(rows, family, n, m, "peo_check", "reference", t_ref, t_k, ref_bad == k_bad)

    k_cl, t_k = _timed(chordal.maximal_cliques, g)
    ref_cl, t_ref = _timed(oracles.reference_maximal_cliques, g)
    assert ref_cl == k_cl
    _row(
        rows, family, n, m, "maximal_cliques", "reference", t_ref, t_k, ref_cl == k_cl
    )

    peo_ids = idx.ids_of(peo)
    same = forest_pairs(*kernels.clique_forest_from_peo(idx, peo_ids)) == (
        forest_pairs(*oracle_clique_forest(idx, peo_ids))
    )
    assert same
    t_k, t_ref = _best_in_turns(
        lambda: kernels.clique_forest_from_peo(idx, peo_ids),
        lambda: oracle_clique_forest(idx, peo_ids),
    )
    _row(rows, family, n, m, "clique_forest", "reference", t_ref, t_k, same)

    half = random.Random(0).sample(g.vertices(), n // 2)
    same = g.induced_subgraph(half) == oracles.induced_subgraph_by_edges(g, half)
    assert same
    t_k, t_ref = _best_in_turns(
        lambda: g.induced_subgraph(half),
        lambda: oracles.induced_subgraph_by_edges(g, half),
    )
    _row(rows, family, n, m, "induced_subgraph", "reference", t_ref, t_k, same)


def _peel_compare_cell(
    rows: List[dict], family: str, g: Graph, threshold: int
) -> None:
    n, m = len(g), g.num_edges()
    rule, ref_rule = diameter_rule(threshold), oracles.reference_diameter_rule(threshold)
    same = peel_chordal_graph(g, rule) == oracles.reference_peeling(g, ref_rule)
    assert same
    t_k, t_ref = _best_in_turns(
        lambda: peel_chordal_graph(g, rule),
        lambda: oracles.reference_peeling(g, ref_rule),
    )
    _row(rows, family, n, m, f"peeling(t={threshold})", "reference", t_ref, t_k, same)


def _kernel_only_cell(rows: List[dict], family: str, g: Graph) -> None:
    n = len(g)
    _, t_index = _timed(GraphIndex, g)
    idx = graph_index(g)
    m = idx.m
    _row(rows, family, n, m, "index_build", None, None, t_index, None)
    order, t = _timed(kernels.lexbfs, idx)
    _row(rows, family, n, m, "lexbfs", None, None, t, None)
    _, t = _timed(kernels.mcs, idx)
    _row(rows, family, n, m, "mcs", None, None, t, None)
    peo = list(reversed(order))
    bad, t = _timed(kernels.check_peo, idx, peo)
    assert bad is None
    _row(rows, family, n, m, "peo_check", None, None, t, None)
    cliques, t = _timed(kernels.maximal_cliques_from_peo, idx, peo)
    _row(rows, family, n, m, "maximal_cliques", None, None, t, None)
    _, t = _timed(peel_chordal_graph, g, diameter_rule(PEEL_LARGE_THRESHOLD))
    _row(rows, family, n, m, f"peeling(t={PEEL_LARGE_THRESHOLD})", None, None, t, None)


def run(quick: bool) -> dict:
    rows: List[dict] = []
    compare_ns = (2000,) if quick else COMPARE_NS
    # one-layer families spend most of both sides on the same T_1, so the
    # margin is thin (about 1.15x); at n = 400 timer noise flipped rows
    peel_ns = (2000,) if quick else PEEL_COMPARE_NS
    peel_threshold = 4 if quick else PEEL_THRESHOLD
    for family, build in FAMILIES.items():
        for n in compare_ns:
            print(f"== compare {family} n={n}")
            _compare_cell(rows, family, build(n), n <= SEED_LEXBFS_MAX_N)
        for n in peel_ns:
            _peel_compare_cell(rows, family, build(n), peel_threshold)
        if not quick:
            for n in KERNEL_ONLY_NS:
                print(f"== kernel-only {family} n={n}")
                _kernel_only_cell(rows, family, build(n))

    compared = [r for r in rows if r["baseline"] is not None]
    legacy_total = sum(r["legacy_seconds"] for r in compared)
    kernel_total = sum(r["kernel_seconds"] for r in rows)

    def _best(op: str, baseline: str) -> Optional[float]:
        cells = [
            r["speedup"]
            for r in compared
            if r["op"] == op and r["baseline"] == baseline and r["n"] >= 10000
        ]
        return max(cells) if cells else None

    forest_speedups = [r["speedup"] for r in compared if r["op"] == "clique_forest"]
    induced_speedups = [
        r["speedup"] for r in compared if r["op"] == "induced_subgraph"
    ]
    peel_speedups = [r["speedup"] for r in compared if r["op"].startswith("peeling")]
    return {
        "benchmark": "repro.graphs.kernels",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
        "all_outputs_identical": all(r["identical"] for r in compared),
        "legacy_total_seconds": round(legacy_total, 3),
        "kernel_total_seconds": round(kernel_total, 3),
        "acceptance": {
            "lexbfs_speedup_vs_seed_at_1e4": _best("lexbfs", "seed"),
            "lexbfs_speedup_vs_reference_at_1e4": _best("lexbfs", "reference"),
            "maximal_cliques_speedup_at_1e4": _best("maximal_cliques", "reference"),
            "clique_forest_speedup_at_1e4": _best("clique_forest", "reference"),
            "clique_forest_min_speedup": min(forest_speedups, default=None),
            "induced_subgraph_min_speedup": min(induced_speedups, default=None),
            "peeling_min_speedup": min(peel_speedups, default=None),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless outputs matched, the kernel total won and "
        "no clique_forest, induced_subgraph or peeling row lost",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON output path")
    args = parser.parse_args(argv)

    payload = run(quick=args.quick)
    print(
        f"legacy total {payload['legacy_total_seconds']}s,"
        f" kernel total {payload['kernel_total_seconds']}s"
    )

    if args.check:
        if not payload["all_outputs_identical"]:
            print("FAIL: kernel output diverged from legacy output")
            return 1
        if payload["kernel_total_seconds"] > payload["legacy_total_seconds"]:
            print("FAIL: kernel total wall-clock did not beat legacy")
            return 1
        slowest = payload["acceptance"]["clique_forest_min_speedup"]
        if slowest is None or slowest < 1:
            print(f"FAIL: a clique_forest row lost to its reference ({slowest}x)")
            return 1
        induced = payload["acceptance"]["induced_subgraph_min_speedup"]
        if induced is None or induced < 1:
            print(
                "FAIL: an induced_subgraph row lost to the edge-by-edge"
                f" builder ({induced}x)"
            )
            return 1
        peel = payload["acceptance"]["peeling_min_speedup"]
        if peel is None or peel < 1:
            print(f"FAIL: a peeling row lost to the reference loop ({peel}x)")
            return 1
        print(
            "check passed: outputs identical, kernel total beat legacy,"
            f" every clique_forest row won (min {slowest}x),"
            f" every induced_subgraph row won (min {induced}x),"
            f" every peeling row won (min {peel}x)"
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
