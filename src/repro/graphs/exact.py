"""Exact (exponential-time) oracles for small graphs.

The LOCAL model allows unbounded local computation, and several steps of the
paper's algorithms genuinely perform exact optimization on small,
bounded-diameter pieces (e.g. Algorithm 5 computes a *maximum* independent
set on components of diameter <= 10k; Algorithm 6 computes maximum
independent sets of components with independence number < d).  On chordal
and interval pieces the library uses the polynomial routines from
:mod:`repro.mis.exact` instead; the brute-force functions here serve as

* reference oracles in tests (any-graph ground truth), and
* the "unbounded local computation" fallback for non-chordal scraps that
  can only appear through API misuse (they raise beyond a size guard
  rather than silently burning CPU).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .adjacency import Graph, Vertex

__all__ = [
    "brute_force_maximum_independent_set",
    "brute_force_chromatic_number",
    "brute_force_optimal_coloring",
    "brute_force_independence_number",
]

_SIZE_GUARD = 40


def brute_force_maximum_independent_set(
    graph: Graph, size_guard: int = _SIZE_GUARD
) -> Set[Vertex]:
    """A maximum independent set by branch and bound.

    Deterministic (branches on the sorted vertex order).  ``size_guard``
    protects against accidentally calling this on large graphs.
    """
    if len(graph) > size_guard:
        raise ValueError(
            f"brute force MIS on {len(graph)} vertices exceeds guard {size_guard}"
        )

    best: Set[Vertex] = set()

    def search(remaining: List[Vertex], current: Set[Vertex]) -> None:
        nonlocal best
        if len(current) + len(remaining) <= len(best):
            return
        if not remaining:
            if len(current) > len(best):
                best = set(current)
            return
        v = remaining[0]
        nbrs = graph.neighbors_view(v)
        # Branch 1: take v.
        search([u for u in remaining[1:] if u not in nbrs], current | {v})
        # Branch 2: skip v (only useful if some neighbor could beat it).
        search(remaining[1:], current)

    search(graph.vertices(), set())
    return best


def brute_force_independence_number(graph: Graph, size_guard: int = _SIZE_GUARD) -> int:
    return len(brute_force_maximum_independent_set(graph, size_guard))


def brute_force_optimal_coloring(
    graph: Graph, size_guard: int = _SIZE_GUARD
) -> Dict[Vertex, int]:
    """An optimal coloring by iterative-deepening backtracking."""
    if len(graph) > size_guard:
        raise ValueError(
            f"brute force coloring on {len(graph)} vertices exceeds guard {size_guard}"
        )
    verts = sorted(graph.vertices(), key=lambda v: -graph.degree(v))
    if not verts:
        return {}

    def try_colors(c: int) -> Optional[Dict[Vertex, int]]:
        coloring: Dict[Vertex, int] = {}

        def assign(i: int) -> bool:
            if i == len(verts):
                return True
            v = verts[i]
            used = {coloring[u] for u in graph.neighbors_view(v) if u in coloring}
            # Symmetry breaking: never open more than one new color.
            opened = max(coloring.values(), default=0)
            for color in range(1, min(opened + 1, c) + 1):
                if color in used:
                    continue
                coloring[v] = color
                if assign(i + 1):
                    return True
                del coloring[v]
            return False

        return dict(coloring) if assign(0) else None

    for c in range(1, len(verts) + 1):
        result = try_colors(c)
        if result is not None:
            return result
    raise AssertionError("unreachable: n colors always suffice")


def brute_force_chromatic_number(graph: Graph, size_guard: int = _SIZE_GUARD) -> int:
    if len(graph) == 0:
        return 0
    return len(set(brute_force_optimal_coloring(graph, size_guard).values()))
