"""Validators for the two distributed outputs the paper studies.

For vertex colorings: every vertex has a color, and adjacent vertices have
different colors.  For independent sets: no two members are adjacent.
Validators return the first violation instead of just ``False`` so that
failing tests and assertions print actionable diagnostics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .adjacency import Graph, Vertex

Color = int

__all__ = [
    "coloring_violation",
    "is_proper_coloring",
    "assert_proper_coloring",
    "num_colors",
    "independent_set_violation",
    "is_independent_set",
    "assert_independent_set",
    "is_maximal_independent_set",
    "is_distance_k_independent_set",
    "is_maximal_distance_k_independent_set",
]


def coloring_violation(
    graph: Graph, coloring: Dict[Vertex, Color]
) -> Optional[Tuple[Vertex, Vertex]]:
    """First problem with ``coloring`` on ``graph``, or ``None`` if proper.

    Returns ``(v, v)`` for an uncolored vertex and ``(u, v)`` for a
    monochromatic edge.
    """
    for v in graph.vertices():
        if v not in coloring:
            return (v, v)
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            return (u, v)
    return None


def is_proper_coloring(graph: Graph, coloring: Dict[Vertex, Color]) -> bool:
    return coloring_violation(graph, coloring) is None


def assert_proper_coloring(graph: Graph, coloring: Dict[Vertex, Color]) -> None:
    bad = coloring_violation(graph, coloring)
    if bad is None:
        return
    u, v = bad
    if u == v:
        raise AssertionError(f"vertex {u!r} is uncolored")
    raise AssertionError(
        f"edge ({u!r}, {v!r}) is monochromatic with color {coloring[u]!r}"
    )


def num_colors(coloring: Dict[Vertex, Color]) -> int:
    """Number of distinct colors actually used."""
    return len(set(coloring.values()))


def independent_set_violation(
    graph: Graph, independent: Iterable[Vertex]
) -> Optional[Tuple[Vertex, Vertex]]:
    """An edge inside the candidate set, or a member missing from the graph."""
    members = list(independent)
    member_set = set(members)
    if len(member_set) != len(members):
        dupes = sorted(v for v in member_set if members.count(v) > 1)
        return (dupes[0], dupes[0])
    for v in member_set:
        if v not in graph:
            return (v, v)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if graph.has_edge(u, v):
                return (u, v)
    return None


def is_independent_set(graph: Graph, independent: Iterable[Vertex]) -> bool:
    return independent_set_violation(graph, independent) is None


def assert_independent_set(graph: Graph, independent: Iterable[Vertex]) -> None:
    bad = independent_set_violation(graph, independent)
    if bad is None:
        return
    u, v = bad
    if u == v:
        raise AssertionError(f"vertex {u!r} is duplicated or not in the graph")
    raise AssertionError(f"members {u!r} and {v!r} are adjacent")


def is_maximal_independent_set(graph: Graph, independent: Iterable[Vertex]) -> bool:
    """Independent and not extendable by any vertex outside it."""
    member_set = set(independent)
    if not is_independent_set(graph, member_set):
        return False
    for v in graph.vertices():
        if v in member_set:
            continue
        if not (graph.neighbors_view(v) & member_set):
            return False
    return True


def is_distance_k_independent_set(
    graph: Graph, independent: Iterable[Vertex], k: int
) -> bool:
    """Members pairwise at distance >= k.

    This is the convention of Algorithm 5: a distance-2 independent set is
    an ordinary independent set, and maximality of a distance-k set makes
    consecutive members at most 2k - 1 apart (the pair set P of the
    algorithm).
    """
    members = sorted(set(independent))
    for i, u in enumerate(members):
        dist = graph.bfs_distances(u, cutoff=k - 1)
        for v in members[i + 1:]:
            if v in dist:
                return False
    return True


def is_maximal_distance_k_independent_set(
    graph: Graph, independent: Iterable[Vertex], k: int
) -> bool:
    """Distance-k independent (pairwise >= k) and maximal for that property."""
    member_set = set(independent)
    if not is_distance_k_independent_set(graph, member_set, k):
        return False
    for v in graph.vertices():
        if v in member_set:
            continue
        ball = graph.bfs_distances(v, cutoff=k - 1)
        if not (set(ball) & member_set):
            return False
    return True
