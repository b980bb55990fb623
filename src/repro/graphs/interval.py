"""Interval graph models and orders.

An *interval graph* is the intersection graph of intervals on the line; a
*proper* interval graph is one with a representation where no interval
properly contains another, which coincides with the *unit* interval graphs
[Roberts 1969, cited as [30] in the paper].

Recognition by Theorem 1 (clique forest linearity) lives in
:mod:`repro.cliquetree`; this module provides the representation-side tools
used by Algorithm 5:

* building a graph from an explicit interval representation,
* removing *dominated* vertices (v with Gamma[v] a strict superset of some
  Gamma[u]) -- the first step of Algorithm 5, which leaves a proper
  interval graph,
* a *proper interval order* of a connected proper interval graph (an
  umbrella/consecutive ordering), computed with Corneil-style repeated
  LexBFS sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .adjacency import Graph, Vertex
from .chordal import lex_bfs

__all__ = [
    "interval_graph_from_intervals",
    "dominated_vertices",
    "remove_dominated_vertices",
    "is_proper_interval_order",
    "proper_interval_order",
    "NotProperIntervalError",
]


class NotProperIntervalError(ValueError):
    """Raised when a proper-interval-only routine gets an unsuitable graph."""


def interval_graph_from_intervals(
    intervals: Dict[Vertex, Tuple[float, float]]
) -> Graph:
    """Intersection graph of closed intervals ``{v: (lo, hi)}``.

    Two vertices are adjacent iff their intervals intersect (endpoints
    touching counts, as usual for interval graphs).
    """
    for v, (lo, hi) in intervals.items():
        if lo > hi:
            raise ValueError(f"interval for {v!r} is reversed: ({lo}, {hi})")
    g = Graph(vertices=intervals)
    items = sorted(intervals.items(), key=lambda kv: (kv[1][0], kv[1][1]))
    # index the sorted list: slicing its tail per vertex is O(n^2) copying
    # even though each scan stops at the first non-overlapping interval
    for i, (u, (_, hi_u)) in enumerate(items):
        for j in range(i + 1, len(items)):
            v, (lo_v, _) = items[j]
            if lo_v > hi_u:
                break
            g.add_edge(u, v)
    return g


def dominated_vertices(graph: Graph) -> Set[Vertex]:
    """Vertices v such that Gamma[v] strictly contains Gamma[u] for some u.

    Algorithm 5 removes these before computing independent sets: whenever a
    maximum independent set uses such a v, swapping v for the dominating u
    keeps it independent, so they can be ignored.  Ties (twins with equal
    closed neighborhoods) are broken by keeping the smaller vertex, so that
    exactly one member of each twin class survives when twins dominate each
    other only weakly (equal neighborhoods are *not* strict and are kept --
    strictness mirrors the paper's ``strict superset`` condition; among true
    twins neither dominates the other).
    """
    closed = {v: graph.closed_neighborhood(v) for v in graph.vertices()}
    out: Set[Vertex] = set()
    for v in graph.vertices():
        for u in graph.neighbors_view(v):
            if closed[v] > closed[u]:
                out.add(v)
                break
    return out


def remove_dominated_vertices(graph: Graph) -> Graph:
    """One-shot removal of all dominated vertices (Algorithm 5, step 1).

    Correctness of the single pass:

    * **alpha is preserved.**  Take a maximum independent set I maximizing
      its overlap with the survivors, and suppose v in I is dominated.
      Following strict containments downward ends at a vertex u with
      Gamma[u] strictly below Gamma[v] and u itself undominated (so u
      survives).  u lies in Gamma[v], hence outside I, and swapping v for
      u keeps I independent -- contradiction with the maximal overlap.

    * **the survivors induce a proper interval graph** (when the input is
      interval).  The middle leaf b of any claw satisfies
      interval(b) inside interval(c) in every representation, hence
      Gamma[b] strictly inside Gamma[c] *already in the input graph*, so
      b was removed; the surviving graph is claw-free and interval, i.e.
      proper interval [Roberts].
    """
    return graph.subgraph_without(dominated_vertices(graph))


def is_proper_interval_order(graph: Graph, order: Sequence[Vertex]) -> bool:
    """Check the umbrella property: neighborhoods are consecutive runs.

    ``order`` is a proper interval (umbrella) order iff for every edge uv
    with u before v, all vertices between u and v are adjacent to both u
    and v.  This characterizes proper interval graphs.
    """
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(graph):
        return False
    for u, v in graph.edges():
        if pos[u] > pos[v]:
            u, v = v, u
        for w in order[pos[u] + 1: pos[v]]:
            if not (graph.has_edge(u, w) and graph.has_edge(w, v)):
                return False
    return True


def proper_interval_order(graph: Graph) -> List[Vertex]:
    """An umbrella ordering of a connected proper interval graph.

    Uses Corneil's 3-sweep LBFS+ algorithm: an arbitrary LexBFS, then two
    LBFS+ sweeps each starting from the previous sweep's last vertex and
    breaking ties toward vertices visited late in it.  On a proper
    interval graph the final sweep is an umbrella order.  Raises
    :class:`NotProperIntervalError` if the result fails the umbrella check
    (i.e. the input was not proper interval).
    """
    if len(graph) == 0:
        return []
    if not graph.is_connected():
        raise NotProperIntervalError(
            "proper_interval_order requires a connected graph; "
            "order components separately"
        )
    sweep = lex_bfs(graph)
    sweep = lex_bfs(graph, plus=sweep)
    order = lex_bfs(graph, plus=sweep)
    if not is_proper_interval_order(graph, order):
        order = list(reversed(order))
        if not is_proper_interval_order(graph, order):
            raise NotProperIntervalError("graph is not a proper interval graph")
    return order
