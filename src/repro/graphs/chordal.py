"""Chordal graph machinery: elimination orderings, recognition, cliques.

A graph is *chordal* if every cycle on at least four vertices has a chord
(Section 2 of the paper).  Equivalently, it admits a *perfect elimination
ordering* (PEO): an ordering v_1, ..., v_n such that each v_i is simplicial
in G[{v_i, ..., v_n}] -- its later neighbors form a clique.

This module provides:

* :func:`lex_bfs` -- lexicographic breadth-first search, which produces a
  PEO (in reverse visit order) exactly when the graph is chordal,
* :func:`maximum_cardinality_search` -- the MCS alternative,
* :func:`perfect_elimination_ordering` / :func:`is_chordal`,
* :func:`maximal_cliques` -- the (at most n) maximal cliques of a chordal
  graph, extracted from a PEO in the standard way,
* :func:`simplicial_vertices`.

The public functions dispatch to the O(n + m) integer kernels of
:mod:`repro.graphs.kernels` through the cached
:class:`~repro.graphs.index.GraphIndex` snapshot; ids are assigned in
sorted label order, so the kernel outputs (translated back to labels) are
byte-identical to the label-space references in ``tests/oracles.py``,
the cross-validation targets of ``tests/graphs/test_kernels.py`` and the
"legacy" timing baseline of ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from . import kernels
from .adjacency import Graph, Vertex
from .index import graph_index

__all__ = [
    "NotChordalError",
    "not_chordal_error",
    "lex_bfs",
    "maximum_cardinality_search",
    "perfect_elimination_ordering",
    "is_chordal",
    "check_peo",
    "maximal_cliques",
    "simplicial_vertices",
    "is_simplicial",
    "clique_number",
]


class NotChordalError(ValueError):
    """Raised when an algorithm that requires a chordal input receives one
    that is not chordal.  Carries the violating vertex when known."""

    def __init__(self, message: str, vertex: Optional[Vertex] = None):
        super().__init__(message)
        self.vertex = vertex


def _not_chordal(bad: Vertex) -> NotChordalError:
    return NotChordalError(
        f"graph is not chordal (vertex {bad!r} is not simplicial when eliminated)",
        vertex=bad,
    )


def lex_bfs(
    graph: Graph,
    start: Optional[Vertex] = None,
    plus: Optional[List[Vertex]] = None,
) -> List[Vertex]:
    """Lexicographic BFS visit order.

    Implemented with linear-time partition refinement (see
    :func:`repro.graphs.kernels.lexbfs`).  Ties are broken by vertex order
    so the output is deterministic.  If ``start`` is given, it is visited
    first.  If ``plus`` is given (a previous visit order), ties are instead
    broken by choosing the vertex appearing *latest* in it -- the LBFS+
    rule of Corneil's multi-sweep recognition algorithms; the start
    defaults to the last vertex of ``plus``.

    The *reverse* of the returned order is a PEO iff the graph is chordal.
    """
    if len(graph) == 0:
        return []
    index = graph_index(graph)
    plus_ids: Optional[List[int]] = None
    if plus is not None:
        if sorted(plus) != graph.vertices():
            raise ValueError("plus order must enumerate every vertex exactly once")
        plus_ids = index.ids_of(plus)
    start_id: Optional[int] = None
    if start is not None:
        if start not in graph:
            raise KeyError(f"start vertex {start!r} not in graph")
        start_id = index.vid[start]
    return index.labels_of(kernels.lexbfs(index, start=start_id, plus=plus_ids))


def maximum_cardinality_search(graph: Graph) -> List[Vertex]:
    """Maximum cardinality search visit order.

    Repeatedly visits the unvisited vertex with the most visited neighbors
    (ties by vertex order).  Like LexBFS, the reverse visit order is a PEO
    iff the graph is chordal.  Dispatches to the bucket-queue kernel
    (:func:`repro.graphs.kernels.mcs`).
    """
    index = graph_index(graph)
    return index.labels_of(kernels.mcs(index))


def check_peo(graph: Graph, order: List[Vertex]) -> Optional[Vertex]:
    """Check whether ``order`` is a perfect elimination ordering.

    Returns ``None`` if it is, otherwise the first vertex whose later
    neighborhood is not a clique.  Dispatches to the accumulated parent
    test of :func:`repro.graphs.kernels.check_peo` (O(n + m)).
    """
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(graph):
        raise ValueError("order must enumerate every vertex exactly once")
    index = graph_index(graph)
    bad = kernels.check_peo(index, index.ids_of(order))
    return None if bad is None else index.verts[bad]


def perfect_elimination_ordering(graph: Graph) -> List[Vertex]:
    """A PEO of a chordal graph; raises :class:`NotChordalError` otherwise."""
    index = graph_index(graph)
    order, bad = kernels.peo_and_violation(index)
    if bad is not None:
        raise _not_chordal(index.verts[bad])
    return index.labels_of(order)


def is_chordal(graph: Graph) -> bool:
    """Whether the graph is chordal (LexBFS + PEO check, O(n + m))."""
    index = graph_index(graph)
    order = kernels.lexbfs(index)
    order.reverse()
    return kernels.is_peo(index, order)


def not_chordal_error(graph: Graph) -> NotChordalError:
    """The error :func:`perfect_elimination_ordering` raises on ``graph``.

    For a driver whose :func:`is_chordal` check failed: the error names
    the same vertex at every chordal entry point.  ``ValueError`` if
    ``graph`` is chordal after all.
    """
    index = graph_index(graph)
    _order, bad = kernels.peo_and_violation(index)
    if bad is None:
        raise ValueError("graph is chordal")
    return _not_chordal(index.verts[bad])


def is_simplicial(graph: Graph, v: Vertex) -> bool:
    """Whether Gamma(v) is a clique in ``graph``.

    Point query: stays on the direct O(deg(v)^2) adjacency test, which is
    cheaper than building an index snapshot for callers that probe single
    vertices of a graph they are still mutating.
    """
    return graph.is_clique(graph.neighbors_view(v))


def simplicial_vertices(graph: Graph) -> List[Vertex]:
    """All simplicial vertices, in sorted order."""
    return [v for v in graph.vertices() if is_simplicial(graph, v)]


def maximal_cliques(graph: Graph) -> List[FrozenSet[Vertex]]:
    """The maximal cliques of a chordal graph.

    A chordal graph on n vertices has at most n maximal cliques (Section 2),
    and they are exactly the distinct sets ``{v} + later-neighbors(v)`` over
    a PEO that are not contained in another such set.  Raises
    :class:`NotChordalError` on non-chordal inputs.  Dispatches to the
    Blair-Peyton kernel (:func:`repro.graphs.kernels.maximal_cliques_from_peo`).

    The result is sorted by (size, sorted members) for determinism.
    """
    index = graph_index(graph)
    order, bad = kernels.peo_and_violation(index)
    if bad is not None:
        raise _not_chordal(index.verts[bad])
    return [
        frozenset(index.labels_of(c))
        for c in kernels.maximal_cliques_from_peo(index, order)
    ]


def clique_number(graph: Graph) -> int:
    """omega(G) of a chordal graph; equals chi(G) since chordal graphs are perfect."""
    if len(graph) == 0:
        return 0
    return max(len(c) for c in maximal_cliques(graph))
