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
byte-identical to the label-space paths retained here as ``_reference_*``
functions.  The references are the cross-validation targets of
``tests/graphs/test_kernels.py`` and the "legacy" timing baseline of
``benchmarks/bench_kernels.py``; they favor clarity but avoid gratuitous
quadratic behavior (the original ``lex_bfs`` rescanned every block per
visited vertex -- the retained reference now refines only touched blocks).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from . import kernels
from .adjacency import Graph, Vertex
from .index import graph_index

__all__ = [
    "NotChordalError",
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


class _Block:
    """A block of the reference LexBFS partition (insertion-ordered)."""

    __slots__ = ("verts", "prev", "next")

    def __init__(self) -> None:
        self.verts: Dict[Vertex, None] = {}
        self.prev: Optional["_Block"] = None
        self.next: Optional["_Block"] = None


def _reference_lex_bfs(
    graph: Graph,
    start: Optional[Vertex] = None,
    plus: Optional[List[Vertex]] = None,
) -> List[Vertex]:
    """Label-space reference for :func:`lex_bfs` (same output, same rules).

    Partition refinement over a doubly-linked list of insertion-ordered
    blocks: a visited vertex moves each unvisited neighbor -- processed in
    initial-rank order -- into a twin block just before the neighbor's old
    block.  Because within-block order is always a subsequence of the
    initial order, the per-neighbor moves reproduce the stable
    (neighbors-first, order-preserving) split of the textbook formulation
    without rescanning untouched blocks, replacing the original
    O(n^2)-ish ``head.pop(0)`` + full-rescan loop.
    """
    if len(graph) == 0:
        return []
    if plus is not None:
        if sorted(plus) != graph.vertices():
            raise ValueError("plus order must enumerate every vertex exactly once")
        verts = list(reversed(plus))
        if start is None:
            start = verts[0]
    else:
        verts = graph.vertices()
    if start is not None:
        if start not in graph:
            raise KeyError(f"start vertex {start!r} not in graph")
        verts = [start] + [v for v in verts if v != start]

    rank = {v: i for i, v in enumerate(verts)}
    head: Optional[_Block] = _Block()
    head.verts = dict.fromkeys(verts)
    block_of: Dict[Vertex, _Block] = {v: head for v in verts}
    visited: Set[Vertex] = set()
    order: List[Vertex] = []
    while head is not None:
        v = next(iter(head.verts))
        del head.verts[v]
        if not head.verts:
            head = head.next
            if head is not None:
                head.prev = None
        visited.add(v)
        order.append(v)
        twins: Dict[int, _Block] = {}
        for u in sorted(graph.neighbors_view(v) - visited, key=rank.__getitem__):
            b = block_of[u]
            t = twins.get(id(b))
            if t is None:
                t = _Block()
                t.prev, t.next = b.prev, b
                if b.prev is None:
                    head = t
                else:
                    b.prev.next = t
                b.prev = t
                twins[id(b)] = t
            del b.verts[u]
            if not b.verts:  # drained: unlink (its twin keeps the position)
                t.next = b.next
                if b.next is not None:
                    b.next.prev = t
            t.verts[u] = None
            block_of[u] = t
    return order


def maximum_cardinality_search(graph: Graph) -> List[Vertex]:
    """Maximum cardinality search visit order.

    Repeatedly visits the unvisited vertex with the most visited neighbors
    (ties by vertex order).  Like LexBFS, the reverse visit order is a PEO
    iff the graph is chordal.  Dispatches to the bucket-queue kernel
    (:func:`repro.graphs.kernels.mcs`).
    """
    index = graph_index(graph)
    return index.labels_of(kernels.mcs(index))


def _reference_maximum_cardinality_search(graph: Graph) -> List[Vertex]:
    """Label-space reference for :func:`maximum_cardinality_search`."""
    weight: Dict[Vertex, int] = {v: 0 for v in graph.vertices()}
    order: List[Vertex] = []
    unvisited: Set[Vertex] = set(weight)
    while unvisited:
        v = max(sorted(unvisited), key=lambda u: weight[u])
        order.append(v)
        unvisited.remove(v)
        for u in graph.neighbors_view(v):
            if u in unvisited:
                weight[u] += 1
    return order


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


def _reference_check_peo(graph: Graph, order: List[Vertex]) -> Optional[Vertex]:
    """Label-space reference for :func:`check_peo` (the per-vertex parent test)."""
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(graph):
        raise ValueError("order must enumerate every vertex exactly once")
    for v in order:
        later = [u for u in graph.neighbors_view(v) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        rest = set(later) - {parent}
        if not rest <= graph.neighbors_view(parent):
            return v
    return None


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


def _reference_maximal_cliques(graph: Graph) -> List[FrozenSet[Vertex]]:
    """Label-space reference for :func:`maximal_cliques` (subset filter).

    Uses the quadratic-but-obviously-correct containment filter over the
    PEO candidates; the kernel's parent-size criterion is validated against
    this in the equivalence suite.
    """
    order = perfect_elimination_ordering(graph)
    pos = {v: i for i, v in enumerate(order)}
    candidates: List[Set[Vertex]] = []
    for v in order:
        cand = {u for u in graph.neighbors_view(v) if pos[u] > pos[v]}
        cand.add(v)
        candidates.append(cand)
    cliques: List[FrozenSet[Vertex]] = []
    candidates_fs = [frozenset(c) for c in candidates]
    for i, c in enumerate(candidates_fs):
        contained = False
        for j, d in enumerate(candidates_fs):
            if i != j and c <= d and (c != d or j < i):
                contained = True
                break
        if not contained:
            cliques.append(c)
    return sorted(cliques, key=lambda c: (len(c), sorted(c)))


def clique_number(graph: Graph) -> int:
    """omega(G) of a chordal graph; equals chi(G) since chordal graphs are perfect."""
    if len(graph) == 0:
        return 0
    return max(len(c) for c in maximal_cliques(graph))
