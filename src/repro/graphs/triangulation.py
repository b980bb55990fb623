"""Chordal completions (triangulations) of arbitrary graphs.

The paper's algorithms require chordal inputs; real inputs often are not.
The classic bridge -- also the reason chordal graphs matter for belief
propagation, which the paper cites as motivation -- is *triangulation*:
add fill-in edges along an elimination ordering until every cycle has a
chord.  The elimination ordering then *is* a perfect elimination ordering
of the completion, and the largest eliminated neighborhood bounds the
treewidth from above.

Two standard ordering heuristics are provided (minimum degree and minimum
fill-in), plus :func:`triangulate`, which returns the chordal supergraph
together with the fill edges and the width, and :func:`treewidth_chordal`
for already-chordal graphs (treewidth = omega - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .adjacency import Graph, Vertex
from .chordal import clique_number, is_chordal

__all__ = [
    "Triangulation",
    "triangulate",
    "elimination_ordering",
    "fill_in_count",
    "treewidth_chordal",
]

Heuristic = str  # "min_degree" | "min_fill"


def fill_in_count(graph: Graph, v: Vertex) -> int:
    """Edges that eliminating v now would add among its neighbors."""
    nbrs = sorted(graph.neighbors_view(v))
    missing = 0
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if not graph.has_edge(a, b):
                missing += 1
    return missing


def elimination_ordering(graph: Graph, heuristic: Heuristic = "min_fill") -> List[Vertex]:
    """A greedy elimination ordering under the chosen heuristic.

    ``min_fill`` eliminates the vertex adding the fewest fill edges (best
    completions in practice); ``min_degree`` the one with fewest remaining
    neighbors (faster).  Ties break by vertex order for determinism.
    """
    if heuristic not in ("min_fill", "min_degree"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    work = graph.copy()
    order: List[Vertex] = []
    while len(work) > 0:
        if heuristic == "min_degree":
            v = min(work.vertices(), key=lambda u: (work.degree(u), _key(u)))
        else:
            v = min(
                work.vertices(), key=lambda u: (fill_in_count(work, u), _key(u))
            )
        order.append(v)
        work.add_clique(work.neighbors(v))
        work.remove_vertex(v)
    return order


def _key(v):
    return (str(type(v)), str(v))


@dataclass
class Triangulation:
    """A chordal completion: the supergraph, its fill edges, and width."""

    chordal_graph: Graph
    fill_edges: List[Tuple[Vertex, Vertex]]
    elimination_order: List[Vertex]
    width: int  # max eliminated-neighborhood size = treewidth upper bound

    @property
    def treewidth_bound(self) -> int:
        return self.width


def triangulate(graph: Graph, heuristic: Heuristic = "min_fill") -> Triangulation:
    """Chordal completion along a greedy elimination ordering.

    The returned graph is chordal (the elimination order is a PEO of it by
    construction), contains the input as a subgraph, and its clique number
    is width + 1.  Triangulating an already-chordal graph with ``min_fill``
    adds no edges (zero-fill vertices, i.e. simplicial ones, always exist).
    """
    order = elimination_ordering(graph, heuristic)
    work = graph.copy()
    completed = graph.copy()
    fill: List[Tuple[Vertex, Vertex]] = []
    width = 0
    for v in order:
        nbrs = sorted(work.neighbors_view(v))
        width = max(width, len(nbrs))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if not work.has_edge(a, b):
                    work.add_edge(a, b)
                    completed.add_edge(a, b)
                    fill.append((a, b))
        work.remove_vertex(v)
    result = Triangulation(
        chordal_graph=completed,
        fill_edges=fill,
        elimination_order=order,
        width=width,
    )
    if not is_chordal(completed):  # pragma: no cover - construction invariant
        raise AssertionError("triangulation produced a non-chordal graph")
    return result


def treewidth_chordal(graph: Graph) -> int:
    """Exact treewidth of a chordal graph: omega(G) - 1."""
    if not is_chordal(graph):
        raise ValueError("treewidth_chordal requires a chordal graph")
    if len(graph) == 0:
        return -1
    return clique_number(graph) - 1
