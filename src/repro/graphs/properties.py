"""Structural graph properties used by the experiments and sanity checks.

Chordal graphs are perfect, which ties the paper's two problems together:
chi = omega (coloring meets the clique bound) and alpha = minimum clique
cover (Gavril's greedy yields both certificates at once).  This module
provides those dual certificates plus the degeneracy machinery that
underlies the sparse-graph baselines the paper cites ([5], [17]).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .adjacency import Graph, Vertex
from .chordal import perfect_elimination_ordering

__all__ = [
    "degeneracy_ordering",
    "degeneracy",
    "minimum_clique_cover_chordal",
    "density",
    "is_clique_cover",
]


def degeneracy_ordering(graph: Graph) -> Tuple[List[Vertex], int]:
    """A smallest-last ordering and the degeneracy d(G).

    Repeatedly removes a minimum-degree vertex; the largest degree seen at
    removal time is the degeneracy.  Chordal graphs satisfy
    d(G) = omega(G) - 1 (every PEO is a witness).
    """
    work = graph.copy()
    order: List[Vertex] = []
    degeneracy_value = 0
    while len(work) > 0:
        v = min(work.vertices(), key=lambda u: (work.degree(u), str(u)))
        degeneracy_value = max(degeneracy_value, work.degree(v))
        order.append(v)
        work.remove_vertex(v)
    return order, degeneracy_value


def degeneracy(graph: Graph) -> int:
    return degeneracy_ordering(graph)[1]


def minimum_clique_cover_chordal(graph: Graph) -> List[Set[Vertex]]:
    """A minimum clique cover of a chordal graph (Gavril).

    Walks a PEO; each greedy independent-set member v opens the clique
    Gamma[v] restricted to still-uncovered vertices.  The cover size
    equals the greedy independent set's size, so by weak duality both are
    optimal: |cover| = alpha(G).
    """
    covered: Set[Vertex] = set()
    cover: List[Set[Vertex]] = []
    for v in perfect_elimination_ordering(graph):
        if v in covered:
            continue
        clique = (graph.closed_neighborhood(v)) - covered
        # v is simplicial among the uncovered suffix, so this is a clique.
        cover.append(clique)
        covered |= clique
    return cover


def is_clique_cover(graph: Graph, cover: List[Set[Vertex]]) -> bool:
    """Whether ``cover`` is a partition of V into cliques."""
    seen: Set[Vertex] = set()
    for part in cover:
        if not part or (part & seen):
            return False
        if not graph.is_clique(part):
            return False
        seen |= set(part)
    return seen == set(graph.vertices())


def density(graph: Graph) -> float:
    """|E| / C(n, 2); 0 for graphs with fewer than two vertices."""
    n = len(graph)
    if n < 2:
        return 0.0
    return graph.num_edges() / (n * (n - 1) / 2)
