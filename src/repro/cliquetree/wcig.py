"""The weighted clique intersection graph W_G and the edge order ``<``.

Section 3 of the paper: with a chordal graph G we associate W_G, whose
vertices are the maximal cliques of G and where cliques with a nonempty
intersection are joined by an edge of weight |C1 cap C2|.  By Theorem 2
[Bernstein & Goodman], the clique forests of G are exactly the maximum
weight spanning forests of W_G.

Because W_G may have many maximum weight spanning forests, the paper fixes a
canonical one by linearly ordering the edges: every clique C gets the word
sigma(C) = its members in increasing order, every edge e = C_i C_j gets the
triple (w_e, l_e, h_e) with w_e = |C_i cap C_j|,
l_e = lexmin(sigma(C_i), sigma(C_j)), h_e = lexmax(...), and e < f iff the
triples compare lexicographically.  Edges larger under ``<`` are preferred,
making the maximum weight spanning forest unique.  The whole graph's forest
is built without W_G (:func:`repro.graphs.kernels.clique_forest_from_peo`);
the edges here serve the local views' small W_G[phi(u)].
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..graphs.adjacency import Vertex

Clique = FrozenSet[Vertex]
#: An edge of W_G: the two cliques plus its weight.
WeightedEdge = Tuple[Clique, Clique, int]

__all__ = ["Clique", "WeightedEdge", "sigma", "edge_key", "wcig_edges_among"]


def sigma(clique: Clique) -> Tuple[Vertex, ...]:
    """The word sigma(C): members of C in increasing identifier order."""
    return tuple(sorted(clique))


def edge_key(c1: Clique, c2: Clique) -> Tuple[int, Tuple[Vertex, ...], Tuple[Vertex, ...]]:
    """The triple (w_e, l_e, h_e) that positions edge C1C2 in the order ``<``.

    Python's tuple comparison is exactly the lexicographic order the paper
    uses, so two keys compare as the paper's ``<`` does.
    """
    w = len(c1 & c2)
    s1, s2 = sigma(c1), sigma(c2)
    if s1 <= s2:
        lo, hi = s1, s2
    else:
        lo, hi = s2, s1
    return (w, lo, hi)


def wcig_edges_among(cliques: Sequence[Clique]) -> List[WeightedEdge]:
    """All W_G edges among the given cliques (pairs with nonempty intersection).

    Output-sensitive: walks each vertex's clique-incidence list and counts
    shared members per clique pair, so the cost is the total intersection
    weight rather than the O(q^2) all-pairs scan (the test oracle
    ``reference_wcig_edges_among``).  The result lists pairs in
    ascending index order — exactly the all-pairs enumeration order.
    """
    incidence: Dict[Vertex, List[int]] = {}
    weights: Dict[Tuple[int, int], int] = {}
    for ci, c in enumerate(cliques):
        for v in c:
            lst = incidence.get(v)
            if lst is None:
                incidence[v] = [ci]
            else:
                for cj in lst:
                    key = (cj, ci)
                    weights[key] = weights.get(key, 0) + 1
                lst.append(ci)
    return [(cliques[i], cliques[j], w) for (i, j), w in sorted(weights.items())]
