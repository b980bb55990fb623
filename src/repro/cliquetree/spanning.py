"""Maximum weight spanning forests of W_G under the canonical order.

Kruskal's algorithm run over the edges in *decreasing* ``<`` order yields
the unique maximum weight spanning forest the paper's order prefers
(Lemma 1 gives its local-optimality property, which the local-view
construction of Section 3 relies on).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .wcig import Clique, WeightedEdge, edge_key

__all__ = ["UnionFind", "maximum_weight_spanning_forest"]


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of a and b; returns False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True


def maximum_weight_spanning_forest(
    cliques: Sequence[Clique], edges: Sequence[WeightedEdge]
) -> List[Tuple[Clique, Clique]]:
    """The unique maximum weight spanning forest preferred by ``<``.

    Edges are processed in decreasing order of their (w, l, h) key; ties
    cannot occur because (l, h) identifies the edge.  Returns the selected
    edges as (smaller-sigma, larger-sigma) clique pairs.
    """
    uf = UnionFind(cliques)
    ordered = sorted(edges, key=lambda e: edge_key(e[0], e[1]), reverse=True)
    chosen: List[Tuple[Clique, Clique]] = []
    for c1, c2, _w in ordered:
        if uf.union(c1, c2):
            chosen.append((c1, c2))
    return chosen
