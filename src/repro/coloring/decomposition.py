"""Clique path decompositions: the coordinate system of the interval phase.

Everything in the coloring pipeline -- greedy coloring by left endpoints,
boundary morphing, segment gluing -- works on a :class:`PathBags`: a
sequence of bags arranged on a path such that

* every bag is a clique of the graph,
* every edge of the (induced) graph lies in some bag,
* the bags containing any fixed vertex are consecutive.

Maximal cliques are *not* required: the peeling process hands the interval
phase paths of cliques of the *parent* graph restricted to the surviving
vertices (Lemma 7 / Lemma 8), which are exactly such decompositions.  The
index of a bag serves as a position on the line; a vertex occupies the
positions of the bags containing it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..graphs.adjacency import Graph, Vertex

Bag = FrozenSet[Vertex]

__all__ = ["PathBags"]


class PathBags:
    """A clique path decomposition with position queries."""

    def __init__(self, bags: Iterable[Iterable[Vertex]]):
        self.bags: List[Bag] = [frozenset(b) for b in bags if b]
        self._first: Dict[Vertex, int] = {}
        self._last: Dict[Vertex, int] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                self._first.setdefault(v, i)
                self._last[v] = i

    # ------------------------------------------------------------------
    # positions
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bags)

    def vertices(self) -> List[Vertex]:
        return sorted(self._first)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._first

    def first(self, v: Vertex) -> int:
        return self._first[v]

    def last(self, v: Vertex) -> int:
        return self._last[v]

    def vertex_order(self) -> List[Vertex]:
        """Vertices by (left endpoint, right endpoint, id): the greedy order."""
        return sorted(self._first, key=lambda v: (self._first[v], self._last[v], v))

    def alive_at_or_after(self, index: int) -> List[Vertex]:
        """Vertices whose run touches position >= index."""
        return [v for v in self._first if self._last[v] >= index]

    def strictly_right_of(self, index: int) -> List[Vertex]:
        """Vertices whose whole run lies right of position index."""
        return [v for v in self._first if self._first[v] > index]

    # ------------------------------------------------------------------
    # validation / derivation
    # ------------------------------------------------------------------
    def validate(self, graph: Graph) -> None:
        """Check the three decomposition conditions against ``graph``.

        ``graph`` must be exactly the induced graph on the decomposition's
        vertices.  Raises ``ValueError`` with a description on failure.
        """
        if set(self._first) != set(graph.vertices()):
            raise ValueError("decomposition does not cover the graph's vertices")
        for v in self._first:
            run = [i for i, bag in enumerate(self.bags) if v in bag]
            if run != list(range(run[0], run[-1] + 1)):
                raise ValueError(f"bags of vertex {v!r} are not consecutive")
        for i, bag in enumerate(self.bags):
            if not graph.is_clique(bag):
                raise ValueError(f"bag {i} is not a clique")
        for u, w in graph.edges():
            lo = max(self._first[u], self._first[w])
            hi = min(self._last[u], self._last[w])
            if lo > hi:
                raise ValueError(f"edge ({u!r}, {w!r}) is in no bag")

    def max_bag_size(self) -> int:
        """omega of the covered interval graph (= its chromatic number)."""
        return max((len(b) for b in self.bags), default=0)

    def restricted_to(self, keep: Iterable[Vertex]) -> "PathBags":
        """The decomposition of the induced subgraph on ``keep``.

        Empty bags are dropped; a vertex present on both sides of a
        dropped bag would have been in it, so runs stay consecutive.
        """
        keep_set = set(keep)
        return PathBags(bag & keep_set for bag in self.bags)

    def subrange(self, lo: int, hi: int) -> "PathBags":
        """Bags lo..hi inclusive, as a decomposition of their union."""
        return PathBags(self.bags[lo: hi + 1])

    def reversed_(self) -> "PathBags":
        return PathBags(reversed(self.bags))

    def extended(
        self, left: Optional[Iterable[Vertex]] = None, right: Optional[Iterable[Vertex]] = None
    ) -> "PathBags":
        """Prepend/append boundary bags (the C_s / C_e bags of Lemma 8)."""
        bags: List[Iterable[Vertex]] = []
        if left:
            bags.append(left)
        bags.extend(self.bags)
        if right:
            bags.append(right)
        return PathBags(bags)

    # ------------------------------------------------------------------
    # geometry helpers for the morph
    # ------------------------------------------------------------------
    def disjoint_cut_positions(
        self, lo: int, hi: int, avoid: Optional[Iterable[Vertex]] = None
    ) -> List[int]:
        """A maximal left-packed sequence of pairwise-disjoint bags in [lo, hi].

        Consecutive cuts share no vertex, which is what makes the relay
        moves of the morph cover each other (no vertex spans two cuts).
        ``avoid``: an extra bag (the left boundary) the first cut must be
        disjoint from, so boundary vertices are never alive at a cut.
        """
        cuts: List[int] = []
        previous: Optional[Set[Vertex]] = set(avoid) if avoid is not None else None
        i = max(lo, 0)
        hi = min(hi, len(self.bags) - 1)
        while i <= hi:
            if previous is None or not (previous & self.bags[i]):
                cuts.append(i)
                previous = set(self.bags[i])
            i += 1
        return cuts

