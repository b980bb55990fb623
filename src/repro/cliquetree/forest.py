"""The clique forest of a chordal graph.

A *clique forest* (Section 2) is a tree decomposition whose bags are exactly
the maximal cliques; G coincides with the intersection graph of the subtrees
T(v) = T[phi(v)], where phi(v) is the family of maximal cliques containing
v.  :func:`build_clique_forest` produces the canonical forest specified by
the paper's order ``<`` (Theorem 2 + the tie-breaking of Section 3), so
every caller -- including every simulated network node -- agrees on the same
forest.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..graphs import kernels
from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import _not_chordal
from ..graphs.index import graph_index
from .wcig import Clique

__all__ = ["CliqueForest", "build_clique_forest"]


class CliqueForest:
    """A forest on a family of cliques, with subtree queries.

    Instances are immutable once constructed; the peeling process of the
    paper produces *new* forests (:meth:`without_cliques`) rather than
    mutating, which keeps the layer-by-layer reasoning of Lemmas 3-5 easy
    to mirror in code.
    """

    def __init__(self, cliques: Iterable[Clique], edges: Iterable[Tuple[Clique, Clique]]):
        self._cliques: List[Clique] = sorted(
            {frozenset(c) for c in cliques}, key=lambda c: tuple(sorted(c))
        )
        clique_set = set(self._cliques)
        self._adj: Dict[Clique, Set[Clique]] = {c: set() for c in self._cliques}
        for c1, c2 in edges:
            c1, c2 = frozenset(c1), frozenset(c2)
            if c1 not in clique_set or c2 not in clique_set:
                raise ValueError("forest edge references an unknown clique")
            if c1 == c2:
                raise ValueError("forest edges must join distinct cliques")
            self._adj[c1].add(c2)
            self._adj[c2].add(c1)
        self._phi: Dict[Vertex, Set[Clique]] = {}
        for c in self._cliques:
            for v in c:
                self._phi.setdefault(v, set()).add(c)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        n_edges = sum(len(nbrs) for nbrs in self._adj.values()) // 2
        n_comps = sum(1 for _ in self._component_sets())
        if n_edges != len(self._cliques) - n_comps:
            raise ValueError("clique forest contains a cycle")

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def cliques(self) -> List[Clique]:
        return list(self._cliques)

    def num_cliques(self) -> int:
        return len(self._cliques)

    def __len__(self) -> int:
        return len(self._cliques)

    def __contains__(self, clique: Clique) -> bool:
        return frozenset(clique) in self._adj

    def edges(self) -> List[Tuple[Clique, Clique]]:
        out = []
        for c, nbrs in self._adj.items():
            for d in nbrs:
                if tuple(sorted(c)) < tuple(sorted(d)):
                    out.append((c, d))
        return sorted(out, key=lambda e: (tuple(sorted(e[0])), tuple(sorted(e[1]))))

    def neighbors(self, clique: Clique) -> Set[Clique]:
        return set(self._adj[frozenset(clique)])

    def degree(self, clique: Clique) -> int:
        return len(self._adj[frozenset(clique)])

    def leaves(self) -> List[Clique]:
        """Cliques of degree <= 1 (isolated cliques included)."""
        return [c for c in self._cliques if len(self._adj[c]) <= 1]

    def vertices(self) -> List[Vertex]:
        """All graph vertices covered by the bags."""
        return sorted(self._phi)

    # ------------------------------------------------------------------
    # subtree queries (phi and T(v))
    # ------------------------------------------------------------------
    def phi(self, v: Vertex) -> Set[Clique]:
        """phi(T, v): the family of maximal cliques containing v."""
        if v not in self._phi:
            raise KeyError(f"vertex {v!r} appears in no bag")
        return set(self._phi[v])

    def subtree_is_connected(self, v: Vertex) -> bool:
        """Whether T[phi(v)] is a tree (required of a tree decomposition)."""
        bags = self._phi[v]
        start = next(iter(bags))
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for d in self._adj[c]:
                if d in bags and d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen == bags

    def is_valid_decomposition(self, graph: Graph) -> bool:
        """Full tree-decomposition check against ``graph`` (used by tests).

        Conditions of Section 2: every vertex in some bag, every edge in
        some bag, every phi(v) induces a subtree.
        """
        if set(self._phi) != set(graph.vertices()):
            return False
        for u, w in graph.edges():
            if not any(u in c and w in c for c in self._phi[u]):
                return False
        return all(self.subtree_is_connected(v) for v in self._phi)

    # ------------------------------------------------------------------
    # components / linearity
    # ------------------------------------------------------------------
    def components(self) -> List[List[Clique]]:
        """Connected components, each as a sorted clique list."""
        return [
            sorted(comp, key=lambda cl: tuple(sorted(cl)))
            for comp in self._component_sets()
        ]

    def _component_sets(self) -> Iterator[Set[Clique]]:
        """Each connected component as a set, in order of its first clique."""
        seen: Set[Clique] = set()
        for c in self._cliques:
            if c in seen:
                continue
            comp = {c}
            stack = [c]
            while stack:
                for y in self._adj[stack.pop()]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            yield comp

    def is_linear_forest(self) -> bool:
        """Whether every component is a path (Theorem 1: iff G is interval)."""
        return all(len(self._adj[c]) <= 2 for c in self._cliques)

    # ------------------------------------------------------------------
    # removal (the peeling step)
    # ------------------------------------------------------------------
    def without_cliques(self, removed: Iterable[Clique]) -> "CliqueForest":
        """The forest T - R: drop the given cliques and incident edges.

        Lemmas 3-5 prove that when R is a union of maximal pendant paths
        and internal paths of large diameter, the result is again the
        clique forest of the reduced graph.
        """
        gone = {frozenset(c) for c in removed}
        unknown = gone - set(self._adj)
        if unknown:
            raise KeyError("removing cliques that are not in the forest")
        keep = [c for c in self._cliques if c not in gone]
        edges = [
            (c, d) for c, d in self.edges() if c not in gone and d not in gone
        ]
        return CliqueForest(keep, edges)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliqueForest):
            return NotImplemented
        return self._cliques == other._cliques and self.edges() == other.edges()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CliqueForest(cliques={len(self._cliques)}, edges={len(self.edges())})"


def build_clique_forest(graph: Graph) -> CliqueForest:
    """The canonical clique forest of a chordal graph (Theorem 2 + order <).

    Built by :func:`repro.graphs.kernels.clique_forest_from_peo` without W_G;
    raises :class:`~repro.graphs.chordal.NotChordalError` if not chordal.
    """
    index = graph_index(graph)
    order, bad = kernels.peo_and_violation(index)
    if bad is not None:
        raise _not_chordal(index.verts[bad])
    id_cliques, id_edges = kernels.clique_forest_from_peo(index, order)
    cliques = [frozenset(index.labels_of(c)) for c in id_cliques]
    return CliqueForest(cliques, [(cliques[i], cliques[j]) for i, j in id_edges])
