"""Union-find and maximum-weight spanning forests, against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import UnionFind, maximum_weight_spanning_forest
from repro.graphs import random_chordal_graph
from tests.oracles import weighted_clique_intersection_edges


class TestUnionFind:
    def test_basic_merging(self):
        uf = UnionFind([1, 2, 3, 4])
        assert uf.union(1, 2)
        assert not uf.union(2, 1)
        assert uf.find(1) == uf.find(2)
        assert uf.find(3) != uf.find(1)

    def test_transitive(self):
        uf = UnionFind("abcd")
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("b", "c")
        assert len({uf.find(x) for x in "abcd"}) == 1

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add(5)
        uf.add(5)
        assert uf.find(5) == 5


class TestSpanningForest:
    def _total_weight(self, edges):
        return sum(len(a & b) for a, b in edges)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    def test_weight_matches_networkx_mst(self, seed, n):
        """Our canonical forest achieves the maximum spanning weight."""
        g = random_chordal_graph(n, seed=seed)
        cliques, edges = weighted_clique_intersection_edges(g)
        chosen = maximum_weight_spanning_forest(cliques, edges)

        wg = nx.Graph()
        wg.add_nodes_from(range(len(cliques)))
        pos = {c: i for i, c in enumerate(cliques)}
        for c1, c2, w in edges:
            wg.add_edge(pos[c1], pos[c2], weight=w)
        nx_weight = 0
        for comp in nx.connected_components(wg):
            mst = nx.maximum_spanning_tree(wg.subgraph(comp), weight="weight")
            nx_weight += sum(d["weight"] for _, _, d in mst.edges(data=True))
        assert self._total_weight(chosen) == nx_weight

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    def test_forest_size(self, seed, n):
        """A spanning forest has (cliques - components) edges."""
        g = random_chordal_graph(n, seed=seed)
        cliques, edges = weighted_clique_intersection_edges(g)
        chosen = maximum_weight_spanning_forest(cliques, edges)
        components = len(g.connected_components())
        assert len(chosen) == len(cliques) - components

    def test_deterministic(self):
        g = random_chordal_graph(25, seed=3)
        cliques, edges = weighted_clique_intersection_edges(g)
        a = maximum_weight_spanning_forest(cliques, edges)
        b = maximum_weight_spanning_forest(cliques, list(reversed(edges)))
        assert set(map(frozenset, a)) == set(map(frozenset, b))
