"""Clique forest construction: validity, uniqueness, paper's Figure 2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import (
    CliqueForest,
    build_clique_forest,
    edge_key,
    is_interval_graph,
    sigma,
)
from repro.graphs import (
    PAPER_CLIQUES,
    complete_graph,
    cycle_graph,
    paper_example_graph,
    path_graph,
    random_chordal_graph,
    random_interval_graph,
    random_k_tree,
    random_tree,
    star_graph,
)
from tests.oracles import weighted_clique_intersection_edges


class TestWCIG:
    def test_sigma_sorts_members(self):
        assert sigma(frozenset({3, 1, 2})) == (1, 2, 3)

    def test_edge_key_weight_first(self):
        a, b = frozenset({1, 2, 3}), frozenset({2, 3, 4})
        c, d = frozenset({4, 5}), frozenset({5, 6})
        assert edge_key(a, b)[0] == 2
        assert edge_key(c, d)[0] == 1
        assert edge_key(a, b) > edge_key(c, d)

    def test_edge_key_symmetric(self):
        a, b = frozenset({1, 2}), frozenset({2, 3})
        assert edge_key(a, b) == edge_key(b, a)

    def test_paper_wcig_weights(self):
        g = paper_example_graph()
        cliques, edges = weighted_clique_intersection_edges(g)
        weights = {
            (frozenset(c1), frozenset(c2)): w for c1, c2, w in edges
        }

        def w(l1, l2):
            key = (PAPER_CLIQUES[l1], PAPER_CLIQUES[l2])
            return weights.get(key, weights.get((key[1], key[0])))

        # Weights read off Figure 2.
        assert w("C1", "C2") == 2
        assert w("C2", "C5") == 2
        assert w("C3", "C4") == 2
        assert w("C2", "C3") == 1
        assert w("C5", "C6") == 1
        assert w("C13", "C14") == 1
        assert w("C14", "C15") == 1
        assert w("C10", "C11") == 2
        assert w("C1", "C5") == 1
        # Non-intersecting cliques have no WCIG edge.
        assert w("C1", "C6") is None


class TestCliqueForestStructure:
    def test_forest_rejects_cycles(self):
        a, b, c = frozenset({1}), frozenset({2}), frozenset({3})
        with pytest.raises(ValueError):
            CliqueForest([a, b, c], [(a, b), (b, c), (c, a)])

    def test_forest_rejects_unknown_edges(self):
        a, b = frozenset({1}), frozenset({2})
        with pytest.raises(ValueError):
            CliqueForest([a], [(a, b)])

    def test_forest_rejects_self_edge(self):
        a = frozenset({1})
        with pytest.raises(ValueError):
            CliqueForest([a], [(a, a)])

    def test_phi_unknown_vertex(self):
        forest = build_clique_forest(path_graph(3))
        with pytest.raises(KeyError):
            forest.phi(99)

    def test_path_graph_forest_is_path_of_edges(self):
        g = path_graph(5)
        forest = build_clique_forest(g)
        assert forest.num_cliques() == 4  # the 4 edges
        assert forest.is_linear_forest()
        assert len(forest.leaves()) == 2

    def test_complete_graph_single_bag(self):
        forest = build_clique_forest(complete_graph(6))
        assert forest.num_cliques() == 1
        assert forest.leaves() == forest.cliques()

    def test_star_graph(self):
        forest = build_clique_forest(star_graph(5))
        assert forest.num_cliques() == 5
        # Every bag is an edge through the center; forest is a tree.
        assert len(forest.components()) == 1

    def test_disconnected_graph_gives_forest(self):
        from repro.graphs import Graph

        g = Graph(edges=[(1, 2), (3, 4)])
        forest = build_clique_forest(g)
        assert len(forest.components()) == 2

    def test_isolated_vertex_bag(self):
        from repro.graphs import Graph

        g = Graph(vertices=[7])
        forest = build_clique_forest(g)
        assert forest.cliques() == [frozenset({7})]


class TestFigure2:
    """The bold edges of Figure 2: the canonical clique forest."""

    def test_forest_edges_match_canonical_order(self):
        """The unique MWSF under the paper's order ``<``.

        Weight-2 edges are forced (they never close a cycle here); among
        the weight-1 ties the order ``<`` forces, e.g., C3-C5 over C2-C3
        (le (2,4,8) > (2,3,4)) and C14-C15 + C13-C15 over C13-C14
        (le (21,22) beats (19,20,21); he (21,23) beats (21,22)).
        """
        g = paper_example_graph()
        forest = build_clique_forest(g)
        C = PAPER_CLIQUES
        expected = {
            frozenset((C["C1"], C["C2"])),
            frozenset((C["C2"], C["C5"])),
            frozenset((C["C3"], C["C5"])),
            frozenset((C["C3"], C["C4"])),
            frozenset((C["C5"], C["C6"])),
            frozenset((C["C6"], C["C7"])),
            frozenset((C["C7"], C["C8"])),
            frozenset((C["C8"], C["C9"])),
            frozenset((C["C9"], C["C10"])),
            frozenset((C["C10"], C["C11"])),
            frozenset((C["C11"], C["C12"])),
            frozenset((C["C11"], C["C13"])),
            frozenset((C["C13"], C["C15"])),
            frozenset((C["C14"], C["C15"])),
        }
        ours = {frozenset(e) for e in forest.edges()}
        # The forest is a spanning tree on 15 cliques: 14 edges.
        assert len(ours) == 14
        assert ours == expected

    def test_forest_is_valid_decomposition(self):
        g = paper_example_graph()
        forest = build_clique_forest(g)
        assert forest.is_valid_decomposition(g)


class TestValidityProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 35))
    def test_random_chordal_forest_is_valid(self, seed, n):
        g = random_chordal_graph(n, seed=seed)
        forest = build_clique_forest(g)
        assert forest.is_valid_decomposition(g)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 30), k=st.integers(1, 3))
    def test_k_tree_forest_is_valid(self, seed, n, k):
        g = random_k_tree(n, k, seed=seed)
        forest = build_clique_forest(g)
        assert forest.is_valid_decomposition(g)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    def test_deterministic_rebuild(self, seed, n):
        g = random_chordal_graph(n, seed=seed)
        assert build_clique_forest(g) == build_clique_forest(g)


class TestIntervalRecognition:
    def test_paths_are_interval(self):
        assert is_interval_graph(path_graph(10))

    def test_interval_generator_recognized(self):
        for seed in range(6):
            g = random_interval_graph(25, seed=seed, max_length=0.2)
            assert is_interval_graph(g)

    def test_star_is_interval_but_spider_is_not(self):
        assert is_interval_graph(star_graph(4))
        # Subdivided star (spider with legs of length 2) is not interval.
        from repro.graphs import Graph

        g = Graph(edges=[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert not is_interval_graph(g)

    def test_cycle_not_interval(self):
        assert not is_interval_graph(cycle_graph(5))

    def test_paper_graph_not_interval(self):
        # Its clique forest has branching cliques (e.g. C2), so not linear.
        assert not is_interval_graph(paper_example_graph())
