"""The peeling process: layer structure, Lemma 6/7 properties."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import is_interval_graph
from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.graphs import (
    Graph,
    caterpillar,
    complete_graph,
    paper_example_graph,
    path_graph,
    random_chordal_graph,
    random_k_tree,
    random_tree,
)


def full_peel(graph, threshold=4):
    return peel_chordal_graph(graph, internal_rule=diameter_rule(threshold))


class TestBasicPeeling:
    def test_path_graph_single_layer(self):
        peeling = full_peel(path_graph(20))
        assert peeling.num_layers() == 1
        assert peeling.exhausted
        assert peeling.nodes_of_layer(1) == set(range(20))

    def test_complete_graph_single_layer(self):
        peeling = full_peel(complete_graph(6))
        assert peeling.num_layers() == 1

    def test_empty_remaining_after_exhaustive_peel(self):
        g = random_chordal_graph(30, seed=2)
        peeling = full_peel(g)
        assert peeling.exhausted
        assert peeling.remaining_nodes() == set()
        assert set(peeling.layer_of) == set(g.vertices())

    def test_max_iterations_stops_early(self):
        g = caterpillar(spine=40, legs_per_vertex=2)
        peeling = peel_chordal_graph(
            g, internal_rule=diameter_rule(10_000), max_iterations=1
        )
        assert not peeling.exhausted or peeling.num_layers() <= 1
        assert peeling.num_layers() == 1
        # legs and spine-path remnants may remain
        assert peeling.remaining_nodes() | set(peeling.layer_of) == set(g.vertices())

    def test_paper_example_layers(self):
        g = paper_example_graph()
        peeling = full_peel(g, threshold=4)
        # The example peels completely within the log-bound.
        assert peeling.num_layers() <= math.ceil(math.log2(len(g))) + 1
        assert peeling.exhausted


class TestLayerStructure:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
    def test_layers_bounded_by_log_n(self, seed, n):
        """Lemma 6 / Corollary 1: at most ceil(log2 n) + 1 layers."""
        g = random_chordal_graph(n, seed=seed)
        peeling = full_peel(g)
        assert peeling.num_layers() <= math.ceil(math.log2(max(2, len(g)))) + 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 35))
    def test_layers_induce_interval_graphs(self, seed, n):
        """Lemma 7: every layer induces an interval graph."""
        g = random_chordal_graph(n, seed=seed)
        peeling = full_peel(g)
        for i in range(1, peeling.num_layers() + 1):
            layer = peeling.nodes_of_layer(i)
            assert is_interval_graph(g.induced_subgraph(layer))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 35))
    def test_neighbors_of_paths_live_higher(self, seed, n):
        """Lemma 11: neighbors of W_P in the remaining graph G_i sit in
        strictly higher layers -- equivalently, no neighbor outside W_P
        shares W_P's layer."""
        g = random_chordal_graph(n, seed=seed)
        peeling = full_peel(g)
        for layer_paths in peeling.layers:
            for peeled in layer_paths:
                for u in g.set_neighborhood(peeled.nodes):
                    assert peeling.layer_of[u] != peeled.layer

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 35))
    def test_same_layer_paths_are_non_adjacent(self, seed, n):
        g = random_chordal_graph(n, seed=seed)
        peeling = full_peel(g)
        for layer_paths in peeling.layers:
            for i, a in enumerate(layer_paths):
                for b in layer_paths[i + 1:]:
                    assert not (g.closed_set_neighborhood(a.nodes) & set(b.nodes))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 30))
    def test_layer_bags_are_valid_decompositions(self, seed, n):
        g = random_chordal_graph(n, seed=seed)
        peeling = full_peel(g)
        for layer_paths in peeling.layers:
            for peeled in layer_paths:
                bags = peeled.layer_bags()
                bags.validate(g.induced_subgraph(peeled.nodes))


class TestForestEvolution:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(2, 28))
    def test_lemma5_intermediate_forests(self, seed, n):
        """T_{i+1} = T_1 minus the removed paths is the clique forest of
        G[U_{i+1}] at every step."""
        from repro.cliquetree import build_clique_forest

        g = random_chordal_graph(n, seed=seed)
        peeling = full_peel(g)
        t1 = build_clique_forest(g)
        removed = set()
        removed_cliques = []
        for layer_paths in peeling.layers:
            for peeled in layer_paths:
                removed |= peeled.nodes
                removed_cliques.extend(peeled.cliques)
            remaining = set(g.vertices()) - removed
            forest = t1.without_cliques(removed_cliques)
            if remaining:
                assert forest == build_clique_forest(g.induced_subgraph(remaining))
            else:
                assert len(forest) == 0

    def test_trees_peel_in_log_layers(self):
        for seed in range(5):
            g = random_tree(200, seed=seed)
            peeling = full_peel(g)
            assert peeling.num_layers() <= math.ceil(math.log2(200)) + 1


class TestPeelingBoundary:
    """Thresholds and iteration caps are ints >= 1, named when they are not."""

    @pytest.fixture
    def g(self):
        return random_k_tree(30, 2, seed=1)

    @pytest.mark.parametrize("threshold", ["3", None, 1.5, True, 0, -1])
    def test_peeling_layers_threshold(self, g, threshold):
        """A bare threshold where the rule belongs is named, not called.

        The layers of the peeling come from one entry point, which takes a
        rule such as ``diameter_rule(t)``.  A path graph has no internal
        path, so its peeling never calls the rule; the check names it
        there too.
        """
        with pytest.raises(
            TypeError, match=f"internal_rule must be a callable rule, got {threshold!r}"
        ):
            peel_chordal_graph(g, threshold)
        with pytest.raises(TypeError, match="internal_rule must be a callable rule"):
            peel_chordal_graph(path_graph(5), threshold)

    @pytest.mark.parametrize("threshold", ["3", None, 1.5, True, 0, -1])
    def test_diameter_rule_threshold(self, threshold):
        with pytest.raises(
            ValueError, match=f"threshold must be >= 1 and an integer, got {threshold!r}"
        ):
            diameter_rule(threshold)

    @pytest.mark.parametrize("max_iterations", [-2, 0, 1.5, True])
    def test_peeling_layers_max_iterations(self, g, max_iterations):
        """The Algorithm 6 shape checks its iteration cap too."""
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            peel_chordal_graph(
                g,
                diameter_rule(3),
                max_iterations=max_iterations,
                last_iteration_rule=diameter_rule(1),
            )

    @pytest.mark.parametrize("max_iterations", [-2, 0, 1.5, True])
    def test_peel_chordal_graph_max_iterations(self, g, max_iterations):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            peel_chordal_graph(g, diameter_rule(3), max_iterations=max_iterations)

    @pytest.mark.parametrize("last_threshold", ["3", 0, -1, 2.0, False])
    def test_peeling_layers_last_threshold(self, g, last_threshold):
        """A bare last threshold where the last rule belongs is named."""
        with pytest.raises(
            TypeError,
            match=f"last_iteration_rule must be a callable rule, got {last_threshold!r}",
        ):
            peel_chordal_graph(
                g, diameter_rule(3), max_iterations=2, last_iteration_rule=last_threshold
            )

    def test_last_iteration_rule_needs_max_iterations(self, g):
        with pytest.raises(ValueError, match="last_iteration_rule needs max_iterations"):
            peel_chordal_graph(g, diameter_rule(3), last_iteration_rule=diameter_rule(1))

    def test_smallest_valid_values_run(self, g):
        capped = peel_chordal_graph(
            g, diameter_rule(1), max_iterations=1, last_iteration_rule=diameter_rule(1)
        )
        plain = peel_chordal_graph(g, diameter_rule(1), max_iterations=1)
        assert capped == plain
        assert capped.num_layers() == 1
