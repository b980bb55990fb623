"""Stock message-passing programs: BFS, leader election, convergecast."""

import pytest

from repro.graphs import (
    binary_tree,
    caterpillar,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_tree,
    star_graph,
)
from repro.localmodel.programs import bfs_layers, elect_leader, tree_count


class TestBFSLayers:
    def test_matches_centralized_bfs(self):
        g = random_chordal_graph(30, seed=3)
        root = g.vertices()[0]
        layers = bfs_layers(g, root)
        expected = g.bfs_distances(root)
        for v in g.vertices():
            assert layers[v] == expected.get(v)

    def test_unreachable_nodes_get_none(self):
        from repro.graphs import Graph

        g = Graph(edges=[(1, 2)])
        g.add_vertex(9)
        layers = bfs_layers(g, 1)
        assert layers[9] is None
        assert layers[2] == 1

    def test_budget_truncates_knowledge(self):
        g = path_graph(20)
        layers = bfs_layers(g, 0, budget=5)
        assert layers[4] == 4
        assert layers[19] is None  # beyond the round budget

    def test_root_not_in_graph_is_named(self):
        with pytest.raises(ValueError, match="root 'nope' is not a vertex"):
            bfs_layers(path_graph(4), "nope")

    def test_float_budget_is_named(self):
        with pytest.raises(TypeError, match="budget must be an int, got float"):
            bfs_layers(path_graph(4), 0, budget=1.5)

    def test_negative_budget_is_named(self):
        with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
            bfs_layers(path_graph(4), 0, budget=-1)

    def test_bool_budget_is_named(self):
        with pytest.raises(TypeError, match="budget must be an int, got bool"):
            bfs_layers(path_graph(4), 0, budget=True)

    def test_zero_budget_knows_only_the_root(self):
        assert bfs_layers(path_graph(3), 1, budget=0) == {0: None, 1: 0, 2: None}


class TestLeaderElection:
    def test_everyone_agrees_on_minimum(self):
        for graph in (cycle_graph(15), random_tree(40, seed=1), star_graph(9)):
            views = elect_leader(graph)
            minimum = min(graph.vertices())
            assert set(views.values()) == {minimum}

    def test_short_budget_leaves_disagreement(self):
        g = path_graph(30)
        views = elect_leader(g, budget=3)
        assert views[29] != 0  # node 29 cannot have heard from node 0

    def test_float_budget_is_named(self):
        with pytest.raises(TypeError, match="budget must be an int, got float"):
            elect_leader(path_graph(5), budget=1.5)

    def test_negative_budget_is_named(self):
        with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
            elect_leader(path_graph(5), budget=-1)

    def test_bool_budget_is_named(self):
        with pytest.raises(TypeError, match="budget must be an int, got bool"):
            elect_leader(path_graph(5), budget=True)

    def test_str_budget_is_named(self):
        with pytest.raises(TypeError, match="budget must be an int, got str"):
            elect_leader(path_graph(5), budget="3")

    def test_zero_budget_leaves_every_node_its_own_leader(self):
        assert elect_leader(path_graph(3), budget=0) == {0: 0, 1: 1, 2: 2}


class TestTreeCount:
    def test_counts_various_trees(self):
        for tree in (path_graph(17), binary_tree(4), caterpillar(8, 2), star_graph(6)):
            root = tree.vertices()[0]
            assert tree_count(tree, root) == len(tree)

    def test_single_vertex(self):
        from repro.graphs import Graph

        assert tree_count(Graph(vertices=[5]), 5) == 1

    def test_any_root_works(self):
        tree = random_tree(25, seed=8)
        for root in list(tree.vertices())[:5]:
            assert tree_count(tree, root) == 25

    @pytest.mark.parametrize("root", ["nope", 99, None])
    def test_root_not_in_tree_is_named(self, root):
        with pytest.raises(ValueError, match=f"root {root!r} is not a vertex"):
            tree_count(path_graph(5), root)

    def test_single_vertex_root_is_checked(self):
        from repro.graphs import Graph

        with pytest.raises(ValueError, match="root 6 is not a vertex"):
            tree_count(Graph(vertices=[5]), 6)
