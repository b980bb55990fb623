"""Unit tests for the core Graph data structure."""

import pytest

from repro.graphs import Graph, path_graph, complete_graph, cycle_graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert len(g) == 0
        assert g.num_edges() == 0
        assert g.vertices() == []
        assert g.edges() == []

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex(1)
        g.add_vertex(1)
        assert g.vertices() == [1]

    def test_add_edge_creates_vertices(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.vertices() == [1, 2]
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(3, 3)

    def test_add_clique(self):
        g = Graph()
        g.add_clique([1, 2, 3])
        assert g.num_edges() == 3
        assert g.is_clique([1, 2, 3])

    def test_constructor_with_edges(self):
        g = Graph(vertices=[5], edges=[(1, 2), (2, 3)])
        assert g.vertices() == [1, 2, 3, 5]
        assert g.num_edges() == 2

    def test_copy_is_independent(self):
        g = path_graph(3)
        h = g.copy()
        h.add_edge(0, 2)
        assert not g.has_edge(0, 2)
        assert h.has_edge(0, 2)

    def test_equality(self):
        assert path_graph(4) == path_graph(4)
        assert path_graph(4) != path_graph(5)
        assert path_graph(3) != cycle_graph(3)


class TestRemoval:
    def test_remove_vertex(self):
        g = path_graph(3)
        g.remove_vertex(1)
        assert g.vertices() == [0, 2]
        assert g.num_edges() == 0

    def test_remove_missing_vertex_raises(self):
        g = path_graph(2)
        with pytest.raises(KeyError):
            g.remove_vertex(99)

    def test_remove_edge(self):
        g = path_graph(3)
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_remove_vertices(self):
        g = complete_graph(5)
        g.remove_vertices([0, 1])
        assert g.vertices() == [2, 3, 4]
        assert g.num_edges() == 3


class TestNeighborhoods:
    def test_open_and_closed(self):
        g = path_graph(5)
        assert g.neighbors(2) == {1, 3}
        assert g.closed_neighborhood(2) == {1, 2, 3}

    def test_neighbors_returns_copy(self):
        g = path_graph(3)
        nbrs = g.neighbors(1)
        nbrs.add(99)
        assert g.neighbors(1) == {0, 2}

    def test_set_neighborhood(self):
        g = path_graph(6)
        assert g.set_neighborhood([2, 3]) == {1, 4}
        assert g.closed_set_neighborhood([2, 3]) == {1, 2, 3, 4}

    def test_degrees(self):
        g = path_graph(4)
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.max_degree() == 2
        assert Graph().max_degree() == 0


class TestPredicates:
    def test_is_clique(self):
        g = complete_graph(4)
        assert g.is_clique([0, 1, 2, 3])
        g.remove_edge(0, 1)
        assert not g.is_clique([0, 1, 2, 3])
        assert g.is_clique([])
        assert g.is_clique([2])

    def test_is_independent_set(self):
        g = path_graph(5)
        assert g.is_independent_set([0, 2, 4])
        assert not g.is_independent_set([0, 1])


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        g = cycle_graph(5)
        h = g.induced_subgraph([0, 1, 2])
        assert h.edges() == [(0, 1), (1, 2)]

    def test_induced_subgraph_unknown_vertex(self):
        with pytest.raises(KeyError):
            path_graph(3).induced_subgraph([0, 99])

    def test_induced_subgraph_names_the_missing_vertices_sorted(self):
        with pytest.raises(KeyError, match=r"vertices not in graph: \[7, 42, 99\]"):
            path_graph(3).induced_subgraph([99, 0, 42, 7])

    def test_induced_subgraph_reads_only_the_requested_vertices(self):
        """The cost follows the requested set, not the host graph."""

        class CountingDict(dict):
            reads = 0

            def __contains__(self, v):
                CountingDict.reads += 1
                return super().__contains__(v)

            def __iter__(self):
                raise AssertionError("the host's vertex set was copied")

        g = path_graph(1000)
        g._adj = CountingDict(g._adj)
        h = g.induced_subgraph([10, 11, 12])
        assert h.edges() == [(10, 11), (11, 12)]
        assert CountingDict.reads == 3

    def test_subgraph_without(self):
        g = path_graph(5)
        h = g.subgraph_without([2])
        assert h.vertices() == [0, 1, 3, 4]
        assert h.edges() == [(0, 1), (3, 4)]

    def test_power(self):
        g = path_graph(5)
        g2 = g.power(2)
        assert g2.has_edge(0, 2)
        assert not g2.has_edge(0, 3)
        g4 = g.power(4)
        assert g4.num_edges() == 10  # complete

    def test_power_invalid(self):
        with pytest.raises(ValueError):
            path_graph(3).power(0)


class TestTraversal:
    def test_bfs_distances(self):
        g = path_graph(6)
        dist = g.bfs_distances(0)
        assert dist == {i: i for i in range(6)}

    def test_bfs_cutoff(self):
        g = path_graph(10)
        dist = g.bfs_distances(0, cutoff=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_ball(self):
        g = path_graph(10)
        assert g.ball(5, 2) == {3, 4, 5, 6, 7}

    def test_distance_disconnected(self):
        g = Graph(vertices=[1, 2])
        assert g.distance(1, 2) is None

    def test_connected_components(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        g.add_vertex(9)
        comps = g.connected_components()
        assert comps == [{1, 2}, {3, 4}, {9}]

    def test_diameter(self):
        assert path_graph(7).diameter() == 6
        assert complete_graph(4).diameter() == 1

    def test_diameter_disconnected_raises(self):
        g = Graph(vertices=[1, 2])
        with pytest.raises(ValueError):
            g.diameter()

    def test_eccentricity_within(self):
        g = path_graph(9)
        assert g.eccentricity_within([2, 6]) == 4
        assert g.eccentricity_within([4]) == 0
