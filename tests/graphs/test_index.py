"""Tests for the GraphIndex snapshot and its version-based caching."""

import pytest

from repro.graphs import Graph, GraphIndex, graph_index, path_graph, random_k_tree


def row(idx, i):
    """The CSR row of id ``i``: its sorted neighbour ids."""
    return idx.indices[idx.indptr[i]:idx.indptr[i + 1]]


class TestGraphIndexStructure:
    def test_ids_follow_sorted_label_order(self):
        g = Graph(edges=[(30, 10), (10, 20), (20, 5)])
        idx = graph_index(g)
        assert list(idx.verts) == [5, 10, 20, 30]
        assert idx.vid == {5: 0, 10: 1, 20: 2, 30: 3}
        # order isomorphism: i < j iff verts[i] < verts[j]
        assert all(
            idx.verts[i] < idx.verts[j]
            for i in range(idx.n)
            for j in range(i + 1, idx.n)
        )

    def test_csr_rows_match_adjacency_and_are_sorted(self):
        g = random_k_tree(25, 3, seed=2)
        idx = graph_index(g)
        assert idx.indptr[0] == 0 and idx.indptr[-1] == len(idx.indices) == 2 * idx.m
        for v in g.vertices():
            i = idx.vid[v]
            ids = row(idx, i)
            assert ids == sorted(ids)
            assert [idx.verts[j] for j in ids] == sorted(g.neighbors(v))
            assert idx.degrees[i] == len(ids) == g.degree(v)

    def test_csr_membership_matches_graph(self):
        g = random_k_tree(20, 2, seed=5)
        idx = graph_index(g)
        for u in g.vertices():
            ids = set(row(idx, idx.vid[u]))
            for v in g.vertices():
                if u != v:
                    assert (idx.vid[v] in ids) == g.has_edge(u, v)

    def test_counts(self):
        g = path_graph(7)
        idx = graph_index(g)
        assert idx.n == len(idx) == 7
        assert idx.m == g.num_edges() == 6

    def test_empty_graph(self):
        idx = graph_index(Graph())
        assert idx.n == 0 and idx.m == 0
        assert idx.verts == ()

    def test_label_translation_roundtrip(self):
        g = Graph(edges=[("b", "a"), ("a", "c")])
        idx = graph_index(g)
        ids = idx.ids_of(["c", "a"])
        assert idx.labels_of(ids) == ["c", "a"]

    def test_ids_of_unknown_label_raises(self):
        idx = graph_index(path_graph(3))
        with pytest.raises(KeyError):
            idx.ids_of([99])


class TestGraphIndexCaching:
    def test_same_object_until_mutation(self):
        g = path_graph(5)
        assert graph_index(g) is graph_index(g)

    def test_mutation_invalidates(self):
        g = path_graph(5)
        idx = graph_index(g)
        g.add_edge(0, 4)
        idx2 = graph_index(g)
        assert idx2 is not idx
        assert idx2.vid[4] in row(idx2, idx2.vid[0])
        # the old snapshot still describes the older graph
        assert idx.vid[4] not in row(idx, idx.vid[0])

    def test_noop_add_vertex_keeps_cache(self):
        g = path_graph(5)
        idx = graph_index(g)
        g.add_vertex(0)  # already present: no version bump
        assert graph_index(g) is idx

    def test_remove_invalidates(self):
        g = path_graph(5)
        idx = graph_index(g)
        g.remove_vertex(4)
        assert graph_index(g).n == idx.n - 1

    def test_copy_does_not_share_cache(self):
        g = path_graph(5)
        idx = graph_index(g)
        h = g.copy()
        idx_h = graph_index(h)
        assert idx_h is not idx
        h.add_edge(0, 4)
        assert graph_index(g) is idx  # original cache untouched
        assert graph_index(h) is not idx_h

    def test_constructor_directly_usable(self):
        g = path_graph(4)
        assert row(GraphIndex(g), 0) == [1]


class TestGraphVersionedViews:
    """The satellite Graph additions: cached vertices(), neighbors_view."""

    def test_vertices_cached_and_refreshed(self):
        g = Graph(edges=[(2, 1)])
        assert g.vertices() == [1, 2]
        g.add_vertex(0)
        assert g.vertices() == [0, 1, 2]
        g.remove_vertex(1)
        assert g.vertices() == [0, 2]

    def test_vertices_returns_a_fresh_copy(self):
        g = path_graph(4)
        first = g.vertices()
        first.append(99)
        assert g.vertices() == [0, 1, 2, 3]

    def test_version_counter_semantics(self):
        g = Graph()
        v0 = g.version
        g.add_vertex(1)
        assert g.version > v0
        v1 = g.version
        g.add_vertex(1)  # no-op
        assert g.version == v1
        g.add_edge(1, 2)
        assert g.version > v1
        v2 = g.version
        g.remove_edge(1, 2)
        assert g.version > v2

    def test_neighbors_view_tracks_without_copy(self):
        g = path_graph(4)
        view = g.neighbors_view(1)
        assert set(view) == {0, 2}
        assert view is g.neighbors_view(1)  # no per-call copy
        copy = g.neighbors(1)
        assert copy is not g.neighbors(1)

    def test_iter_neighbors(self):
        g = path_graph(4)
        assert sorted(g.iter_neighbors(1)) == [0, 2]
