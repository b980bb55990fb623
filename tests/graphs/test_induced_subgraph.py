"""``Graph.induced_subgraph`` against the edge-by-edge builder it replaced.

The library builds G[U] as one set intersection per kept vertex; the
oracle, ``tests.oracles.induced_subgraph_by_edges``, adds every kept
vertex and then every kept edge.  Both must give the same graph with the
same vertex insertion order, on chordal, interval and general graphs,
with integer or string labels, for any subset including the empty and
singleton ones.  The builder also must not tie the subgraph to its host:
no neighbour set is shared, and the subgraph's own mutations bump its
version and invalidate its cached index.  ``tests/graphs/test_adjacency.py``
pins the ``KeyError`` naming unknown vertices.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    graph_index,
    path_graph,
    random_chordal_graph,
    random_interval_graph,
)
from tests.conftest import string_labels
from tests.oracles import induced_subgraph_by_edges


def _general(n, seed):
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    return g


FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "interval": lambda n, seed: random_interval_graph(n, seed=seed),
    "general": _general,
}


@st.composite
def graph_and_subset(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(min_value=2, max_value=30))
    g = FAMILIES[family](n, draw(st.integers(min_value=0, max_value=10**6)))
    if draw(st.booleans()):
        g = string_labels(g)
    verts = g.vertices()
    subset = draw(
        st.one_of(
            st.just([]),
            st.sampled_from(verts).map(lambda v: [v]),
            st.lists(st.sampled_from(verts), max_size=len(verts) + 3),
        )
    )
    return g, subset


def _same_graph(h, ref):
    assert h == ref
    assert h.edges() == ref.edges()
    # same vertex insertion order as the edge-by-edge builder
    assert list(h.adjacency()) == list(ref.adjacency())


@settings(max_examples=150, deadline=None)
@given(graph_and_subset())
def test_matches_the_edge_by_edge_builder(case):
    g, subset = case
    _same_graph(g.induced_subgraph(subset), induced_subgraph_by_edges(g, subset))


@settings(max_examples=50, deadline=None)
@given(graph_and_subset())
def test_subgraph_without_matches_the_oracle(case):
    g, dropped = case
    # the kept set as subgraph_without forms it, so both iterate alike
    kept = set(g.adjacency()) - set(dropped)
    _same_graph(g.subgraph_without(dropped), induced_subgraph_by_edges(g, kept))


@pytest.mark.parametrize("subset", [[], [3], range(10)])
def test_empty_singleton_and_whole_sets(subset):
    g = path_graph(10)
    h = g.induced_subgraph(subset)
    _same_graph(h, induced_subgraph_by_edges(g, subset))
    assert h.num_vertices() == len(subset)


def test_no_neighbour_set_is_shared_with_the_host():
    g = path_graph(6)
    h = g.induced_subgraph(range(6))
    assert all(h.neighbors_view(v) is not g.neighbors_view(v) for v in h)


def test_mutating_the_subgraph_leaves_the_host_unchanged():
    g = path_graph(6)
    before = g.adjacency()
    h = g.induced_subgraph([1, 2, 3, 4])
    h.add_edge(1, 4)
    h.remove_edge(2, 3)
    h.remove_vertex(3)
    assert g.adjacency() == before
    assert h.edges() == [(1, 2), (1, 4)]


def test_mutating_the_host_leaves_the_subgraph_unchanged():
    g = path_graph(6)
    h = g.induced_subgraph([1, 2, 3, 4])
    before = h.adjacency()
    g.add_edge(1, 4)
    g.remove_edge(2, 3)
    g.remove_vertex(3)
    assert h.adjacency() == before


def test_a_later_mutation_bumps_the_version_and_invalidates_the_index():
    h = path_graph(6).induced_subgraph([0, 1, 2, 3])
    index = graph_index(h)
    assert graph_index(h) is index
    version = h.version
    h.add_edge(0, 3)
    assert h.version > version
    fresh = graph_index(h)
    assert fresh is not index
    assert 3 in fresh.indices[fresh.indptr[0]:fresh.indptr[1]]
    assert 3 not in index.indices[index.indptr[0]:index.indptr[1]]
