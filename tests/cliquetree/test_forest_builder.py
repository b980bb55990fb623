"""The clique-forest builder: no W_G, the same forest as Kruskal over all of it.

``build_clique_forest`` (and through it the peeling's T_1) takes its
forest from :func:`repro.graphs.kernels.clique_forest_from_peo`, which runs
Kruskal over only the clique pairs sharing one clique tree's separator.
The oracle is the paper's statement: Kruskal under ``<`` over every edge
of W_G (``tests.oracles.reference_clique_forest`` and its id-space twin).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import build_clique_forest
from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.graphs import (
    Graph,
    NotChordalError,
    cycle_graph,
    graph_index,
    random_chordal_graph,
    random_interval_graph,
    random_k_tree,
    random_split_graph,
    unit_interval_chain,
)
from repro.graphs import kernels
from tests import oracles

FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "interval": lambda n, seed: random_interval_graph(n, seed=seed),
    "unit-chain": lambda n, seed: unit_interval_chain(n, seed=seed),
    "split": lambda n, seed: random_split_graph(n, seed=seed),
    "1-tree": lambda n, seed: random_k_tree(max(n, 2), 1, seed=seed),
    "3-tree": lambda n, seed: random_k_tree(max(n, 4), 3, seed=seed),
    "5-tree": lambda n, seed: random_k_tree(max(n, 6), 5, seed=seed),
}


def shuffled(graph, seed, offset=0):
    """``graph`` relabeled by a seeded permutation of offset .. offset+n-1."""
    labels = list(range(offset, offset + len(graph)))
    random.Random(seed).shuffle(labels)
    relabel = dict(zip(graph.vertices(), labels))
    return Graph(
        vertices=relabel.values(),
        edges=[(relabel[u], relabel[v]) for u, v in graph.edges()],
    )


def kernel_forest(graph):
    index = graph_index(graph)
    order, bad = kernels.peo_and_violation(index)
    assert bad is None
    return kernels.clique_forest_from_peo(index, order), index, order


def as_clique_pairs(cliques, edges):
    return sorted(tuple(sorted((cliques[i], cliques[j]))) for i, j in edges)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        n=st.integers(1, 45),
        seed=st.integers(0, 10_000),
    )
    def test_forest_equals_kruskal_over_all_of_wg(self, family, n, seed):
        g = shuffled(FAMILIES[family](n, seed), seed)
        assert build_clique_forest(g) == oracles.reference_clique_forest(g)

    @settings(max_examples=30, deadline=None)
    @given(
        families=st.lists(st.sampled_from(sorted(FAMILIES)), min_size=1, max_size=3),
        n=st.integers(1, 25),
        isolated=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    def test_disconnected_with_isolated_vertices(self, families, n, isolated, seed):
        vertices, edges = list(range(10_000, 10_000 + isolated)), []
        for part, family in enumerate(families):
            piece = shuffled(FAMILIES[family](n, seed + part), seed, 1000 * part)
            vertices += piece.vertices()
            edges += piece.edges()
        g = shuffled(Graph(vertices=vertices, edges=edges), seed)
        forest = build_clique_forest(g)
        assert forest == oracles.reference_clique_forest(g)
        assert len(forest.components()) == len(g.connected_components())

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_singleton(self, n):
        g = Graph(vertices=range(n))
        forest = build_clique_forest(g)
        assert forest == oracles.reference_clique_forest(g)
        assert len(forest) == n and forest.edges() == []

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 45),
           seed=st.integers(0, 10_000))
    def test_kernel_matches_the_id_space_oracle_pair(self, family, n, seed):
        g = shuffled(FAMILIES[family](n, seed), seed)
        (cliques, edges), index, order = kernel_forest(g)
        assert cliques == sorted(kernels.maximal_cliques_from_peo(index, order))
        assert edges == sorted(edges) and all(i < j for i, j in edges)
        ref = kernels.maximal_cliques_from_peo(index, order)
        wg = oracles.clique_intersection_edges(ref)
        expected = oracles.maximum_weight_spanning_forest_ids(ref, wg)
        assert as_clique_pairs(cliques, edges) == as_clique_pairs(ref, expected)


class TestSeparators:
    def test_separator_is_the_chain_ends_later_neighbourhood(self):
        # triangle {v, x, y} plus the edge yz under the PEO v, x, y, z:
        # {v, x, y} absorbs x, so its separator is madj(x) = {y}, not
        # madj(v) = {x, y}; {y, z} absorbs z and is the root
        v, x, y, z = 0, 1, 2, 3
        g = Graph(vertices=[v, x, y, z], edges=[(v, x), (v, y), (x, y), (y, z)])
        index = graph_index(g)
        cliques, edges = kernels.clique_forest_from_peo(index, [v, x, y, z])
        assert cliques == [(v, x, y), (y, z)]
        assert edges == [(0, 1)]

    def test_examined_pairs_stay_near_the_forest_size(self, monkeypatch):
        # W_G of this 3-tree has 168,003 edges; the builder looks at the
        # pairs sharing a separator only
        examined = []
        real = kernels._separator_pairs

        def spy(*args):
            keys, roots = real(*args)
            examined.append(len(keys))
            return keys, roots

        monkeypatch.setattr(kernels, "_separator_pairs", spy)
        (cliques, edges), _, _ = kernel_forest(random_k_tree(2000, 3, seed=0))
        assert len(edges) == len(cliques) - 1 == 1996
        assert examined and examined[0] <= 3000


class TestNotChordal:
    # the vertex the reverse-LexBFS PEO check names on this 5-cycle
    @pytest.mark.parametrize(
        "build",
        [build_clique_forest, lambda g: peel_chordal_graph(g, diameter_rule(3))],
        ids=["build_clique_forest", "peel_chordal_graph"],
    )
    def test_five_cycle_names_the_violating_vertex(self, build):
        with pytest.raises(NotChordalError) as exc:
            build(cycle_graph(5))
        assert exc.value.vertex == 3
        assert "vertex 3 is not simplicial" in str(exc.value)
