"""The early-stopping searches return exactly what the whole-graph ones do.

``compute_parent`` stops its BFS at the first level meeting an attachment
clique, ``Graph.diameter`` stops once eccentricity bounds settle the
maximum, and ``greedy_distance_k_selection`` runs one BFS per taken
vertex.  Each is checked against its plain oracle in
:mod:`tests.oracles`, the end-to-end pipelines are pinned, and the BFS
work is counted so a regression to the old cost fails loudly.
"""

import hashlib
import importlib
import json
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree.paths import ForestPath
from repro.coloring import ColoringParameters, color_chordal_graph
from repro.coloring import distributed_mvc
from repro.coloring.distributed_mvc import compute_parent, distributed_color_chordal
from repro.coloring.prune import PeeledPath
from repro.graphs import (
    Graph,
    path_graph,
    random_chordal_graph,
    random_interval_graph,
    random_k_tree,
    unit_interval_chain,
)
from repro.graphs.interval import proper_interval_order, remove_dominated_vertices
from repro.localmodel.rulingset import greedy_distance_k_selection
from repro.mis.distributed_mis import distributed_chordal_mis
from repro.mis.interval_mis import interval_mis
from tests.oracles import diameter_all_pairs, greedy_by_scanning, parent_by_full_bfs

# the package re-exports the function under the module's name
interval_mis_module = importlib.import_module("repro.mis.interval_mis")

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _relabeled(graph, seed):
    """``graph`` with its vertices inserted in a seeded random order."""
    order = graph.vertices()
    random.Random(seed).shuffle(order)
    return Graph(vertices=order, edges=graph.edges())


def _connected_general(n, extra, seed):
    """A random spanning tree plus ``extra`` random chords: connected, rarely chordal."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    return g


@contextmanager
def counted_bfs():
    """Count every ``Graph.bfs_distances`` call made inside the block."""
    calls = []
    original = Graph.bfs_distances

    def counting(self, source, cutoff=None):
        calls.append(source)
        return original(self, source, cutoff)

    with mock.patch.object(Graph, "bfs_distances", counting):
        yield calls


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Graph.diameter against all-pairs BFS
# ----------------------------------------------------------------------

DIAMETER_FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "interval": lambda n, seed: random_interval_graph(n, seed=seed),
    "ktree": lambda n, seed: random_k_tree(n + 4, 1 + seed % 4, seed=seed),
    "unit-chain": lambda n, seed: unit_interval_chain(n, seed),
    "general": lambda n, seed: _connected_general(n, n // 3, seed),
    "path": lambda n, seed: path_graph(n),
}


def _assert_same_diameter(graph):
    try:
        expected = diameter_all_pairs(graph)
    except ValueError:
        with pytest.raises(ValueError, match="disconnected"):
            graph.diameter()
        return
    assert graph.diameter() == expected


class TestDiameter:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(DIAMETER_FAMILIES)), st.integers(1, 70), SEEDS)
    def test_matches_all_pairs(self, family, n, seed):
        graph = _relabeled(DIAMETER_FAMILIES[family](n, seed), seed)
        _assert_same_diameter(graph)
        for comp in graph.connected_components():
            _assert_same_diameter(graph.induced_subgraph(comp))

    def test_disconnected_raises(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            graph.diameter()

    def test_isolated_vertex_disconnects(self):
        graph = path_graph(5)
        graph.add_vertex(99)
        with pytest.raises(ValueError, match="disconnected"):
            graph.diameter()

    def test_empty_graph_is_zero(self):
        assert Graph().diameter() == 0

    def test_single_vertex_is_zero(self):
        assert Graph(vertices=[7]).diameter() == 0

    def test_path_takes_at_most_four_searches(self):
        graph = path_graph(2000)
        with counted_bfs() as calls:
            assert graph.diameter() == 1999
        assert len(calls) <= 4

    def test_long_interval_component_takes_at_most_eight_searches(self):
        h = remove_dominated_vertices(unit_interval_chain(2500, 0))
        piece = max(h.connected_components(), key=len)
        sub = h.induced_subgraph(piece)
        with counted_bfs() as calls:
            diameter = sub.diameter()
        assert len(calls) <= 8
        # distances grow monotonically along an umbrella order, so its
        # first vertex realizes the diameter
        first = proper_interval_order(sub)[0]
        assert diameter == max(sub.bfs_distances(first).values())


# ----------------------------------------------------------------------
# compute_parent against the full-BFS parent
# ----------------------------------------------------------------------

PARENT_FAMILIES = {
    "ktree": lambda seed: random_k_tree(60, 1 + seed % 3, seed=seed),
    "chordal": lambda seed: random_chordal_graph(50, seed=seed),
    "unit-chain": lambda seed: unit_interval_chain(120, seed),
    "path": lambda seed: path_graph(40 + seed % 80),
}


class TestComputeParent:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(PARENT_FAMILIES)),
        st.sampled_from([0.5, 1.0, 2.0]),
        SEEDS,
    )
    def test_matches_full_bfs(self, family, epsilon, seed):
        graph = _relabeled(PARENT_FAMILIES[family](seed), seed)
        result = color_chordal_graph(graph, epsilon=epsilon)
        k = result.parameters.k
        for params in (result.parameters, ColoringParameters.paper_constants(k)):
            for layer in result.peeling.layers:
                for peeled in layer:
                    for v in peeled.nodes:
                        assert compute_parent(graph, peeled, v, params) == (
                            parent_by_full_bfs(graph, peeled, v, params)
                        )

    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.integers(0, 6))
    def test_matches_full_bfs_on_arbitrary_attachments(self, seed, radius):
        rng = random.Random(seed)
        graph = _connected_general(rng.randint(2, 30), rng.randint(0, 10), seed)
        verts = graph.vertices()

        def attachment():
            if rng.random() < 0.2:
                return None
            return frozenset(rng.sample(verts, rng.randint(1, min(3, len(verts)))))

        path = ForestPath(cliques=(), left_attachment=attachment(), right_attachment=attachment())
        peeled = PeeledPath(layer=1, path=path, nodes=frozenset(verts))
        params = ColoringParameters(k=1, recolor_distance=radius, internal_threshold=3, collect_radius=10)
        for v in verts:
            assert compute_parent(graph, peeled, v, params) == (
                parent_by_full_bfs(graph, peeled, v, params)
            )

    def test_tie_goes_to_the_left_attachment(self):
        graph = path_graph(5)
        path = ForestPath(
            cliques=(frozenset({1, 2}), frozenset({2, 3})),
            left_attachment=frozenset({0, 1}),
            right_attachment=frozenset({3, 4}),
        )
        peeled = PeeledPath(layer=1, path=path, nodes=frozenset({2}))
        params = ColoringParameters.paper_constants(1)
        assert compute_parent(graph, peeled, 2, params) == 1
        assert parent_by_full_bfs(graph, peeled, 2, params) == 1

    def test_runs_no_whole_graph_search(self):
        graph = random_k_tree(200, 3, seed=1)
        result = color_chordal_graph(graph, epsilon=0.5)
        with counted_bfs() as calls:
            for layer in result.peeling.layers:
                for peeled in layer:
                    for v in peeled.nodes:
                        compute_parent(graph, peeled, v, result.parameters)
        assert calls == []


# ----------------------------------------------------------------------
# greedy_distance_k_selection against the scan-all greedy
# ----------------------------------------------------------------------

GREEDY_FAMILIES = {
    "unit-chain": lambda seed: unit_interval_chain(80, seed),
    "path": lambda seed: path_graph(60),
    "interval": lambda seed: random_interval_graph(50, seed=seed),
    "chordal": lambda seed: random_chordal_graph(40, seed=seed),
    "ktree": lambda seed: random_k_tree(40, 2, seed=seed),
}


class TestGreedySelection:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GREEDY_FAMILIES)), st.integers(1, 15), SEEDS)
    def test_matches_scanning_on_shuffled_orders(self, family, k, seed):
        graph = GREEDY_FAMILIES[family](seed)
        order = graph.vertices()
        random.Random(seed).shuffle(order)
        with counted_bfs() as calls:
            chosen = greedy_distance_k_selection(graph, order, k)
        assert chosen == greedy_by_scanning(graph, order, k)
        assert len(calls) == len(chosen)

    @pytest.mark.parametrize("k", [1, 4, 15])
    def test_one_search_per_taken_vertex_on_an_umbrella_order(self, k):
        graph = remove_dominated_vertices(unit_interval_chain(400, 3))
        piece = graph.induced_subgraph(max(graph.connected_components(), key=len))
        order = proper_interval_order(piece)
        with counted_bfs() as calls:
            chosen = greedy_distance_k_selection(piece, order, k)
        assert chosen == greedy_by_scanning(piece, order, k)
        assert len(calls) == len(chosen)

    def test_repeated_vertex_is_taken_once(self):
        graph = path_graph(6)
        assert greedy_distance_k_selection(graph, [0, 0, 3, 3], 2) == [0, 3]


# ----------------------------------------------------------------------
# end-to-end pins
# ----------------------------------------------------------------------

@contextmanager
def whole_graph_searches():
    """Run the pipelines with the three oracles in place of the rewrites."""
    with mock.patch.object(distributed_mvc, "compute_parent", parent_by_full_bfs), \
            mock.patch.object(Graph, "diameter", diameter_all_pairs), \
            mock.patch.object(
                interval_mis_module, "greedy_distance_k_selection", greedy_by_scanning
            ):
        yield


def _coloring_summary(report):
    parents = sorted((v, -1 if p is None else p) for v, p in report.parents.items())
    return (
        report.total_rounds,
        report.num_colors(),
        _digest(sorted(report.coloring.items())),
        _digest(parents),
        _digest(sorted(report.finish_time.items())),
    )


class TestPipelinePins:
    """Outputs and rounds pinned to what the whole-graph searches produced."""

    @pytest.mark.parametrize(
        "seed, rounds, colors, coloring, parents",
        [
            (0, 1905, 4, "88fdfc5e52577856", "9e12f4ad3d2b8d1f"),
            (1, 1505, 4, "d424e60a198d6bd0", "0cb5d4173ac0583c"),
            (2, 1905, 4, "0d5f3853f697c685", "c8647fde03c2f798"),
        ],
    )
    def test_distributed_coloring(self, seed, rounds, colors, coloring, parents):
        graph = random_k_tree(300, 3, seed)
        summary = _coloring_summary(distributed_color_chordal(graph, epsilon=0.5))
        assert summary[:4] == (rounds, colors, coloring, parents)
        with whole_graph_searches():
            assert _coloring_summary(distributed_color_chordal(graph, epsilon=0.5)) == summary

    @pytest.mark.parametrize(
        "seed, rounds, size, members",
        [(0, 892, 392, "c14be1d9f8bcaae3"), (1, 892, 390, "ad9974adb805b751")],
    )
    def test_distributed_mis(self, seed, rounds, size, members):
        report = distributed_chordal_mis(unit_interval_chain(2200, seed), 0.4)
        assert (report.total_rounds, report.size()) == (rounds, size)
        assert _digest(sorted(report.result.independent_set)) == members

    @pytest.mark.parametrize(
        "seed, rounds, size, members",
        [(0, 50, 61, "e0ec60ac52fe80df"), (1, 50, 59, "9d4dde5ce4419801")],
    )
    def test_interval_mis_long_component(self, seed, rounds, size, members):
        graph = unit_interval_chain(400, seed)
        result = interval_mis(graph, 0.9)
        assert (result.rounds, result.size()) == (rounds, size)
        assert _digest(sorted(result.independent_set)) == members
        with whole_graph_searches():
            again = interval_mis(graph, 0.9)
        assert (again.rounds, again.independent_set) == (result.rounds, result.independent_set)
