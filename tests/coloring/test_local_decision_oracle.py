"""Algorithm 3's local decision equals its all-pairs oracle.

The decision orients T(v) with the peeling's ``orient_binary_path`` and
decides the internal case with ``path_diameter_at_least`` inside G[V_P],
the graph of the walked path's own cliques.
:func:`tests.oracles.decide_from_view_all_pairs` is the decision as first
written, with its own orientation and an all-pairs BFS diameter on the
interior-induced ball; the two must agree on every node of every
generated instance, under thresholds where the pendant, internal and
horizon-truncated cases all occur.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cliquetree.local_view import compute_local_view
from repro.coloring import ColoringParameters, distributed_mvc
from repro.coloring.distributed_mvc import (
    local_layer_decision,
    local_layer_decision_from_ball,
)
from repro.graphs import (
    Graph,
    path_graph,
    random_chordal_graph,
    random_k_tree,
    random_tree,
    unit_interval_chain,
)
from repro.localmodel import gather_balls
from repro.mis import mis_local_parameters
from tests.oracles import decide_from_view_all_pairs


def _shuffled_path(n, seed):
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    return Graph(
        vertices=labels, edges=[(labels[i], labels[i + 1]) for i in range(n - 1)]
    )


FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "2-tree": lambda n, seed: random_k_tree(n, 2, seed=seed),
    "unit-interval": lambda n, seed: unit_interval_chain(n, seed=seed),
    "shuffled-path": _shuffled_path,
    "tree": lambda n, seed: random_tree(n, seed=seed),
}

PARAMETERS = [
    ColoringParameters.paper_constants(1),
    ColoringParameters.paper_constants(2),
    mis_local_parameters(1),
    # small thresholds: the internal case and truncated views are common
    ColoringParameters(k=1, recolor_distance=4, internal_threshold=2, collect_radius=3),
    ColoringParameters(k=1, recolor_distance=4, internal_threshold=5, collect_radius=4),
]


def _oracle(graph, v, params):
    view = compute_local_view(graph, v, params.collect_radius)
    ball_graph = graph.induced_subgraph(set(view.interior))
    return decide_from_view_all_pairs(view, ball_graph, params)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(3, 30),
    seed=st.integers(0, 10_000),
    which=st.integers(0, len(PARAMETERS) - 1),
)
def test_decision_matches_all_pairs_oracle(family, n, seed, which):
    graph = FAMILIES[family](n, seed)
    params = PARAMETERS[which]
    for v in graph.vertices():
        assert local_layer_decision(graph, v, params) == _oracle(graph, v, params)


def test_internal_case_is_exercised():
    """The pool reaches the diameter comparison with both outcomes.

    Pendant paths decide before any diameter is measured, so without
    internal or truncated paths the oracle comparison above would never
    test the diameter half of the rule.
    """
    outcomes = []
    decide = distributed_mvc.path_diameter_at_least

    def spy(path, threshold):
        outcomes.append(decide(path, threshold))
        return outcomes[-1]

    with mock.patch.object(distributed_mvc, "path_diameter_at_least", spy):
        for family in sorted(FAMILIES):
            graph = FAMILIES[family](24, 3)
            for params in PARAMETERS:
                for v in graph.vertices():
                    local_layer_decision(graph, v, params)
    assert set(outcomes) == {True, False}


def test_decision_runs_no_all_pairs_search():
    """On a long path a from-ball decision runs two BFSes, not one per vertex.

    One builds the local view; one settles the diameter comparison (the
    all-pairs oracle runs one BFS per vertex of the visible path, 20
    per decision here).
    """
    graph = path_graph(200)
    params = ColoringParameters.paper_constants(1)
    balls, _ = gather_balls(graph, params.collect_radius)
    calls = 0
    bfs = Graph.bfs_distances

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return bfs(self, *args, **kwargs)

    with mock.patch.object(Graph, "bfs_distances", counting):
        for v in range(50, 150):
            local_layer_decision_from_ball(balls[v], params)
    assert calls <= 2 * 100
