"""One subtree table per gather: shared work, identical decisions.

By Lemma 2 the pair (phi(u), T(u)) a view builds for an interior vertex u
depends only on G[Gamma[u]], so the balls of one graph may share it
through a :data:`~repro.cliquetree.local_view.SubtreeTable`.
``message_level_layer_decisions`` fills one table per call.  A view fills
every entry it lacks from one ``maximal_cliques`` pass over the closed
neighbourhoods of its missing interior vertices.  These tests pin that
the sharing and the one pass change no entry, no decision and no view,
that they really remove the per-vertex and per-ball rebuilds, and that
no table outlives its call.
"""

import dataclasses
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cliquetree import local_view
from repro.cliquetree.local_view import compute_local_view, local_view_from_ball
from repro.coloring import ColoringParameters, distributed_mvc
from repro.coloring.distributed_mvc import (
    local_layer_decision,
    local_layer_decision_from_ball,
    message_level_layer_decisions,
)
from repro.graphs import (
    Graph,
    random_chordal_graph,
    random_k_tree,
    unit_interval_chain,
)
from repro.localmodel import gather_balls
from repro.localmodel.gather import KnownBall
from repro.mis import mis_local_parameters
from tests.conftest import string_labels
from tests.oracles import reference_subtree_of


def _relabeled(graph, seed):
    """``graph`` with its vertices relabeled by a seeded permutation."""
    verts = graph.vertices()
    labels = list(range(len(verts)))
    random.Random(seed).shuffle(labels)
    relabel = dict(zip(verts, labels))
    return Graph(
        vertices=labels, edges=[(relabel[u], relabel[v]) for u, v in graph.edges()]
    )


def _shuffled_path(n, seed):
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    return Graph(
        vertices=labels, edges=[(labels[i], labels[i + 1]) for i in range(n - 1)]
    )


def _disconnected(n, seed):
    """A random chordal graph and a shuffled path side by side."""
    left = random_chordal_graph(max(1, n // 2), seed=seed)
    right = _shuffled_path(n - n // 2, seed)
    offset = len(left)
    return Graph(
        vertices=list(left.vertices()) + [offset + v for v in right.vertices()],
        edges=list(left.edges()) + [(offset + u, offset + v) for u, v in right.edges()],
    )


FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "unit-interval": lambda n, seed: unit_interval_chain(n, seed=seed),
    "3-tree": lambda n, seed: _relabeled(random_k_tree(n + 4, 3, seed=seed), seed),
    "shuffled-path": _shuffled_path,
    "disconnected": _disconnected,
    "singleton": lambda n, seed: Graph(vertices=[seed]),
    "empty": lambda n, seed: Graph(),
}

PARAMETERS = [
    ColoringParameters.paper_constants(1),
    ColoringParameters.from_k(1),
    mis_local_parameters(1),
]


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(2, 24),
    seed=st.integers(0, 10_000),
    which=st.integers(0, len(PARAMETERS) - 1),
)
def test_shared_table_decides_like_every_reference(family, n, seed, which):
    """Node by node: the shared-table driver equals per-ball decisions
    without a table and the global-graph rule."""
    graph = FAMILIES[family](n, seed)
    params = PARAMETERS[which]
    decisions, _rounds = message_level_layer_decisions(graph, params)
    balls, _ = gather_balls(graph, params.collect_radius)
    assert set(decisions) == set(graph.vertices())
    for v in graph.vertices():
        assert decisions[v] == local_layer_decision_from_ball(balls[v], params)
        assert decisions[v] == local_layer_decision(graph, v, params)


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(2, 24),
    seed=st.integers(0, 10_000),
    radius=st.integers(1, 5),
)
def test_shared_table_builds_equal_views(family, n, seed, radius):
    """A table filled by earlier views gives the same view as a fresh one."""
    graph = FAMILIES[family](n, seed)
    balls, _ = gather_balls(graph, radius)
    from_balls, from_graph = {}, {}
    for v in graph.vertices():
        fresh = local_view_from_ball(balls[v])
        for shared in (
            local_view_from_ball(balls[v], from_balls),
            compute_local_view(graph, v, radius, from_graph),
        ):
            assert shared.forest == fresh.forest
            assert shared.confirmed == fresh.confirmed
            assert shared.interior == fresh.interior


def _radius_parameters(radius):
    """Algorithm 3's paper constants at k = 1, collecting to ``radius``."""
    return dataclasses.replace(
        ColoringParameters.paper_constants(1), collect_radius=radius
    )


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(2, 24),
    seed=st.integers(0, 10_000),
    radius=st.integers(1, 4),
    strings=st.booleans(),
)
def test_one_clique_pass_fills_the_per_vertex_entries(
    family, n, seed, radius, strings
):
    """Views from balls and from the graph, with fresh and shared tables:
    every entry equals the per-vertex oracle's, list order included, and
    every view and decision equals one read off the oracle's table."""
    graph = FAMILIES[family](n, seed)
    if strings:
        graph = string_labels(graph)
    params = _radius_parameters(radius)
    oracle = {u: reference_subtree_of(graph, u) for u in graph.vertices()}
    balls, _ = gather_balls(graph, radius)
    from_balls, from_graph = {}, {}
    for v in graph.vertices():
        expected = compute_local_view(graph, v, radius, dict(oracle))
        joins = local_layer_decision(graph, v, params, dict(oracle))
        ball = (
            lambda t: local_view_from_ball(balls[v], t),
            lambda t: local_layer_decision_from_ball(balls[v], params, t),
        )
        sliced = (
            lambda t: compute_local_view(graph, v, radius, t),
            lambda t: local_layer_decision(graph, v, params, t),
        )
        for table, (view, decide) in (
            ({}, ball), (from_balls, ball), ({}, sliced), (from_graph, sliced)
        ):
            # the decision fills a copy, so it runs the same pass the view does
            decided = decide(dict(table))
            got = view(table)
            assert (got.forest, got.confirmed, got.interior) == (
                expected.forest,
                expected.confirmed,
                expected.interior,
            )
            assert decided == joins
            for u, entry in table.items():
                assert entry == oracle[u]


def test_one_call_builds_each_subtree_once():
    """One clique pass per view at most, none for a view whose interior
    the table already holds, and one ball graph per ball.

    Without the table every ball holding u in its interior rebuilt
    phi(u): about 116 ``maximal_cliques`` calls per vertex here; with it
    but one call per vertex, 120.
    """
    graph = random_chordal_graph(120, seed=0)
    params = ColoringParameters.paper_constants(1)
    phi_calls = []
    ball_graphs = []
    views = []
    cliques = local_view.maximal_cliques
    as_graph = KnownBall.as_graph
    view_from_ball = distributed_mvc.local_view_from_ball

    def counting_cliques(sub):
        phi_calls.append(sub)
        return cliques(sub)

    def counting_as_graph(ball):
        ball_graphs.append(ball.center)
        return as_graph(ball)

    def counting_view(ball, subtrees):
        held = set(subtrees)
        before = len(phi_calls)
        view = view_from_ball(ball, subtrees)
        views.append((view.interior <= held, len(phi_calls) - before))
        return view

    with mock.patch.object(local_view, "maximal_cliques", counting_cliques), \
            mock.patch.object(KnownBall, "as_graph", counting_as_graph), \
            mock.patch.object(distributed_mvc, "local_view_from_ball", counting_view):
        decisions, _ = message_level_layer_decisions(graph, params)
    assert len(decisions) == len(graph) == len(views)
    assert [calls for _, calls in views] == [int(not held) for held, _ in views]
    assert 0 < len(phi_calls) < len(graph)
    assert sorted(ball_graphs) == sorted(graph.vertices())


def test_no_table_outlives_its_call():
    """Two graphs over the same labels, one after the other: each call
    decides from its own graph, not from subtrees the first call built."""
    params = ColoringParameters.paper_constants(1)
    first = random_chordal_graph(40, seed=3)
    second = _relabeled(unit_interval_chain(40, seed=3), 11)
    assert set(first.vertices()) == set(second.vertices())
    for graph in (first, second, first):
        decisions, _ = message_level_layer_decisions(graph, params)
        assert decisions == {
            v: local_layer_decision(graph, v, params) for v in graph.vertices()
        }
