"""Message-level fidelity of the pruning decision (Algorithm 3).

The per-node layer decision is elsewhere tested against the centralized
peeling using directly-computed local views.  Here the loop is closed at
the message level: the knowledge each node decides from is obtained by
actually *flooding* for collect_radius rounds on the synchronous
simulator, and the decision function consumes only the gathered ball.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring import (
    ColoringParameters,
    color_chordal_graph,
    local_layer_decision,
    local_layer_decision_from_ball,
    message_level_layer_decisions,
)
from repro.graphs import (
    Graph,
    NotChordalError,
    cycle_graph,
    paper_example_graph,
    random_chordal_graph,
)
from repro.localmodel import gather_balls
from tests.oracles import reference_gather

#: the shipped delta gather and the full-flood oracle, by test id
GATHERS = {"delta": gather_balls, "reference": reference_gather}


def decisions_from_flooded_balls(current, params, gather=gather_balls):
    """Per-node decisions computed from message-passing ball gathering."""
    balls, rounds = gather(current, params.collect_radius)
    assert rounds == params.collect_radius + 1
    out = {}
    for v, ball in balls.items():
        out[v] = local_layer_decision(ball.as_graph(), v, params)
    return out


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2_000), n=st.integers(2, 22))
def test_flooded_decisions_match_centralized_layers(seed, n):
    g = random_chordal_graph(n, seed=seed)
    params = ColoringParameters.from_k(1)
    peeling = color_chordal_graph(g, k=1).peeling
    current = g.copy()
    for i in range(1, peeling.num_layers() + 1):
        layer = peeling.nodes_of_layer(i)
        decisions = decisions_from_flooded_balls(current, params)
        for v, joined in decisions.items():
            assert joined == (v in layer), f"node {v} at iteration {i}"
        current.remove_vertices(layer)


def test_paper_example_message_level():
    g = paper_example_graph()
    params = ColoringParameters.from_k(1)
    layer1 = color_chordal_graph(g, k=1).peeling.nodes_of_layer(1)
    decisions = decisions_from_flooded_balls(g, params)
    assert {v for v, joined in decisions.items() if joined} == layer1


@pytest.mark.parametrize("program", sorted(GATHERS))
def test_message_level_helper_matches_flooded_decisions(program):
    """The packaged entry point equals the hand-rolled gather+decide loop,
    whether that loop gathers by delta or by the full flood."""
    g = random_chordal_graph(20, seed=23)
    params = ColoringParameters.paper_constants(1)
    expected = decisions_from_flooded_balls(g, params, GATHERS[program])
    decisions, rounds = message_level_layer_decisions(g, params)
    assert rounds == params.collect_radius + 1
    assert decisions == expected


def test_non_chordal_input_fails_before_the_gather():
    with pytest.raises(NotChordalError, match="not chordal"):
        message_level_layer_decisions(cycle_graph(4), ColoringParameters.from_k(1))


def test_message_level_decisions_reject_a_non_parameter():
    with pytest.raises(TypeError, match="ColoringParameters, got int"):
        message_level_layer_decisions(random_chordal_graph(6, seed=1), 1)


def test_graph_slice_decision_rejects_a_non_parameter():
    with pytest.raises(TypeError, match="ColoringParameters, got int"):
        local_layer_decision(random_chordal_graph(6, seed=1), 0, 1)


def test_from_ball_decision_rejects_a_non_parameter():
    balls, _ = gather_balls(random_chordal_graph(6, seed=1), 2)
    with pytest.raises(TypeError, match="ColoringParameters, got int"):
        local_layer_decision_from_ball(balls[0], 1)


def _wheel(rim):
    """Hub 0 joined to every vertex of the cycle 1..rim (not chordal)."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(vertices=range(rim + 1), edges=edges)


def test_cyclic_ball_names_its_center():
    """Each Gamma[u] of a 6-cycle is chordal, but their subtrees close a
    cycle; the error names the ball, not the forest."""
    params = ColoringParameters.paper_constants(1)
    cycle = cycle_graph(6)
    balls, _ = gather_balls(cycle, params.collect_radius)
    with pytest.raises(NotChordalError, match="ball of 2 is not chordal"):
        local_layer_decision_from_ball(balls[2], params)
    with pytest.raises(NotChordalError, match="ball of 2 is not chordal"):
        local_layer_decision(cycle, 2, params)


def test_wheel_ball_names_its_center_not_an_inner_vertex():
    """Gamma[hub] is the whole wheel; the error still names the center."""
    params = ColoringParameters.paper_constants(1)
    wheel = _wheel(5)
    balls, _ = gather_balls(wheel, params.collect_radius)
    with pytest.raises(NotChordalError, match="ball of 3 is not chordal"):
        local_layer_decision_from_ball(balls[3], params)
    with pytest.raises(NotChordalError, match="ball of 3 is not chordal"):
        local_layer_decision(wheel, 3, params)


def test_from_ball_decision_rejects_radius_mismatch():
    g = random_chordal_graph(10, seed=1)
    params = ColoringParameters.paper_constants(1)
    balls, _ = gather_balls(g, params.collect_radius + 1)
    with pytest.raises(ValueError, match="collect_radius"):
        local_layer_decision_from_ball(balls[g.vertices()[0]], params)


def test_from_ball_decision_matches_graph_slice_decision():
    """from-ball == from-global-graph, node by node (Algorithm 3 coherence)."""
    g = random_chordal_graph(18, seed=4)
    params = ColoringParameters.paper_constants(1)
    balls, _ = gather_balls(g, params.collect_radius)
    for v, ball in balls.items():
        assert local_layer_decision_from_ball(ball, params) == (
            local_layer_decision(g, v, params)
        )
