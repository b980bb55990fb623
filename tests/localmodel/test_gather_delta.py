"""Delta gathering: equivalence with the full-flood reference.

The contract of :class:`DeltaGatherProgram` is strict: byte-identical
``KnownBall`` outputs *and* identical round counts against
:class:`BallGatherProgram`, across the active scheduler and the dense
oracle of ``tests/oracles.py``, sealed mode, and the
fault plans under which the two programs are provably equivalent
(reliable, explicitly empty, and duplicate-only -- duplicates are no-op
merges for both).  The ball contents themselves are pinned against a
direct BFS oracle, including disconnected graphs and isolated vertices.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    cycle_graph,
    paper_example_graph,
    path_graph,
    random_chordal_graph,
    star_graph,
)
from repro.localmodel import FaultPlan, MessageMeter, gather_balls
from tests.oracles import reference_gather, scheduling

SCHEDULERS = ("active", "dense")
#: the shipped delta gather and the full-flood oracle, by test id
GATHERS = {"delta": gather_balls, "reference": reference_gather}
# fault plans under which delta == reference holds (drop/delay diverge)
EQUIVALENT_FAULTS = {
    "none": None,
    "empty": FaultPlan(),
    "duplicate": FaultPlan(duplicate=0.4, seed=13),
}


def graphs_under_test():
    return [
        ("path9", path_graph(9)),
        ("cycle8", cycle_graph(8)),
        ("star5", star_graph(5)),
        ("paper", paper_example_graph()),
        ("chordal", random_chordal_graph(20, seed=5)),
        ("two-components", _two_components()),
        ("isolated", _with_isolated_vertex()),
    ]


def _two_components():
    return Graph(
        vertices=range(10),
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)],
    )


def _with_isolated_vertex():
    g = Graph(vertices=range(7), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    return g


def oracle_ball(graph, center, radius, states):
    """What the gather must output, computed by direct BFS."""
    dist = graph.bfs_distances(center, cutoff=radius)
    inside = set(dist)
    edges = {
        tuple(sorted(e))
        for e in graph.edges()
        if e[0] in inside or e[1] in inside
    }
    return {v: states.get(v) for v in inside}, edges


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", (False, True))
    @pytest.mark.parametrize("fault_name", sorted(EQUIVALENT_FAULTS))
    def test_delta_matches_reference(self, scheduler, sealed, fault_name):
        for name, g in graphs_under_test():
            states = {v: ("s", v) for v in g.vertices()}
            for radius in (0, 1, 2, 4):
                with scheduling(scheduler):
                    delta, d_rounds = gather_balls(
                        g,
                        radius,
                        states,
                        sealed=sealed,
                        faults=EQUIVALENT_FAULTS[fault_name],
                    )
                    ref, r_rounds = reference_gather(
                        g,
                        radius,
                        states,
                        sealed=sealed,
                        faults=EQUIVALENT_FAULTS[fault_name],
                    )
                label = f"{name} r={radius} {scheduler} sealed={sealed} {fault_name}"
                assert d_rounds == r_rounds, label
                assert set(delta) == set(ref), label
                for v in ref:
                    assert delta[v] == ref[v], f"{label} node {v}"
                    # byte-identical: same serialized rendering, not just
                    # equal-modulo-ordering
                    assert repr(sorted(delta[v].states.items())) == repr(
                        sorted(ref[v].states.items())
                    ), label
                    assert repr(sorted(delta[v].edges)) == repr(
                        sorted(ref[v].edges)
                    ), label

    @pytest.mark.parametrize("program", sorted(GATHERS))
    def test_rounds_are_exactly_radius_plus_one(self, program):
        g = random_chordal_graph(16, seed=2)
        for radius in (0, 1, 3, 5):
            _, rounds = GATHERS[program](g, radius)
            assert rounds == radius + 1

    def test_unknown_program_rejected(self):
        # one gather ships; the full flood is the reference_gather oracle
        with pytest.raises(TypeError, match="program"):
            gather_balls(path_graph(3), 1, program="reference")

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gather_balls(path_graph(3), -1)


class TestOracle:
    @pytest.mark.parametrize("program", sorted(GATHERS))
    def test_against_bfs_oracle(self, program):
        for name, g in graphs_under_test():
            states = {v: ("s", v) for v in g.vertices()}
            for radius in (0, 1, 2, 3):
                balls, _ = GATHERS[program](g, radius, states)
                assert set(balls) == set(g.vertices()), name
                for v, ball in balls.items():
                    want_states, want_edges = oracle_ball(g, v, radius, states)
                    assert ball.center == v and ball.radius == radius
                    assert ball.states == want_states, f"{name} {v} r={radius}"
                    assert ball.edges == want_edges, f"{name} {v} r={radius}"

    @pytest.mark.parametrize("program", sorted(GATHERS))
    def test_radius_zero_sees_self_and_incident_edges(self, program):
        g = _with_isolated_vertex()
        states = {v: v * 10 for v in g.vertices()}
        balls, rounds = GATHERS[program](g, 0, states)
        assert rounds == 1  # one round to run the cutoff check
        for v, ball in balls.items():
            assert ball.states == {v: v * 10}
            assert ball.edges == {
                tuple(sorted((v, u))) for u in g.neighbors(v)
            }

    @pytest.mark.parametrize("program", sorted(GATHERS))
    def test_isolated_vertex_terminates_with_empty_ball(self, program):
        g = _with_isolated_vertex()
        for radius in (0, 1, 3):
            balls, rounds = GATHERS[program](g, radius)
            assert rounds == radius + 1
            lonely = balls[6]
            assert lonely.states == {6: None}
            assert lonely.edges == set()
            assert lonely.as_graph().vertices() == [6]

    @pytest.mark.parametrize("program", sorted(GATHERS))
    def test_disconnected_ball_never_crosses_components(self, program):
        g = _two_components()
        balls, _ = GATHERS[program](g, 4)
        assert set(balls[0].states) == {0, 1, 2, 3, 4}
        assert set(balls[9].states) == {5, 6, 7, 8, 9}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 24),
    radius=st.integers(0, 5),
    drop_vertex=st.booleans(),
)
def test_known_ball_contract_property(seed, n, radius, drop_vertex):
    """Property: states == Gamma^r, edges == incident set, as_graph == G[ball].

    ``drop_vertex`` removes one vertex to produce disconnected instances
    (random chordal generators emit connected graphs).
    """
    g = random_chordal_graph(n, seed=seed)
    if drop_vertex and len(g) > 2:
        g = g.copy()
        g.remove_vertices([sorted(g.vertices())[len(g) // 2]])
    states = {v: ("st", v) for v in g.vertices()}
    balls, rounds = gather_balls(g, radius, states)
    assert rounds == radius + 1
    for v, ball in balls.items():
        want_states, want_edges = oracle_ball(g, v, radius, states)
        assert ball.states == want_states
        assert ball.edges == want_edges
        inside = set(want_states)
        got = ball.as_graph()
        assert set(got.vertices()) == inside
        assert {tuple(sorted(e)) for e in got.edges()} == {
            e for e in want_edges if e[0] in inside and e[1] in inside
        }


def test_delta_sends_fewer_messages_than_reference():
    """The point of the rewrite: strictly less wire traffic on real graphs."""
    g = path_graph(60)
    meter_d = MessageMeter()
    meter_r = MessageMeter()
    gather_balls(g, 8, sinks=[meter_d])
    reference_gather(g, 8, sinks=[meter_r])
    assert (
        meter_d.total_payload_words < meter_r.total_payload_words
    ), "delta gathering must move strictly fewer payload words"
