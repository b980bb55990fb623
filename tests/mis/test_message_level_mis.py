"""Message-level fidelity of the MIS peeling decision (Section 7.3).

The MIS pipeline peels with the diameter rule at threshold 2d + 3.
:func:`message_level_mis_decisions` closes the loop at the message
level: the knowledge each node decides from is a ball obtained by
actually running the (delta) gather on the synchronous simulator, and
the per-node decision must match the centralized peeling's layers for
every non-final iteration.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.graphs import (
    NotChordalError,
    cycle_graph,
    paper_example_graph,
    path_graph,
    random_chordal_graph,
)
from repro.mis import message_level_mis_decisions, mis_local_parameters


class TestParameters:
    def test_threshold_matches_peeling_rule(self):
        for d in (1, 2, 5):
            params = mis_local_parameters(d)
            assert params.internal_threshold == 2 * d + 3
            assert params.collect_radius == 3 * (2 * d + 3)

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            mis_local_parameters(0)

    @pytest.mark.parametrize("d", [1.5, 2.0, True, "2", None])
    def test_non_integer_d_is_rejected_by_name(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 1 and an integer, got {d!r}"):
            mis_local_parameters(d)
        with pytest.raises(ValueError, match="d must be >= 1 and an integer"):
            message_level_mis_decisions(path_graph(4), d)


def test_non_chordal_input_fails_before_the_gather():
    with pytest.raises(NotChordalError, match="not chordal"):
        message_level_mis_decisions(cycle_graph(4), 1)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2_000), n=st.integers(2, 22), d=st.integers(1, 2))
def test_message_level_decisions_match_centralized_peeling(seed, n, d):
    g = random_chordal_graph(n, seed=seed)
    peeling = peel_chordal_graph(
        g, internal_rule=diameter_rule(2 * d + 3), max_iterations=6
    )
    current = g.copy()
    expected_rounds = mis_local_parameters(d).collect_radius + 1
    for i in range(1, peeling.num_layers() + 1):
        layer = peeling.nodes_of_layer(i)
        decisions, rounds = message_level_mis_decisions(current, d)
        assert rounds == expected_rounds
        for v, joined in decisions.items():
            assert joined == (v in layer), f"node {v} at iteration {i}"
        current.remove_vertices(layer)


def test_paper_example_first_layer():
    g = paper_example_graph()
    d = 1
    peeling = peel_chordal_graph(
        g, internal_rule=diameter_rule(2 * d + 3), max_iterations=6
    )
    decisions, _ = message_level_mis_decisions(g, d)
    assert {v for v, joined in decisions.items() if joined} == (
        peeling.nodes_of_layer(1)
    )
