"""Interval representations, domination removal, umbrella orders."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    NotProperIntervalError,
    brute_force_independence_number,
    complete_graph,
    dominated_vertices,
    interval_graph_from_intervals,
    is_proper_interval_order,
    path_graph,
    proper_interval_order,
    random_interval_graph,
    random_proper_interval_graph,
    remove_dominated_vertices,
    star_graph,
    unit_interval_chain,
)
from tests.oracles import interval_graph_by_slicing


def _same_graph(a, b):
    """Same vertices and per-vertex neighbour lists, insertion order included."""
    return list(a.vertices()) == list(b.vertices()) and all(
        list(a.neighbors_view(v)) == list(b.neighbors_view(v)) for v in a.vertices()
    )


# small integer endpoints make touching endpoints and equal intervals common
_INTERVALS = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=40
).flatmap(
    lambda spans: st.permutations(range(len(spans))).map(
        lambda labels: {
            label: (lo, lo + length) for label, (lo, length) in zip(labels, spans)
        }
    )
)


class TestIntervalConstruction:
    def test_basic_intersections(self):
        g = interval_graph_from_intervals(
            {1: (0, 2), 2: (1, 3), 3: (2.5, 4), 4: (5, 6)}
        )
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 3)
        assert not g.has_edge(1, 3)
        assert g.degree(4) == 0

    def test_touching_endpoints_count(self):
        g = interval_graph_from_intervals({1: (0, 1), 2: (1, 2)})
        assert g.has_edge(1, 2)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            interval_graph_from_intervals({1: (2, 1)})

    def test_empty(self):
        assert len(interval_graph_from_intervals({})) == 0

    def test_touching_and_equal_intervals_match_the_slicing_builder(self):
        intervals = {5: (0, 1), 3: (1, 2), 9: (0, 1), 1: (2, 2), 7: (3, 4)}
        g = interval_graph_from_intervals(intervals)
        assert g.has_edge(5, 9) and g.has_edge(3, 1) and not g.has_edge(1, 7)
        assert _same_graph(g, interval_graph_by_slicing(intervals))

    @settings(max_examples=200, deadline=None)
    @given(_INTERVALS)
    def test_matches_the_slicing_builder(self, intervals):
        assert _same_graph(
            interval_graph_from_intervals(intervals),
            interval_graph_by_slicing(intervals),
        )


class TestDomination:
    def test_nested_interval_dominated(self):
        # 2's interval is nested in 1's and 1 reaches an extra neighbor
        g = interval_graph_from_intervals(
            {1: (0, 4), 2: (1, 2), 3: (3.5, 5)}
        )
        # Gamma[1] = {1,2,3} strictly contains Gamma[2] = {1,2}
        assert 1 in dominated_vertices(g)

    def test_twins_not_dominated(self):
        g = complete_graph(4)
        assert dominated_vertices(g) == set()

    def test_alpha_preserved(self):
        for seed in range(12):
            g = random_interval_graph(22, seed=seed, max_length=0.3)
            h = remove_dominated_vertices(g)
            assert brute_force_independence_number(
                g
            ) == brute_force_independence_number(h)

    def test_result_is_proper_interval(self):
        """One-shot removal leaves a proper interval graph (claw-free)."""
        for seed in range(8):
            g = random_interval_graph(25, seed=seed, max_length=0.25)
            h = remove_dominated_vertices(g)
            for comp in h.connected_components():
                sub = h.induced_subgraph(comp)
                proper_interval_order(sub)  # raises if not proper interval

    def test_star_center_removed(self):
        """The center's closed neighborhood strictly contains every leaf's,
        so the center is the dominated one -- leaves are the better
        independent-set members."""
        g = star_graph(5)
        h = remove_dominated_vertices(g)
        assert h.vertices() == [1, 2, 3, 4, 5]


class TestUmbrellaOrder:
    def test_path_order(self):
        g = path_graph(10)
        order = proper_interval_order(g)
        assert is_proper_interval_order(g, order)
        assert order in (list(range(10)), list(range(9, -1, -1)))

    def test_unit_chains(self):
        for seed in range(6):
            g = unit_interval_chain(60, seed=seed)
            h = remove_dominated_vertices(g)
            for comp in h.connected_components():
                sub = h.induced_subgraph(comp)
                order = proper_interval_order(sub)
                assert is_proper_interval_order(sub, order)

    def test_rejects_disconnected(self):
        g = Graph(vertices=[1, 2])
        with pytest.raises(NotProperIntervalError):
            proper_interval_order(g)

    def test_rejects_non_proper_interval(self):
        with pytest.raises(NotProperIntervalError):
            proper_interval_order(star_graph(3))  # the claw itself

    def test_umbrella_check_rejects_bad_orders(self):
        g = path_graph(5)
        assert not is_proper_interval_order(g, [0, 2, 1, 3, 4])
        assert not is_proper_interval_order(g, [0, 1, 2])  # wrong length


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
def test_proper_interval_generator_has_umbrella_orders(seed, n):
    g = random_proper_interval_graph(n, seed=seed, length=0.15)
    for comp in g.connected_components():
        sub = g.induced_subgraph(comp)
        order = proper_interval_order(sub)
        assert is_proper_interval_order(sub, order)
