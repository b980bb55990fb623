"""Algorithm 5: (1 + eps)-approximate MIS on interval graphs (Theorems 5-6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    complete_graph,
    is_independent_set,
    path_graph,
    random_interval_graph,
    random_proper_interval_graph,
)
from repro.localmodel import log_star
from repro.mis import (
    independence_number_chordal,
    interval_mis,
    mis_parameters,
)
from tests.coloring.test_extension import long_interval_graph


def check(graph, epsilon):
    result = interval_mis(graph, epsilon)
    assert is_independent_set(graph, result.independent_set)
    alpha = independence_number_chordal(graph)
    assert result.size() * (1 + epsilon) >= alpha, (
        f"|I| = {result.size()} too small vs alpha = {alpha} at eps = {epsilon}"
    )
    return result


class TestParameters:
    def test_k_values(self):
        assert mis_parameters(0.5) == 6
        assert mis_parameters(0.1) == 26

    def test_invalid_epsilon(self):
        for eps in (0, 1, -0.5, 2):
            with pytest.raises(ValueError):
                mis_parameters(eps)

    @pytest.mark.parametrize(
        "epsilon,shown", [(float("nan"), "nan"), (1.0, "1.0"), (0, "0")]
    )
    def test_interval_mis_error_names_the_value(self, epsilon, shown):
        with pytest.raises(ValueError, match=rf"in \(0, 1\), got {shown}$"):
            interval_mis(path_graph(4), epsilon)


class TestSmallComponents:
    def test_empty(self):
        result = interval_mis(Graph(), 0.5)
        assert result.independent_set == set()

    def test_single_vertex(self):
        g = Graph(vertices=[3])
        assert interval_mis(g, 0.5).independent_set == {3}

    def test_complete_graph(self):
        result = interval_mis(complete_graph(6), 0.5)
        assert result.size() == 1

    def test_short_paths_solved_exactly(self):
        for n in (2, 5, 10, 30):
            g = path_graph(n)
            result = check(g, 0.5)
            assert result.size() == (n + 1) // 2  # exact below 10k diameter


class TestLongComponents:
    def test_long_path(self):
        g = path_graph(500)
        result = check(g, 0.4)
        # optimum 250; the guarantee allows a small loss only
        assert result.size() >= 250 / 1.4

    def test_long_proper_interval(self):
        for seed in range(4):
            g = long_interval_graph(300, seed=seed)
            check(g, 0.4)

    def test_dominated_vertices_handled(self):
        # nested intervals: dominated removal must fire
        from repro.graphs import interval_graph_from_intervals

        intervals = {}
        x = 0.0
        for v in range(0, 300, 2):
            intervals[v] = (x, x + 1.0)
            intervals[v + 1] = (x + 0.2, x + 0.4)  # nested: dominates v
            x += 0.7
        g = interval_graph_from_intervals(intervals)
        check(g, 0.3)

    def test_round_accounting_log_star(self):
        small = interval_mis(path_graph(200), 0.2).rounds
        large = interval_mis(path_graph(1500), 0.2).rounds
        assert large <= small + 40 * (log_star(1500) - 0) and large >= small


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    n=st.integers(1, 90),
    eps=st.sampled_from([0.15, 0.3, 0.49, 0.8]),
)
def test_interval_mis_property(seed, n, eps):
    g = random_interval_graph(n, seed=seed, max_length=0.1)
    check(g, eps)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(50, 200))
def test_interval_mis_on_long_thin_graphs(seed, n):
    g = long_interval_graph(n, seed=seed)
    check(g, 0.35)
