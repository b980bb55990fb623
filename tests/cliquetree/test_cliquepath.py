"""Consecutive clique arrangements (clique paths) and interval recognition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import (
    NotIntervalError,
    clique_paths_of_interval_graph,
    consecutive_clique_arrangement,
    is_interval_graph,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    interval_graph_from_intervals,
    maximal_cliques,
    path_graph,
    random_interval_graph,
    star_graph,
)


def is_consecutive(arrangement):
    """Every vertex occupies a consecutive run of cliques."""
    positions = {}
    for i, c in enumerate(arrangement):
        for v in c:
            positions.setdefault(v, []).append(i)
    return all(ps == list(range(ps[0], ps[-1] + 1)) for ps in positions.values())


class TestArrangement:
    def test_empty_and_single(self):
        assert consecutive_clique_arrangement([]) == []
        c = frozenset({1, 2})
        assert consecutive_clique_arrangement([c]) == [c]

    def test_path_graph(self):
        g = path_graph(6)
        arr = consecutive_clique_arrangement(maximal_cliques(g))
        assert arr is not None
        assert is_consecutive(arr)
        assert len(arr) == 5

    def test_star_graph_symmetric_cliques(self):
        """K_{1,m}: any order works; the symmetry pruning must not blow up."""
        g = star_graph(12)
        arr = consecutive_clique_arrangement(maximal_cliques(g))
        assert arr is not None
        assert is_consecutive(arr)

    def test_long_path_does_not_recurse(self):
        """The search depth is the clique count; it must not hit the
        interpreter's recursion limit (a 3000-vertex path has 2999)."""
        arr = consecutive_clique_arrangement(maximal_cliques(path_graph(3000)))
        assert arr is not None
        assert len(arr) == 2999
        assert is_consecutive(arr)

    def test_non_interval_cliques_rejected(self):
        # Subdivided star: chordal but not interval.
        g = Graph(edges=[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        arr = consecutive_clique_arrangement(maximal_cliques(g))
        assert arr is None


class TestRecognition:
    def test_interval_families(self):
        assert is_interval_graph(path_graph(10))
        assert is_interval_graph(complete_graph(5))
        assert is_interval_graph(star_graph(7))
        assert is_interval_graph(Graph())

    def test_non_interval(self):
        assert not is_interval_graph(cycle_graph(4))  # not even chordal
        g = Graph(edges=[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert not is_interval_graph(g)  # chordal, not interval

    def test_random_interval_graphs_recognized(self):
        for seed in range(8):
            g = random_interval_graph(30, seed=seed, max_length=0.25)
            assert is_interval_graph(g)

    def test_clique_paths_validity(self):
        for seed in range(5):
            g = random_interval_graph(25, seed=seed, max_length=0.3)
            for path in clique_paths_of_interval_graph(g):
                assert is_consecutive(path)

    def test_clique_paths_cover_graph(self):
        g = random_interval_graph(20, seed=3, max_length=0.3)
        covered = set()
        for path in clique_paths_of_interval_graph(g):
            for c in path:
                covered |= c
        assert covered == set(g.vertices())

    def test_raises_on_non_interval(self):
        with pytest.raises(NotIntervalError):
            clique_paths_of_interval_graph(cycle_graph(5))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
def test_random_interval_graph_clique_paths(seed, n):
    g = random_interval_graph(n, seed=seed, max_length=0.2)
    paths = clique_paths_of_interval_graph(g)
    assert all(is_consecutive(p) for p in paths)
    assert len(paths) == len(g.connected_components())
