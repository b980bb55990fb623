"""Failure injection: every public entry point rejects bad inputs loudly.

A production library must fail with the documented exception and a usable
message, not with a deep internal traceback or -- worse -- silently wrong
output.  Each case here feeds a malformed input to a public API and pins
the exception type.
"""

import pytest

from repro.cliquetree import (
    NotIntervalError,
    build_clique_forest,
    clique_paths_of_interval_graph,
)
from repro.coloring import (
    ColoringParameters,
    PathBags,
    col_int_graph,
    color_chordal_graph,
    diameter_rule,
    distributed_color_chordal,
    extend_path_coloring,
    message_level_layer_decisions,
    peel_chordal_graph,
)
from repro.graphs import (
    Graph,
    NotChordalError,
    NotProperIntervalError,
    clique_number,
    cycle_graph,
    is_chordal,
    maximal_cliques,
    path_graph,
    perfect_elimination_ordering,
    proper_interval_order,
    random_tree,
)
from repro.mis import chordal_mis, distributed_chordal_mis, interval_mis
from repro.mis.distributed_mis import message_level_mis_decisions
from repro.localmodel import path_spaced_selection, three_color_path
from tests.conftest import string_labels


NON_CHORDAL = cycle_graph(6)


def _tree_closing_a_long_cycle():
    """A random tree plus one edge closing a chordless cycle of length >= 4."""
    g = random_tree(16, seed=4)
    dist = g.bfs_distances(0)
    far = max(dist, key=lambda v: (dist[v], v))
    assert dist[far] >= 3
    g.add_edge(0, far)
    return g


#: non-chordal inputs: the 5-cycle, a string-labelled 4-cycle, a generated graph
NAMED_INPUTS = {
    "c5": lambda: cycle_graph(5),
    "c4-str": lambda: string_labels(cycle_graph(4)),
    "tree-plus-edge": _tree_closing_a_long_cycle,
}

#: every public entry point that needs a chordal input
CHORDAL_ENTRY_POINTS = {
    "perfect_elimination_ordering": perfect_elimination_ordering,
    "maximal_cliques": maximal_cliques,
    "clique_number": clique_number,
    "build_clique_forest": build_clique_forest,
    "peel_chordal_graph": lambda g: peel_chordal_graph(g, diameter_rule(4)),
    "color_chordal_graph": lambda g: color_chordal_graph(g, epsilon=0.5),
    "distributed_color_chordal": lambda g: distributed_color_chordal(g, epsilon=0.5),
    "chordal_mis": lambda g: chordal_mis(g, 0.4),
    "distributed_chordal_mis": lambda g: distributed_chordal_mis(g, 0.4),
    "message_level_layer_decisions": lambda g: message_level_layer_decisions(
        g, ColoringParameters.from_k(1)
    ),
    "message_level_mis_decisions": lambda g: message_level_mis_decisions(g, 1),
}


class TestNonChordalInputs:
    def test_coloring_entry_points(self):
        with pytest.raises(NotChordalError):
            color_chordal_graph(NON_CHORDAL, k=2)
        with pytest.raises(NotChordalError):
            distributed_color_chordal(NON_CHORDAL, k=2)

    @pytest.mark.parametrize("graph", sorted(NAMED_INPUTS))
    @pytest.mark.parametrize("entry", sorted(CHORDAL_ENTRY_POINTS))
    def test_every_entry_point_names_the_peo_vertex(self, entry, graph):
        g = NAMED_INPUTS[graph]()
        assert not is_chordal(g)
        with pytest.raises(NotChordalError) as named:
            perfect_elimination_ordering(g)
        assert named.value.vertex in g
        with pytest.raises(NotChordalError) as exc:
            CHORDAL_ENTRY_POINTS[entry](g)
        assert exc.value.vertex == named.value.vertex
        assert str(exc.value) == str(named.value)

    def test_mis_entry_points(self):
        with pytest.raises(NotChordalError):
            chordal_mis(NON_CHORDAL, 0.3)
        with pytest.raises(NotChordalError):
            distributed_chordal_mis(NON_CHORDAL, 0.3)

    def test_interval_entry_points(self):
        with pytest.raises(NotIntervalError):
            clique_paths_of_interval_graph(NON_CHORDAL)
        with pytest.raises(NotIntervalError):
            col_int_graph(NON_CHORDAL, k=2)
        with pytest.raises(NotProperIntervalError):
            proper_interval_order(NON_CHORDAL)


class TestParameterRanges:
    @pytest.mark.parametrize("eps", [0.0, -0.2])
    def test_coloring_epsilon(self, eps):
        with pytest.raises(ValueError):
            color_chordal_graph(path_graph(4), epsilon=eps)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.7, 1.0, -1.0])
    def test_chordal_mis_epsilon(self, eps):
        with pytest.raises(ValueError):
            chordal_mis(path_graph(4), eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0])
    def test_interval_mis_epsilon(self, eps):
        with pytest.raises(ValueError):
            interval_mis(path_graph(4), eps)

    def test_k_range(self):
        with pytest.raises(ValueError):
            ColoringParameters.from_k(-1)


class TestLocalModelInputs:
    def test_linial_duplicate_ids(self):
        with pytest.raises(ValueError):
            three_color_path([3, 3])

    def test_spacing_zero(self):
        with pytest.raises(ValueError):
            path_spaced_selection([1, 2, 3], 0)


class TestExtensionMisuse:
    def test_fixed_vertex_not_on_boundary(self):
        g = path_graph(10)
        bags = PathBags([{i, i + 1} for i in range(9)])
        with pytest.raises(ValueError, match="bag 0"):
            extend_path_coloring(
                g, bags, [1, 2, 3], fixed_left={5: 1}, fixed_right={9: 2}
            )

    def test_unknown_fixed_vertex(self):
        g = path_graph(4)
        bags = PathBags([{i, i + 1} for i in range(3)])
        with pytest.raises(KeyError):
            extend_path_coloring(
                g, bags, [1, 2], fixed_left={99: 1}, fixed_right={3: 2}
            )


class TestDegenerateGraphs:
    def test_everything_handles_empty(self):
        g = Graph()
        assert color_chordal_graph(g, k=2).coloring == {}
        assert chordal_mis(g, 0.3).independent_set == set()
        assert interval_mis(g, 0.5).independent_set == set()
        assert distributed_color_chordal(g, k=2).total_rounds == 0

    def test_everything_handles_singleton(self):
        g = Graph(vertices=["only"])
        assert color_chordal_graph(g, k=2).coloring == {"only": 1}
        assert chordal_mis(g, 0.3).independent_set == {"only"}
