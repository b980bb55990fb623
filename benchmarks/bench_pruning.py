"""Experiment L6 (Lemma 6): the peeling terminates in <= ceil(log2 n) layers."""

import math

import pytest

from benchmarks.conftest import run_once
from repro.runner.cells import GRAPH_FAMILIES
from repro.coloring import diameter_rule, peel_chordal_graph


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("n", [200, 800])
def test_layer_count_log_bound(benchmark, family, n):
    g = GRAPH_FAMILIES[family](n, 0)
    peeling = run_once(
        benchmark, peel_chordal_graph, g, diameter_rule(4)
    )
    assert peeling.exhausted
    bound = math.ceil(math.log2(max(2, len(g)))) + 1
    assert peeling.num_layers() <= bound
    benchmark.extra_info.update(
        {"family": family, "n": n, "layers": peeling.num_layers(), "bound": bound}
    )


def test_balanced_binary_tree_needs_many_layers(benchmark):
    """The log n bound is near-tight on complete binary trees."""
    from repro.graphs import binary_tree

    g = binary_tree(depth=9)  # 1023 nodes
    peeling = run_once(benchmark, peel_chordal_graph, g, diameter_rule(10**9))
    assert peeling.num_layers() >= 4
    assert peeling.num_layers() <= math.ceil(math.log2(len(g))) + 1
    benchmark.extra_info["layers"] = peeling.num_layers()
