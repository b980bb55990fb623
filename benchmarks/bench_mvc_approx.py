"""Experiment T3 (Theorem 3): Algorithm 1's approximation factor.

For every graph family and eps, the measured number of colors must stay
within floor((1 + 1/k) chi) + 1, and within (1 + eps) chi whenever
eps > 2/chi.
"""

import pytest

from benchmarks.conftest import run_once
from repro.runner.cells import GRAPH_FAMILIES
from repro.coloring import color_chordal_graph
from repro.graphs import is_proper_coloring


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_mvc_approximation(benchmark, family, eps):
    g = GRAPH_FAMILIES[family](150, 0)
    result = run_once(benchmark, color_chordal_graph, g, epsilon=eps)
    assert is_proper_coloring(g, result.coloring)
    chi = result.chi
    k = result.parameters.k
    assert result.num_colors() <= chi + chi // k + 1
    if eps > 2.0 / max(1, chi):
        assert result.num_colors() <= (1 + eps) * chi
    benchmark.extra_info.update(
        {
            "family": family,
            "eps": eps,
            "chi": chi,
            "colors": result.num_colors(),
            "ratio": round(result.approximation_ratio(), 4),
            "layers": result.peeling.num_layers(),
        }
    )
