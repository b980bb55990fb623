"""Experiments T7/T8 (Theorems 7-8): chordal MIS approximation and rounds."""

import pytest

from benchmarks.conftest import run_once
from repro.runner.cells import GRAPH_FAMILIES
from repro.graphs import is_independent_set
from repro.mis import chordal_mis, independence_number_chordal


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("eps", [0.45, 0.25])
def test_chordal_mis_ratio(benchmark, family, eps):
    g = GRAPH_FAMILIES[family](150, 1)
    result = run_once(benchmark, chordal_mis, g, eps)
    assert is_independent_set(g, result.independent_set)
    alpha = independence_number_chordal(g)
    assert result.size() * (1 + eps) >= alpha
    assert result.peeling.num_layers() <= result.kappa
    benchmark.extra_info.update(
        {
            "family": family,
            "eps": eps,
            "alpha": alpha,
            "size": result.size(),
            "ratio": round(alpha / max(1, result.size()), 4),
            "rounds": result.rounds,
        }
    )


def test_chordal_mis_stops_after_kappa_layers(benchmark):
    """Only O(log 1/eps) peeling iterations are performed (Section 7)."""
    g = GRAPH_FAMILIES["tree"](2000, 3)
    result = run_once(benchmark, chordal_mis, g, 0.45)
    assert result.peeling.num_layers() <= result.kappa
    benchmark.extra_info.update(
        {"kappa": result.kappa, "layers": result.peeling.num_layers()}
    )
