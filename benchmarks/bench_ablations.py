"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each test times the cells of one ablation of experiment A1-A3, planned
at the registry's defaults, and asserts the property its table shows.
"""

from benchmarks.conftest import run_once
from repro.runner import cells, plan_cells


def _run_ablation(fn):
    """``(params, value)`` for every A1-A3 cell of one ablation, in plan order."""
    return [
        (spec.params, getattr(cells, fn)(**spec.params))
        for spec in plan_cells(["A1-A3"])
        if spec.fn == fn
    ]


def test_threshold_ablation(benchmark):
    """Smaller internal thresholds never increase the layer count."""
    rows = run_once(benchmark, _run_ablation, "a1_cell")
    layers = [value["layers"] for _, value in rows]  # multipliers ascending
    assert all(a <= b for a, b in zip(layers, layers[1:]))
    benchmark.extra_info["rows"] = rows


def test_spares_ablation(benchmark):
    """Relay-cut budget decreases as k shrinks (more spare colors)."""
    rows = run_once(benchmark, _run_ablation, "a2_cell")
    by_chi = {}
    for params, value in rows:
        by_chi.setdefault(params["chi"], []).append((params["k"], value["cuts"]))
    for chi, pairs in by_chi.items():
        pairs.sort()
        cuts = [c for _, c in pairs]
        # cut budget grows (weakly) with k for fixed chi
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))
        # and stays within the worst-case 4k + 5 sizing of the parameters
        for k, c in pairs:
            assert c <= 4 * k + 5
    benchmark.extra_info["rows"] = rows


def test_domination_ablation(benchmark):
    """Random-length instances dissolve under domination removal;
    unit chains survive nearly intact."""
    rows = run_once(benchmark, _run_ablation, "a3_cell")
    by_family = {params["family"]: value for params, value in rows}
    random_row = by_family["random lengths"]
    unit_row = by_family["unit chain"]
    # random lengths fragment into many more components than unit chains
    assert random_row["components"] > unit_row["components"]
    # unit chains keep a long component alive
    assert unit_row["max_diameter"] >= 20
    benchmark.extra_info["rows"] = rows
