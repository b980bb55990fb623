"""Parameter derivations: k, distances, palettes, morph budgets."""

import pytest

from repro.coloring import (
    ColoringParameters,
    morph_cut_budget,
    required_morph_distance,
)
from repro.graphs import path_graph


class TestColoringParameters:
    def test_from_epsilon(self):
        params = ColoringParameters.from_epsilon(0.5)
        assert params.k == 4
        assert params.epsilon == 0.5

    def test_from_epsilon_rounding(self):
        assert ColoringParameters.from_epsilon(0.3).k == 7

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ColoringParameters.from_epsilon(0)
        with pytest.raises(ValueError):
            ColoringParameters.from_epsilon(-1)
        with pytest.raises(ValueError):
            ColoringParameters.from_k(0)
        with pytest.raises(ValueError):
            ColoringParameters.paper_constants(0)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2", None, 0, -3])
    def test_from_k_rejects_non_integer_k_by_name(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1 and an integer, got {k!r}"):
            ColoringParameters.from_k(k)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2", None, 0, -3])
    def test_paper_constants_rejects_non_integer_k_by_name(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1 and an integer, got {k!r}"):
            ColoringParameters.paper_constants(k)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_epsilon_is_named(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            ColoringParameters.from_epsilon(epsilon)

    @pytest.mark.parametrize("epsilon", [True, False])
    def test_bool_epsilon_is_rejected(self, epsilon):
        # from_k(True) is rejected too: no numeric boundary takes a bool
        with pytest.raises(
            ValueError, match=f"epsilon must be positive and finite, got {epsilon}$"
        ):
            ColoringParameters.from_epsilon(epsilon)

    @pytest.mark.parametrize("driver", ["color_chordal_graph", "distributed_color_chordal"])
    def test_bool_epsilon_is_rejected_by_the_drivers(self, driver):
        import repro.coloring

        with pytest.raises(
            ValueError, match="epsilon must be positive and finite, got True$"
        ):
            getattr(repro.coloring, driver)(path_graph(6), epsilon=True)

    def test_derived_distances_scale_linearly_in_k(self):
        p1 = ColoringParameters.from_k(1)
        p8 = ColoringParameters.from_k(8)
        assert p8.recolor_distance < 10 * p1.recolor_distance
        assert p8.internal_threshold == 2 * p8.recolor_distance + 4
        assert p8.collect_radius == 3 * p8.internal_threshold

    def test_paper_constants(self):
        p = ColoringParameters.paper_constants(5)
        assert p.recolor_distance == 8  # k + 3
        assert p.internal_threshold == 15  # 3k
        assert p.collect_radius == 50  # 10k

    def test_palette_size(self):
        p = ColoringParameters.from_k(4)
        # floor((1 + 1/4) chi) + 1
        assert p.palette_size(8) == 11
        assert p.palette_size(3) == 4
        assert p.palette_size(0) == 1

    def test_minimum_spares_at_least_one(self):
        for k in (1, 2, 8):
            p = ColoringParameters.from_k(k)
            for chi in (0, 1, 5, 100):
                assert p.minimum_spares(chi) >= 1


class TestMorphBudgets:
    def test_cut_budget_shrinks_with_spares(self):
        assert morph_cut_budget(20, 1) > morph_cut_budget(20, 5)

    def test_cut_budget_worst_case_bound(self):
        """With the global palette's spares, cuts stay <= 4k + 5."""
        for k in (1, 2, 4, 8):
            p = ColoringParameters.from_k(k)
            for chi in range(1, 200):
                cuts = morph_cut_budget(chi, p.minimum_spares(chi))
                assert cuts <= 4 * k + 5

    def test_required_distance_consistent(self):
        assert required_morph_distance(10, 2) == 2 * morph_cut_budget(10, 2) + 6

    def test_zero_spares_rejected(self):
        with pytest.raises(ValueError):
            morph_cut_budget(5, 0)
