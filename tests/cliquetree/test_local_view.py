"""Local views of the clique forest (Section 3, Lemma 2, Figures 3-4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import build_clique_forest, compute_local_view
from repro.graphs import (
    FIGURE3_CENTER,
    PAPER_CLIQUES,
    paper_example_graph,
    path_graph,
    random_chordal_graph,
)
from tests.oracles import local_cliques_of


class TestLocalCliques:
    def test_phi_of_node_10(self):
        g = paper_example_graph()
        ball = g.induced_subgraph(g.ball(10, 3))
        phi = set(local_cliques_of(ball, 10))
        assert phi == {PAPER_CLIQUES["C6"], PAPER_CLIQUES["C7"]}

    def test_matches_global_phi(self):
        g = paper_example_graph()
        forest = build_clique_forest(g)
        for v in g.vertices():
            ball = g.induced_subgraph(g.ball(v, 2))
            assert set(local_cliques_of(ball, v)) == forest.phi(v)


class TestFigure34:
    """Node 10's distance-3 view reproduces the fragment of Figure 4."""

    def test_visible_cliques(self):
        g = paper_example_graph()
        view = compute_local_view(g, FIGURE3_CENTER, radius=3)
        names = {"C1", "C2", "C3", "C5", "C6", "C7", "C8", "C9"}
        expected = {PAPER_CLIQUES[n] for n in names}
        assert set(view.forest.cliques()) == expected

    def test_fragment_edges_agree_with_global_forest(self):
        g = paper_example_graph()
        forest = build_clique_forest(g)
        view = compute_local_view(g, FIGURE3_CENTER, radius=3)
        global_edges = {frozenset(e) for e in forest.edges()}
        local_edges = {frozenset(e) for e in view.forest.edges()}
        assert local_edges <= global_edges

    def test_fragment_is_induced_restriction(self):
        """Figure 4: the local forest equals the subtree of T induced by
        the visible cliques."""
        g = paper_example_graph()
        forest = build_clique_forest(g)
        view = compute_local_view(g, FIGURE3_CENTER, radius=3)
        visible = set(view.forest.cliques())
        induced = {
            frozenset(e)
            for e in forest.edges()
            if e[0] in visible and e[1] in visible
        }
        assert {frozenset(e) for e in view.forest.edges()} == induced

    def test_interior_is_distance_two_ball(self):
        g = paper_example_graph()
        view = compute_local_view(g, FIGURE3_CENTER, radius=3)
        assert view.interior == g.ball(FIGURE3_CENTER, 2)

    def test_confirmed_degrees_match_global(self):
        g = paper_example_graph()
        forest = build_clique_forest(g)
        view = compute_local_view(g, FIGURE3_CENTER, radius=3)
        for c in view.confirmed:
            assert view.forest.degree(c) == forest.degree(c)
            assert view.degree_is_exact(c)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            compute_local_view(paper_example_graph(), 10, radius=0)

    @pytest.mark.parametrize(
        "radius,name", [(True, "bool"), (1.5, "float"), ("2", "str")]
    )
    def test_non_int_radius_is_a_type_error(self, radius, name):
        """As at ``gather_balls``: no bool runs as 1, no float as a
        centre-only view, no string fails inside a comparison."""
        with pytest.raises(TypeError, match=f"radius must be an int, got {name}"):
            compute_local_view(paper_example_graph(), 10, radius=radius)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(2, 25), radius=st.integers(2, 5))
def test_local_view_edges_always_subset_of_global(seed, n, radius):
    """Lemma 2: every edge a node reconstructs is a global forest edge, and
    every global edge between confirmed cliques is reconstructed."""
    g = random_chordal_graph(n, seed=seed)
    forest = build_clique_forest(g)
    global_edges = {frozenset(e) for e in forest.edges()}
    for v in list(g.vertices())[:5]:
        view = compute_local_view(g, v, radius=radius)
        local_edges = {frozenset(e) for e in view.forest.edges()}
        assert local_edges <= global_edges
        for c in view.confirmed:
            for d in forest.neighbors(c):
                assert frozenset((c, d)) in local_edges


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(2, 22))
def test_full_radius_view_recovers_whole_forest_component(seed, n):
    g = random_chordal_graph(n, seed=seed)
    forest = build_clique_forest(g)
    v = g.vertices()[0]
    comp = [c for c in g.connected_components() if v in c][0]
    view = compute_local_view(g, v, radius=n + 2)
    comp_cliques = {c for c in forest.cliques() if c <= comp}
    assert set(view.forest.cliques()) == comp_cliques
