"""Experiments F1-F6: the paper's worked example (Figures 1-6)."""

from benchmarks.conftest import run_once
from repro.cliquetree import (
    build_clique_forest,
    compute_local_view,
    nodes_with_subtree_in,
)
from repro.graphs import (
    FIGURE3_CENTER,
    FIGURE5_PATH,
    PAPER_CLIQUES,
    paper_example_cliques,
    paper_example_graph,
)


def test_figure1_graph_construction(benchmark):
    """F1: the 23-node chordal graph of Figure 1."""
    g = run_once(benchmark, paper_example_graph)
    assert len(g) == 23
    assert g.num_edges() == 35
    benchmark.extra_info["n"] = len(g)
    benchmark.extra_info["m"] = g.num_edges()


def test_figure2_clique_forest(benchmark):
    """F2: W_G and the canonical clique forest."""
    g = paper_example_graph()
    forest = run_once(benchmark, build_clique_forest, g)
    assert set(forest.cliques()) == set(paper_example_cliques())
    assert len(forest.edges()) == 14
    assert forest.is_valid_decomposition(g)
    benchmark.extra_info["cliques"] = forest.num_cliques()


def test_figure34_local_view(benchmark):
    """F3/F4: node 10's radius-3 local view equals the induced fragment."""
    g = paper_example_graph()
    forest = build_clique_forest(g)
    view = run_once(benchmark, compute_local_view, g, FIGURE3_CENTER, 3)
    names = {"C1", "C2", "C3", "C5", "C6", "C7", "C8", "C9"}
    assert set(view.forest.cliques()) == {PAPER_CLIQUES[n] for n in names}
    global_edges = {frozenset(e) for e in forest.edges()}
    assert {frozenset(e) for e in view.forest.edges()} <= global_edges
    benchmark.extra_info["visible_cliques"] = len(view.forest.cliques())


def test_figure56_path_removal(benchmark):
    """F5/F6: peeling C6..C10 leaves the clique forest of the reduced graph."""
    g = paper_example_graph()
    forest = build_clique_forest(g)
    path = [PAPER_CLIQUES[name] for name in FIGURE5_PATH]

    def peel():
        u = nodes_with_subtree_in(forest, path)
        return u, forest.without_cliques(path)

    u, reduced_forest = run_once(benchmark, peel)
    assert u == {9, 10, 11, 12, 13, 14}
    assert reduced_forest == build_clique_forest(g.subgraph_without(u))
    benchmark.extra_info["removed_nodes"] = len(u)
