#!/usr/bin/env python3
"""Walk through the paper's worked example (Figures 1-6).

Reconstructs, from the 23-node chordal graph of Figure 1:

* the weighted clique intersection graph and the canonical clique forest
  (Figure 2),
* the local view of node 10 at radius 3 (Figures 3-4),
* the peeling of the internal path P = C6..C10 and the clique forest of
  the reduced graph (Figures 5-6, Lemma 3),
* the full layer partition of the pruning phase.

    python examples/paper_walkthrough.py
"""

from repro.analysis import format_table
from repro.cliquetree import (
    build_clique_forest,
    compute_local_view,
    nodes_with_subtree_in,
    path_vertices,
)
from repro.coloring import diameter_rule, peel_chordal_graph
from repro.graphs import (
    FIGURE3_CENTER,
    FIGURE5_PATH,
    PAPER_CLIQUES,
    paper_example_graph,
)

LABEL = {clique: name for name, clique in PAPER_CLIQUES.items()}


def show_figure_2(graph, forest):
    print("== Figure 2: weighted clique intersection graph and clique forest ==")
    rows = []
    for c1, c2 in forest.edges():
        rows.append((LABEL[c1], LABEL[c2], len(c1 & c2)))
    rows.sort()
    print(format_table(["clique", "clique", "weight"], rows))
    print(f"forest is a valid tree decomposition: "
          f"{forest.is_valid_decomposition(graph)}\n")


def show_figures_3_4(graph, forest):
    print(f"== Figures 3-4: local view of node {FIGURE3_CENTER}, radius 3 ==")
    view = compute_local_view(graph, FIGURE3_CENTER, radius=3)
    visible = sorted(LABEL[c] for c in view.forest.cliques())
    print(f"visible cliques: {', '.join(visible)}")
    local_edges = {frozenset(e) for e in view.forest.edges()}
    global_edges = {frozenset(e) for e in forest.edges()}
    print(f"all {len(local_edges)} reconstructed edges agree with the "
          f"global forest: {local_edges <= global_edges}\n")


def show_figures_5_6(graph, forest):
    print("== Figures 5-6: peeling the internal path C6..C10 ==")
    path = [PAPER_CLIQUES[name] for name in FIGURE5_PATH]
    u = nodes_with_subtree_in(forest, path)
    print(f"removed node set U = {sorted(u)}")
    # G[V_P] is isometric in G, so diam(P) is measured inside it
    print(f"diam(P) = {graph.induced_subgraph(path_vertices(path)).diameter()}")
    reduced = graph.subgraph_without(u)
    new_forest = forest.without_cliques(path)
    rebuilt = build_clique_forest(reduced)
    print(f"T - P equals the clique forest of G[V - U] (Lemma 3): "
          f"{new_forest == rebuilt}\n")


def show_peeling(graph):
    print("== Pruning phase: the layer partition ==")
    peeling = peel_chordal_graph(graph, internal_rule=diameter_rule(4))
    rows = []
    for i in range(1, peeling.num_layers() + 1):
        paths = peeling.layers[i - 1]
        rows.append(
            (
                i,
                len(paths),
                ", ".join(
                    "+".join(LABEL[c] for c in p.cliques) for p in paths
                ),
                sorted(peeling.nodes_of_layer(i)),
            )
        )
    print(format_table(["layer", "paths", "cliques", "nodes"], rows))


def main():
    graph = paper_example_graph()
    forest = build_clique_forest(graph)
    show_figure_2(graph, forest)
    show_figures_3_4(graph, forest)
    show_figures_5_6(graph, forest)
    show_peeling(graph)


if __name__ == "__main__":
    main()
