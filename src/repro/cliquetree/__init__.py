"""Clique forests of chordal graphs (Section 3 of the paper).

Provides the canonical clique forest (the maximum weight spanning forest of
W_G under the paper's edge order ``<``, Theorem 2, built from one clique
tree's separators) as a :class:`~repro.cliquetree.forest.CliqueForest`
with subtree queries, W_G edges and Kruskal under ``<`` for the local
views' small W_G[phi(u)], binary/pendant/internal path machinery for the
peeling process (Section 2, Lemmas 3-6), and the local-view construction
that lets simulated network nodes reconstruct coherent fragments of the
global forest (Lemma 2, Figures 3-4).
"""

from .cliquepath import (
    NotIntervalError,
    clique_paths_of_interval_graph,
    consecutive_clique_arrangement,
    is_interval_graph,
)
from .forest import CliqueForest, build_clique_forest
from .local_view import (
    LocalView,
    SubtreeTable,
    compute_local_view,
    local_view_from_ball,
)
from .paths import (
    ForestPath,
    greedy_path_mis,
    nodes_with_subtree_in,
    path_independence_number,
    path_vertices,
)
from .spanning import UnionFind, maximum_weight_spanning_forest
from .wcig import (
    Clique,
    WeightedEdge,
    edge_key,
    sigma,
    wcig_edges_among,
)

__all__ = [
    "CliqueForest",
    "build_clique_forest",
    "NotIntervalError",
    "clique_paths_of_interval_graph",
    "consecutive_clique_arrangement",
    "is_interval_graph",
    "LocalView",
    "SubtreeTable",
    "compute_local_view",
    "local_view_from_ball",
    "ForestPath",
    "greedy_path_mis",
    "nodes_with_subtree_in",
    "path_independence_number",
    "path_vertices",
    "UnionFind",
    "maximum_weight_spanning_forest",
    "Clique",
    "WeightedEdge",
    "edge_key",
    "sigma",
    "wcig_edges_among",
]
