"""Algorithm 1: (1 + eps)-approximate Minimum Vertex Coloring of chordal graphs.

The three phases of Section 4, on top of the shared building blocks:

1. **Pruning** (:mod:`repro.coloring.prune`): peel pendant paths and long
   internal paths until the clique forest is empty; at most ceil(log2 n)
   layers, each inducing an interval graph (Lemma 7).

2. **Coloring**: every peeled path's interval graph G[W_P] is colored
   independently with ColIntGraph (paths of one layer are pairwise
   non-adjacent by Lemma 11, and so are paths of different layers'
   *interiors* -- conflicts are confined to the boundaries handled next).
   The global palette [1 .. floor((1+1/k) chi(G)) + 1] of Theorem 3 is used
   throughout.

3. **Color correction** (Lemma 10): processing layers from the last to the
   first, each path's conflict zones -- the nodes within the recoloring
   distance of its attachment cliques C_s/C_e -- are recolored with the
   extension morph so that they agree with the (already final) colors of
   the higher-layer neighbors W', while nodes deeper inside the path keep
   their phase-2 colors.

Theorem 3: for eps > 2/chi(G) the result uses at most (1 + eps) chi(G)
colors; in general it uses at most floor((1 + 1/k) chi(G)) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import clique_number, is_chordal, not_chordal_error
from .decomposition import PathBags
from .extension import extend_path_coloring
from .interval_coloring import color_interval_component
from .parameters import ColoringParameters, morph_cut_budget
from .prune import PeeledPath, Peeling, diameter_rule, peel_chordal_graph

Color = int

__all__ = ["ChordalColoringResult", "color_chordal_graph", "correct_path_colors"]


@dataclass
class ChordalColoringResult:
    """Output of Algorithm 1 (and the payload of Algorithm 2)."""

    coloring: Dict[Vertex, Color]
    peeling: Peeling
    parameters: ColoringParameters
    palette_size: int
    chi: int
    #: per-layer ColIntGraph round counts (used by the distributed driver)
    layer_color_rounds: List[int]

    def num_colors(self) -> int:
        return len(set(self.coloring.values()))

    def approximation_ratio(self) -> float:
        if self.chi == 0:
            return 1.0
        return self.num_colors() / self.chi


def color_chordal_graph(
    graph: Graph,
    epsilon: Optional[float] = None,
    k: Optional[int] = None,
) -> ChordalColoringResult:
    """Run Algorithm 1.  Provide either ``epsilon`` or ``k`` = ceil(2/eps).

    Raises :class:`~repro.graphs.chordal.NotChordalError` on non-chordal
    input (the clique forest machinery would produce garbage otherwise),
    naming the vertex :func:`~repro.graphs.chordal.perfect_elimination_ordering`
    names.
    """
    if (epsilon is None) == (k is None):
        raise ValueError("provide exactly one of epsilon and k")
    params = (
        ColoringParameters.from_epsilon(epsilon)
        if epsilon is not None
        else ColoringParameters.from_k(k)
    )
    if not is_chordal(graph):
        raise not_chordal_error(graph)
    if len(graph) == 0:
        return ChordalColoringResult({}, Peeling([], {}, True), params, 1, 0, [])

    chi = clique_number(graph)
    palette_size = params.palette_size(chi)
    palette = list(range(1, palette_size + 1))

    # Phase 1: pruning.
    peeling = peel_chordal_graph(
        graph, internal_rule=diameter_rule(params.internal_threshold)
    )

    # Phase 2: color every peeled path independently.
    coloring: Dict[Vertex, Color] = {}
    layer_rounds: List[int] = []
    for layer_paths in peeling.layers:
        rounds_here = 0
        for peeled in layer_paths:
            bags = peeled.layer_bags()
            sub = graph.induced_subgraph(peeled.nodes)
            result = color_interval_component(sub, bags, params.k, palette=palette)
            coloring.update(result.coloring)
            rounds_here = max(rounds_here, result.rounds)
        layer_rounds.append(rounds_here)

    # Phase 3: correction, from the top layer down.
    for layer_index in range(peeling.num_layers() - 1, 0, -1):
        for peeled in peeling.layers[layer_index - 1]:
            correct_path_colors(graph, peeling, peeled, coloring, palette, params)

    return ChordalColoringResult(
        coloring=coloring,
        peeling=peeling,
        parameters=params,
        palette_size=palette_size,
        chi=chi,
        layer_color_rounds=layer_rounds,
    )


def conflict_boundary(
    graph: Graph, peeling: Peeling, peeled: PeeledPath
) -> Set[Vertex]:
    """W': higher-layer neighbors of the path's node set (Lemma 11)."""
    w_prime: Set[Vertex] = set()
    for v in peeled.nodes:
        for u in graph.neighbors_view(v):
            if peeling.layer_of.get(u, math.inf) > peeled.layer:
                w_prime.add(u)
    return w_prime


def correct_path_colors(
    graph: Graph,
    peeling: Peeling,
    peeled: PeeledPath,
    coloring: Dict[Vertex, Color],
    palette: Sequence[Color],
    params: ColoringParameters,
) -> None:
    """Resolve the conflicts of one peeled path against higher layers.

    Mutates ``coloring`` in place: only nodes of W = peeled.nodes change,
    and only those within the recoloring zone near the attachments.
    Implements Lemma 10 via the extension morph on G[W + W'].
    """
    w_prime = conflict_boundary(graph, peeling, peeled)
    if not w_prime:
        return  # whole-component path: phase-2 colors are final
    members = set(peeled.nodes) | w_prime

    # Build the Lemma 8 decomposition: [C_s cap X] + restricted path + [C_e cap X].
    path = peeled.path.oriented()
    left_att, right_att = path.left_attachment, path.right_attachment
    inner = [c & members for c in path.cliques]
    bags = PathBags(
        ([left_att & members] if left_att else [])
        + inner
        + ([right_att & members] if right_att else [])
    )
    sub = graph.induced_subgraph(bags.vertices())

    chi_local = bags.max_bag_size()
    spares = max(1, len(palette) - chi_local)
    block = morph_cut_budget(chi_local, spares) + 4

    fixed_prime = {u: coloring[u] for u in w_prime if u in bags}

    # One recoloring zone per attachment: the first `block` steps of the
    # disjoint-bag chain from that end.  Splitting into zones preserves the
    # paper's locality (only nodes near W' are recolored); it needs each
    # zone to fit, and the two zones to be vertex-disjoint.
    sides = []
    for oriented, att in ((bags, left_att), (bags.reversed_(), right_att)):
        if att is not None:
            chain = oriented.disjoint_cut_positions(0, len(bags) - 1)
            sides.append((oriented, chain, att))
    zones_fit = all(len(chain) > block + 2 for _, chain, _ in sides)
    if zones_fit and len(sides) == 2:
        zone_a = set().union(*sides[0][0].subrange(0, sides[0][1][block]).bags)
        zone_b = set().union(*sides[1][0].subrange(0, sides[1][1][block]).bags)
        zones_fit = not (zone_a & zone_b)

    if not zones_fit:
        # Too short to split: one morph over the whole instance.  Internal
        # paths are peeled only at diameter >= 2*recolor_distance + 4, so
        # this branch almost always sees a single attachment.
        fixed_left = {u: fixed_prime[u] for u in (left_att or set()) if u in fixed_prime}
        fixed_right = {u: fixed_prime[u] for u in (right_att or set()) if u in fixed_prime}
        new_colors = extend_path_coloring(
            sub,
            bags,
            palette,
            fixed_left=fixed_left or None,
            fixed_right=fixed_right or None,
        )
    else:
        # Recolor only the boundary zones; the interior keeps its phase-2
        # colors (the paper's distance-(k+3) locality of Lemma 10).
        new_colors = dict(coloring)
        for oriented, chain, att in sides:
            zone = oriented.subrange(0, chain[block])
            zone_members = set(zone.vertices())
            zone_graph = sub.induced_subgraph(zone_members)
            fixed_left = {
                u: fixed_prime[u] for u in (att & zone_members) if u in fixed_prime
            }
            far_bag = set(zone.bags[-1])
            fixed_right = {u: new_colors[u] for u in far_bag}
            zone_colors = extend_path_coloring(
                zone_graph,
                zone,
                palette,
                fixed_left=fixed_left or None,
                fixed_right=fixed_right,
            )
            for v in zone_members - far_bag:
                if v in peeled.nodes:
                    new_colors[v] = zone_colors[v]

    for v in peeled.nodes:
        coloring[v] = new_colors[v]
