"""Algorithm 6: (1 + eps)-approximate MIS on chordal graphs (Section 7).

With d = ceil(64/eps) and kappa = ceil(log2(d/eps) + 2), peel the clique
forest for kappa iterations: pendant paths always, internal paths of
diameter >= 2d + 3 in iterations < kappa, and internal paths of
independence number >= d in the last one.  Lemma 14 shows the unpeeled
remainder G_{kappa+1} carries at most (eps/2) alpha(G) worth of
independent set, so the peeled layers suffice.

Each peeled path contributes the following to the growing independent set
I: for every connected component H of G_i[W_P minus Gamma_G[I]],

* alpha(H) < d and i < kappa:  an *absorbing* maximum independent set
  anchored at the unique outside clique H touches (see
  :mod:`repro.mis.absorbing`),
* alpha(H) < d and i = kappa:  any maximum independent set,
* alpha(H) >= d:               a (1 + eps/8)-approximation from
  Algorithm 5 (:mod:`repro.mis.interval_mis`).

Theorem 7: I is a (1 + eps)-approximation for eps in (0, 1/2).
Theorem 8: the distributed implementation runs in
O((1/eps) log(1/eps) log* n) rounds; :func:`distributed_chordal_mis`
accounts them (kappa ball collections of radius O(d) plus the per-path
interval MIS rounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..cliquetree.paths import ForestPath, path_independence_number
from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import is_chordal, not_chordal_error
from ..coloring.prune import Peeling, diameter_rule, peel_chordal_graph
from .absorbing import absorbing_mis
from .exact import independence_number_chordal, maximum_independent_set_chordal
from .interval_mis import interval_mis

__all__ = ["ChordalMISResult", "chordal_mis", "mis_peeling_parameters"]


@dataclass
class ChordalMISResult:
    """Independent set, the peeling behind it, and round accounting."""

    independent_set: Set[Vertex]
    peeling: Peeling
    epsilon: float
    d: int
    kappa: int
    rounds: int

    def size(self) -> int:
        return len(self.independent_set)


def mis_peeling_parameters(epsilon: float) -> Tuple[int, int]:
    """(d, kappa) = (ceil(64/eps), ceil(log2(d/eps) + 2))."""
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2), got {epsilon!r}")
    d = math.ceil(64.0 / epsilon)
    kappa = math.ceil(math.log2(d / epsilon) + 2)
    return d, kappa


def chordal_mis(graph: Graph, epsilon: float) -> ChordalMISResult:
    """Run Algorithm 6 (centralized reference; rounds are accounted too).

    Raises :class:`~repro.graphs.chordal.NotChordalError` on non-chordal
    input, naming the vertex
    :func:`~repro.graphs.chordal.perfect_elimination_ordering` names.
    """
    d, kappa = mis_peeling_parameters(epsilon)
    if not is_chordal(graph):
        raise not_chordal_error(graph)
    if len(graph) == 0:
        return ChordalMISResult(set(), Peeling([], {}, True), epsilon, d, kappa, 0)

    def last_rule(path: ForestPath) -> bool:
        return path_independence_number(path.cliques) >= d

    peeling = peel_chordal_graph(
        graph,
        internal_rule=diameter_rule(2 * d + 3),
        max_iterations=kappa,
        last_iteration_rule=last_rule,
    )

    chosen: Set[Vertex] = set()
    rounds = 0
    remaining = set(graph.vertices())
    for i, layer_paths in enumerate(peeling.layers, start=1):
        ambient = graph.induced_subgraph(remaining)  # G_i
        layer_rounds = 0
        for peeled in layer_paths:
            eligible = set(peeled.nodes) - graph.closed_set_neighborhood(chosen)
            if not eligible:
                continue
            sub = graph.induced_subgraph(eligible)
            for comp in sub.connected_components():
                h = sub.induced_subgraph(comp)
                alpha_h = independence_number_chordal(h)
                if alpha_h >= d:
                    result = interval_mis(h, epsilon / 8.0)
                    chosen |= result.independent_set
                    layer_rounds = max(layer_rounds, result.rounds)
                elif i < peeling.num_layers() or not _is_last_peel(peeling, i):
                    anchor = _anchor_clique(ambient, h, peeled)
                    chosen |= absorbing_mis(h, ambient, anchor)
                    layer_rounds = max(layer_rounds, 2 * d + 4)
                else:
                    chosen |= maximum_independent_set_chordal(h)
                    layer_rounds = max(layer_rounds, 2 * d + 4)
        for peeled in layer_paths:
            remaining -= peeled.nodes
        # one ball collection of radius O(d) plus the layer's local work
        rounds += (2 * d + 3) + layer_rounds

    return ChordalMISResult(
        independent_set=chosen,
        peeling=peeling,
        epsilon=epsilon,
        d=d,
        kappa=kappa,
        rounds=rounds,
    )


def _is_last_peel(peeling: Peeling, i: int) -> bool:
    return i == peeling.num_layers() and not peeling.exhausted


def _anchor_clique(
    ambient: Graph, component: Graph, peeled
) -> Optional[frozenset]:
    """The unique outside clique of T_i that H touches, if any.

    A component with alpha < d peeled before the last iteration touches at
    most one of the path's attachment cliques (Section 7.1's diameter
    argument); when it touches none, any maximum independent set is
    absorbing and no anchor is needed.
    """
    touching = []
    members = set(component.vertices())
    for att in (peeled.path.left_attachment, peeled.path.right_attachment):
        if att is None:
            continue
        att_present = set(att) & set(ambient.vertices())
        if any(ambient.neighbors_view(u) & members for u in att_present):
            touching.append(frozenset(att_present))
    if not touching:
        return None
    if len(touching) == 1:
        return touching[0]
    # Both ends touched: only possible for alpha(H) >= d components or in
    # the final iteration; anchor at the nearer end for determinism.
    return touching[0]
