"""Algorithm 5: distributed (1 + eps)-approximate MIS on interval graphs.

Section 6 of the paper.  Per connected component of the input interval
graph H:

1. remove *dominated* vertices (closed neighborhood strictly containing
   another's) -- a local test that preserves alpha and leaves a proper
   interval graph;
2. if the component's diameter is at most 10k (k = ceil(2.5/eps + 0.5)),
   one coordinator computes an exact maximum independent set;
3. otherwise compute a maximal distance-k independent set I_1 (the paper
   simulates MISUnitInterval [31] on the k-th power; we use the canonical
   greedy with the charged O(k log* n) round cost, see DESIGN.md), then:
   for every pair of I_1 members at distance <= 2k - 1 compute an exact
   maximum independent set of the region V_{u,v} strictly between them,
   and let the right-most member handle the fringe beyond it; the union
   of everything is the output.

Theorem 5/6: the result is a (1 + eps)-approximation, in
O((1/eps) log* n) rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Set, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..graphs.interval import proper_interval_order, remove_dominated_vertices
from ..localmodel.rulingset import charged_rounds_distance_k, greedy_distance_k_selection
from .exact import maximum_independent_set_chordal

__all__ = ["IntervalMISResult", "interval_mis", "mis_parameters"]


@dataclass
class IntervalMISResult:
    """Independent set plus LOCAL-model round accounting."""

    independent_set: Set[Vertex]
    rounds: int

    def size(self) -> int:
        return len(self.independent_set)


def mis_parameters(epsilon: float) -> int:
    """k = ceil(2.5/eps + 0.5) of Theorem 5."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return math.ceil(2.5 / epsilon + 0.5)


def interval_mis(graph: Graph, epsilon: float) -> IntervalMISResult:
    """Run Algorithm 5 on a (possibly disconnected) interval graph."""
    k = mis_parameters(epsilon)
    chosen: Set[Vertex] = set()
    rounds = 0
    for comp in graph.connected_components():
        result = _component_mis(graph.induced_subgraph(comp), k)
        chosen |= result.independent_set
        rounds = max(rounds, result.rounds)
    return IntervalMISResult(chosen, rounds)


def _component_mis(component: Graph, k: int) -> IntervalMISResult:
    # Step 1: drop dominated vertices (alpha-preserving, leaves proper
    # interval).  Locally checkable, two rounds of neighborhood exchange.
    h = remove_dominated_vertices(component)
    rounds = 2

    # The removal cannot disconnect h's cover of the component's alpha,
    # but it may disconnect the graph itself; recurse over the pieces.
    pieces = h.connected_components()
    chosen: Set[Vertex] = set()
    for piece in pieces:
        sub = h.induced_subgraph(piece)
        diam = sub.diameter() if len(sub) > 1 else 0
        if diam <= 10 * k:
            chosen |= maximum_independent_set_chordal(sub)
            rounds = max(rounds, 2 + diam + 1)
            continue
        chosen_piece, piece_rounds = _long_component_mis(sub, k)
        chosen |= chosen_piece
        rounds = max(rounds, 2 + piece_rounds)
    return IntervalMISResult(chosen, rounds)


def _long_component_mis(sub: Graph, k: int) -> Tuple[Set[Vertex], int]:
    """Steps 2-6 of Algorithm 5 on a long proper interval component."""
    order = proper_interval_order(sub)
    position = {v: i for i, v in enumerate(order)}
    i1 = greedy_distance_k_selection(sub, order, k)
    rounds = charged_rounds_distance_k(len(sub), k)
    i1.sort(key=lambda v: position[v])

    chosen: Set[Vertex] = set(i1)
    # Pairs of consecutive members at distance <= 2k - 1 (maximality makes
    # this every consecutive pair; we keep the paper's guard anyway).
    for u, v in zip(i1, i1[1:]):
        dist_u = sub.bfs_distances(u, cutoff=2 * k)
        d_uv = dist_u.get(v)
        if d_uv is None or d_uv > 2 * k - 1:
            continue
        dist_v = sub.bfs_distances(v, cutoff=2 * k)
        forbidden = sub.closed_neighborhood(u) | sub.closed_neighborhood(v)
        between = {
            w
            for w in dist_u
            if w in dist_v
            and w not in forbidden
            and max(dist_u[w], dist_v[w]) <= d_uv
            # positional guard: boundary vertices equidistant from u and v
            # but lying outside (u, v) would let two regions' sets touch
            and position[u] < position[w] < position[v]
        }
        if between:
            chosen |= maximum_independent_set_chordal(sub.induced_subgraph(between))
    rounds += 2 * k + 1  # all V_{u,v} regions are solved in parallel

    # Fringes beyond the extreme members (steps 5-6).  The greedy starts
    # at the order's first vertex, so the left fringe is empty; it is
    # still computed for robustness against other selection rules.
    vl, vr = i1[0], i1[-1]
    left = {
        w for w in order[: position[vl]] if not sub.has_edge(w, vl) and w != vl
    }
    right = {
        w for w in order[position[vr] + 1:] if not sub.has_edge(w, vr) and w != vr
    }
    for fringe in (left, right):
        if fringe:
            chosen |= maximum_independent_set_chordal(sub.induced_subgraph(fringe))
    rounds += 2 * k + 1
    return chosen, rounds
