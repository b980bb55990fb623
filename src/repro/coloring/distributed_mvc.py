"""Algorithms 2-4: the distributed implementation of the coloring pipeline.

The global behavior of the distributed algorithm is *identical* to
Algorithm 1 (Lemma 12) -- same layers, same colorings, same corrections --
so this driver reuses the centralized phases and adds the two things that
are genuinely distributed:

* **Round accounting** under the ball equivalence: each peeling iteration
  costs one collection of the radius-``collect_radius`` neighborhood; layer
  i therefore leaves PruneTree at round i * collect_radius.  All nodes of a
  layer then run ColIntGraph together (its rounds come from
  :mod:`repro.coloring.interval_coloring`), and the color correction phase
  follows the wait-for-parent recurrence of Lemma 12's induction: a path's
  correction starts when its own layer coloring is done and every
  higher-layer neighbor carries its final color, and takes O(k) rounds.
  The number of rounds of the whole algorithm is the largest node finish
  time, which Theorem 4 bounds by O(k log n).

* **Local decisions** (Algorithm 3): a node can decide its own layer
  membership purely from its collected ball, by reconstructing the local
  view of the clique forest (Section 3) and inspecting the maximal binary
  path around its subtree.  :func:`local_layer_decision` implements the
  per-node rule; tests verify it agrees with the centralized peeling,
  which is exactly the coherence claim of Section 3.

* **Parents and children** (Definition 1): each peeled node's parent is
  the maximum-ID node of the nearest attachment clique, provided it is
  within the recoloring distance; Corollary 2 (parents live in higher
  layers) is verified in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cliquetree.forest import CliqueForest
from ..cliquetree.local_view import (
    LocalView,
    SubtreeTable,
    compute_local_view,
    local_view_from_ball,
)
from ..cliquetree.paths import orient_binary_path, path_diameter_at_least
from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import is_chordal, not_chordal_error
from ..localmodel.gather import KnownBall, gather_balls
from ..localmodel.rounds import NodeClocks
from .chordal_mvc import ChordalColoringResult, color_chordal_graph, conflict_boundary
from .parameters import ColoringParameters
from .prune import PeeledPath

__all__ = [
    "DistributedColoringReport",
    "distributed_color_chordal",
    "local_layer_decision",
    "local_layer_decision_from_ball",
    "message_level_layer_decisions",
    "compute_parent",
]


@dataclass
class DistributedColoringReport:
    """Coloring plus the LOCAL-model cost profile of Algorithm 2."""

    result: ChordalColoringResult
    total_rounds: int
    pruning_rounds: int
    coloring_finish: List[int]  # per layer, absolute round of completion
    finish_time: Dict[Vertex, int]
    parents: Dict[Vertex, Optional[Vertex]]

    @property
    def coloring(self) -> Dict[Vertex, int]:
        return self.result.coloring

    def num_colors(self) -> int:
        return self.result.num_colors()


def distributed_color_chordal(
    graph: Graph,
    epsilon: Optional[float] = None,
    k: Optional[int] = None,
) -> DistributedColoringReport:
    """Run Algorithm 2 and account its rounds (Theorem 4)."""
    result = color_chordal_graph(graph, epsilon=epsilon, k=k)
    params = result.parameters
    peeling = result.peeling
    num_layers = peeling.num_layers()

    # Pruning: layer i exits PruneTree after i ball collections.
    iteration_cost = params.collect_radius
    prune_exit = {i: i * iteration_cost for i in range(1, num_layers + 1)}
    pruning_rounds = num_layers * iteration_cost

    # Coloring: each layer starts as soon as it leaves PruneTree.
    coloring_finish = [
        prune_exit[i] + result.layer_color_rounds[i - 1]
        for i in range(1, num_layers + 1)
    ]

    # Correction: Lemma 12's induction, evaluated exactly on the real
    # dependency structure.
    correction_cost = 2 * params.recolor_distance + 4
    clocks = NodeClocks()
    parents: Dict[Vertex, Optional[Vertex]] = {}
    for i in range(num_layers, 0, -1):
        for peeled in peeling.layers[i - 1]:
            w_prime = conflict_boundary(graph, peeling, peeled)
            for v in peeled.nodes:
                parents[v] = compute_parent(graph, peeled, v, params)
            if not w_prime or i == num_layers:
                finish = coloring_finish[i - 1]
            else:
                ready = max(
                    coloring_finish[i - 1],
                    max(clocks.at(u) for u in w_prime),
                )
                finish = ready + correction_cost
            for v in peeled.nodes:
                clocks.set_at(v, finish)

    return DistributedColoringReport(
        result=result,
        total_rounds=clocks.makespan(),
        pruning_rounds=pruning_rounds,
        coloring_finish=coloring_finish,
        finish_time=clocks.as_dict(),
        parents=parents,
    )


def compute_parent(
    graph: Graph,
    peeled: PeeledPath,
    v: Vertex,
    params: ColoringParameters,
) -> Optional[Vertex]:
    """Definition 1: v's parent, or None.

    The parent is the maximum-ID node of the attachment clique C nearest
    to v (ties toward the left attachment), provided dist_G(v, C) is at
    most the recoloring distance.

    dist_G(v, C) is the first BFS level from v that meets C, so the search
    goes level by level and stops at the first level meeting either
    attachment (checked left first), or after the recoloring distance.
    """
    attachments = [
        att
        for att in (peeled.path.left_attachment, peeled.path.right_attachment)
        if att is not None
    ]
    if not attachments:
        return None
    seen = {v}
    frontier = [v]
    level = 0
    while frontier:
        for att in attachments:
            if not att.isdisjoint(frontier):
                return max(att)
        if level == params.recolor_distance:
            break
        level += 1
        nxt = []
        for u in frontier:
            for w in graph.neighbors_view(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def _check_params(params: ColoringParameters) -> None:
    """Fail at the boundary when ``params`` is not a :class:`ColoringParameters`."""
    if not isinstance(params, ColoringParameters):
        raise TypeError(
            f"params must be ColoringParameters, got {type(params).__name__}"
        )


def local_layer_decision(
    current_graph: Graph,
    v: Vertex,
    params: ColoringParameters,
    subtrees: Optional[SubtreeTable] = None,
) -> bool:
    """Algorithm 3, step 3: should v join the current layer?

    Decides purely from v's radius-``collect_radius`` ball of the current
    (not yet peeled) graph: reconstruct the local view of the clique
    forest, walk the maximal binary path around T(v), and join if the path
    is pendant, long enough, or provably extends beyond the horizon.
    ``subtrees`` may be shared by decisions on the same ``current_graph``
    (see :func:`~repro.cliquetree.local_view.compute_local_view`).
    Raises :class:`~repro.graphs.chordal.NotChordalError` naming ``v``
    when its ball is not chordal, and ``TypeError`` when ``params`` is
    not a :class:`ColoringParameters`.
    """
    _check_params(params)
    view = compute_local_view(current_graph, v, params.collect_radius, subtrees)
    return _decide_from_view(view, params)


def local_layer_decision_from_ball(
    ball: KnownBall,
    params: ColoringParameters,
    subtrees: Optional[SubtreeTable] = None,
) -> bool:
    """Algorithm 3's layer decision, consuming only a gathered ball.

    Message-level twin of :func:`local_layer_decision`: the node's
    knowledge is a :class:`~repro.localmodel.gather.KnownBall` obtained
    by actually running the gather program, not a slice of the global
    graph.  Identical decisions by the gather contract
    (``ball.as_graph()`` equals the induced radius ball).  ``subtrees``
    may be shared by the balls of one gather; raises
    :class:`~repro.graphs.chordal.NotChordalError` naming the ball's
    center when the ball is not chordal, and ``TypeError`` when
    ``params`` is not a :class:`ColoringParameters`.
    """
    _check_params(params)
    if ball.radius != params.collect_radius:
        raise ValueError(
            f"ball radius {ball.radius} != collect_radius "
            f"{params.collect_radius}"
        )
    return _decide_from_view(local_view_from_ball(ball, subtrees), params)


def message_level_layer_decisions(
    current_graph: Graph, params: ColoringParameters
) -> Tuple[Dict[Vertex, bool], int]:
    """Per-node layer decisions via real message-passing ball gathering.

    Floods for ``params.collect_radius`` rounds on the synchronous
    simulator (delta gathering), then each node decides from
    its own ball alone.  Returns ``(decisions, rounds)`` where
    ``rounds`` is the simulator's round count
    (``collect_radius + 1``, one final round to detect quiescence).
    The gather runs as its whole-round kernel.  Raises
    :class:`~repro.graphs.chordal.NotChordalError`, naming the vertex
    :func:`~repro.graphs.chordal.perfect_elimination_ordering` names, on
    non-chordal input before any round runs, and ``TypeError`` when
    ``params`` is not a :class:`ColoringParameters`.

    The balls share one :data:`~repro.cliquetree.local_view.SubtreeTable`,
    so each interior vertex's subtree T(u) is built once per call rather
    than once per ball holding it.  The table lives only for this call:
    its entries are ``current_graph``'s.
    """
    _check_params(params)
    if not is_chordal(current_graph):
        raise not_chordal_error(current_graph)
    balls, rounds = gather_balls(current_graph, params.collect_radius)
    subtrees: SubtreeTable = {}
    decisions = {
        v: local_layer_decision_from_ball(ball, params, subtrees)
        for v, ball in balls.items()
    }
    return decisions, rounds


def _decide_from_view(view: LocalView, params: ColoringParameters) -> bool:
    """The decision rule, given the reconstructed view."""
    frag = view.forest
    phi_v = frag.phi(view.center)

    # T(v) must lie on a binary path: every clique containing v needs
    # (certified) degree <= 2.  Cliques containing v sit inside Gamma[v],
    # deep within the view, so their degrees are always certified.
    for c in phi_v:
        if frag.degree(c) > 2 or not view.degree_is_exact(c):
            return False

    # Walk outwards from T(v)'s subpath in both directions.
    sub = orient_binary_path(frag.neighbors, phi_v)
    path = list(sub.cliques)
    left, left_status = _walk_binary(frag, view, path[0], sub.left_attachment)
    right, right_status = _walk_binary(frag, view, path[-1], sub.right_attachment)
    if "pendant" in (left_status, right_status):
        # The true maximal binary path around T(v) has a free end, so it
        # is pendant and always peeled.
        return True
    # Internal (or horizon-truncated, in which case the true path is at
    # least as long as what we see): join iff the visible diameter clears
    # the threshold.  Every clique on the walked path is confirmed, so the
    # walk is a subpath of the true forest, and G[V_P] is isometric in the
    # graph: the diameter is decided from the path's own cliques.
    full_path = list(reversed(left)) + path + right
    return path_diameter_at_least(full_path, params.internal_threshold)


def _walk_binary(
    frag: CliqueForest, view: LocalView, boundary, first_next
) -> Tuple[List, str]:
    """Follow a binary path from ``boundary`` through ``first_next``.

    Returns the cliques appended (nearest first) and the end status:
    'pendant' (free end certified), 'attached' (a degree->=3 clique
    blocks), or 'truncated' (the view's horizon cut the walk short).
    """
    if first_next is None:
        return [], "pendant"
    ext: List = []
    before, cur = boundary, first_next
    while True:
        if frag.degree(cur) > 2:
            # fragment degree lower-bounds the true degree
            return ext, "attached"
        if not view.degree_is_exact(cur):
            return ext, "truncated"
        ext.append(cur)
        nbrs = frag.neighbors(cur) - {before}
        if not nbrs:
            return ext, "pendant"
        before, cur = cur, next(iter(nbrs))
