"""Theorem 8: the distributed implementation of Algorithm 6.

Section 7.3 of the paper: the distributed MIS algorithm mirrors the
distributed coloring pipeline -- nodes obtain local views of the clique
forest and execute the peeling -- but stops after kappa = O(log(1/eps))
iterations, and after each iteration the removed paths compute their
independent sets immediately:

* small components (independence number < d, hence diameter < 2d): a
  coordinator collects the component and solves exactly (absorbing rule),
  O(d) = O(1/eps) rounds;
* large components: Algorithm 5 at eps/8, O((1/eps) log* n) rounds.

Unlike the coloring pipeline there is no correction phase -- independence
is arranged forward by excluding Gamma[I] from later computations -- so
the per-node finish-time recurrence is simply "my layer's collection ends,
then my path's local solve ends".  Total:
O((1/eps) log(1/eps) log* n) rounds.

:func:`distributed_chordal_mis` wraps the centralized run of
:mod:`repro.mis.chordal_mis` with that accounting, per layer, and exposes
the full cost profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..cliquetree.paths import path_independence_number
from ..coloring.distributed_mvc import message_level_layer_decisions
from ..coloring.parameters import ColoringParameters, _check_positive_int
from ..graphs.adjacency import Graph, Vertex
from ..localmodel.rounds import NodeClocks
from ..localmodel.rulingset import charged_rounds_distance_k
from .chordal_mis import ChordalMISResult, chordal_mis, mis_peeling_parameters
from .interval_mis import mis_parameters

__all__ = [
    "DistributedMISReport",
    "distributed_chordal_mis",
    "mis_local_parameters",
    "message_level_mis_decisions",
]


@dataclass
class DistributedMISReport:
    """Independent set plus the LOCAL-model cost profile of Theorem 8."""

    result: ChordalMISResult
    total_rounds: int
    #: absolute round at which each peeling iteration's collection ends
    iteration_finish: List[int]
    #: per-layer local-solve budget (max over that layer's components)
    layer_solve_rounds: List[int]
    finish_time: Dict[Vertex, int]

    @property
    def independent_set(self) -> Set[Vertex]:
        return self.result.independent_set

    def size(self) -> int:
        return self.result.size()


def mis_local_parameters(d: int) -> ColoringParameters:
    """Decision constants for the MIS peeling with path parameter ``d``.

    The MIS peeling (Algorithm 6) peels pendant paths always and internal
    paths of diameter >= 2d + 3 in the non-final iterations -- the same
    rule family as the coloring pipeline's PruneTree, with
    ``internal_threshold = 2d + 3``.  The collection radius mirrors the
    validated geometry of :meth:`ColoringParameters.from_k` (three
    thresholds deep), which is what makes the per-node decision exact;
    ``recolor_distance`` is carried only for completeness (MIS has no
    correction phase).  Pass a scaled-down ``d`` (not ceil(64/eps)) to
    exercise the message-level machinery at tractable radii.
    """
    _check_positive_int("d", d)
    threshold = 2 * d + 3
    return ColoringParameters(
        k=d,
        recolor_distance=d + 3,
        internal_threshold=threshold,
        collect_radius=3 * threshold,
    )


def message_level_mis_decisions(
    current_graph: Graph, d: int
) -> Tuple[Dict[Vertex, bool], int]:
    """Per-node MIS-peeling layer decisions via real ball gathering.

    Message-level witness of the Section 7.3 claim that nodes decide
    their peeling layer from collected balls alone: floods for
    ``mis_local_parameters(d).collect_radius`` rounds (delta gathering),
    then each node decides membership in the current layer from
    its own ball.  Matches the centralized peeling's non-final
    iterations (the final iteration's independence-number rule needs
    kappa-aware coordination and is accounted, not simulated).
    Returns ``(decisions, rounds)``; raises
    :class:`~repro.graphs.chordal.NotChordalError` on non-chordal input.
    """
    return message_level_layer_decisions(current_graph, mis_local_parameters(d))


def distributed_chordal_mis(graph: Graph, epsilon: float) -> DistributedMISReport:
    """Run Algorithm 6 distributively and account its rounds.

    The independent set (and the peeling) are byte-identical to the
    centralized :func:`repro.mis.chordal_mis`; what is added is the
    per-iteration round recurrence of Section 7.3.
    """
    result = chordal_mis(graph, epsilon)
    d, _kappa = mis_peeling_parameters(epsilon)
    n = max(2, len(graph))

    # Per-iteration collection: local views out to the path-diameter
    # threshold 2d + 3 (the analogue of the coloring pipeline's 10k).
    collection = 2 * d + 3

    # Per-layer solve budget: small components cost O(d); large ones run
    # Algorithm 5 at eps/8, costing its charged O(k' log* n).
    k_prime = mis_parameters(epsilon / 8.0)
    large_cost = charged_rounds_distance_k(n, k_prime) + 4 * k_prime + 2
    small_cost = 2 * d + 4

    clocks = NodeClocks()
    iteration_finish: List[int] = []
    layer_solve: List[int] = []
    now = 0
    for i, layer_paths in enumerate(result.peeling.layers, start=1):
        now += collection
        iteration_finish.append(now)
        solve = 0
        for peeled in layer_paths:
            # A path needs the large-component machinery only when its
            # independence number reaches d; its diameter tells which.
            alpha_path = path_independence_number(peeled.cliques)
            solve = max(solve, large_cost if alpha_path >= d else small_cost)
        layer_solve.append(solve)
        finish = now + solve
        for peeled in layer_paths:
            for v in peeled.nodes:
                clocks.set_at(v, finish)
        now = finish

    # Nodes never peeled (the abandoned remainder G_{kappa+1}) terminate
    # with the last iteration, outputting "not in I".
    for v in result.peeling.remaining_nodes():
        clocks.set_at(v, now)

    return DistributedMISReport(
        result=result,
        total_rounds=clocks.makespan(),
        iteration_finish=iteration_finish,
        layer_solve_rounds=layer_solve,
        finish_time=clocks.as_dict(),
    )
