"""Distance-k selections ("ruling sets") on linearly ordered structures.

Two tools live here:

:func:`path_spaced_selection`
    A fully local algorithm for *path graphs*: selects vertices pairwise at
    distance >= k with consecutive selected vertices O(k) apart and the
    first/last selected O(k) from the path ends, in O(k log* n) rounds.
    It three-colors the path with Linial reduction, extracts an MIS, and
    then doubles the spacing level by level.  The key trick making each
    level conflict-free: after 3-coloring the *virtual path* of currently
    selected vertices, two same-color members are at least two virtual hops
    apart, hence at path distance >= twice the current spacing -- already
    meeting the next level's target -- so a color-class pass never selects
    two conflicting members simultaneously.

:func:`greedy_distance_k_selection`
    The canonical sequential greedy over an explicit linear order (umbrella
    orders of proper interval graphs, clique paths).  This is the output
    the paper's black-box subroutine MISUnitInterval [31] computes on
    G^{k-1}; re-deriving Schneider-Wattenhofer's growth-bounded-graph MIS
    is out of scope (see DESIGN.md), so callers charge its documented round
    cost O(k log* n) via :func:`charged_rounds_distance_k`.

Both tools are lock-step simulations: round counts here are *charged*
analytically rather than executed on :class:`SyncNetwork`, so they are
unaffected by (and independent of) the network's scheduler choice.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

from ..graphs.adjacency import Graph, Vertex
from .colorreduction import three_color_path

__all__ = [
    "log_star",
    "path_spaced_selection",
    "greedy_distance_k_selection",
    "charged_rounds_distance_k",
]


def log_star(n: float) -> int:
    """Iterated logarithm (base 2); log*(n) = 0 for n <= 1."""
    count = 0
    while n > 1:
        n = math.log2(n)
        count += 1
    return count


def path_spaced_selection(ids: Sequence[int], k: int) -> Tuple[List[int], int]:
    """Distance->=k selection on a path graph; returns (selected ids, rounds).

    ``ids`` lists the path's vertices end to end (path distance between
    positions i and j is |i - j|).  Guarantees, for k >= 1:

    * selected vertices pairwise at path distance >= k,
    * consecutive selected vertices at distance <= 4k,
    * first (last) selected vertex within 4k of the path's start (end),
    * at least one vertex selected on a nonempty path.

    Round count: one Linial 3-coloring of the full path, then one
    3-coloring plus three sweep passes per doubling level, each charged at
    the current virtual-hop cost.
    """
    n = len(ids)
    if k < 1:
        raise ValueError("spacing k must be >= 1")
    if n == 0:
        return [], 0
    positions = {v: i for i, v in enumerate(ids)}

    colors, rounds = three_color_path(ids)
    # Base level: ordinary MIS of the path from the 3-coloring (3 passes of
    # one round each).  Same-color vertices are non-adjacent, so passes are
    # conflict-free; gaps between consecutive members end up in [2, 4].
    selected = _class_greedy(ids, positions, list(ids), colors, target=2)
    rounds += 3
    spacing = 2

    while spacing < k:
        target = min(2 * spacing, k)
        # 3-color the virtual path of selected members.  A virtual hop
        # spans <= 2*spacing + base-gap path distance; messages between
        # virtual neighbors cost that many real rounds.
        hop = 2 * target
        vcolors, vrounds = three_color_path(selected)
        rounds += vrounds * hop
        selected = _class_greedy(ids, positions, selected, vcolors, target)
        rounds += 3 * hop
        spacing = target
    return selected, rounds


def _class_greedy(
    ids: Sequence[int],
    positions: Dict[int, int],
    members: List[int],
    colors: Dict[int, int],
    target: int,
) -> List[int]:
    """Three conflict-free color-class passes at the given spacing target."""
    chosen: List[int] = []
    chosen_pos: List[int] = []
    for cls in (1, 2, 3):
        for v in members:
            if colors[v] != cls:
                continue
            p = positions[v]
            if all(abs(p - q) >= target for q in chosen_pos):
                chosen.append(v)
                chosen_pos.append(p)
    chosen.sort(key=lambda v: positions[v])
    return chosen


def greedy_distance_k_selection(
    graph: Graph, order: Sequence[Vertex], k: int
) -> List[Vertex]:
    """Left-to-right greedy maximal distance-k independent set.

    Scans ``order`` (an umbrella order / clique-path order) and takes every
    vertex at graph distance >= k from all previously taken.  The result is
    a maximal distance-k independent set of the induced graph on ``order``
    whenever ``order`` covers a whole component.

    ``blocked`` is the union of the radius-(k-1) balls of the vertices
    taken so far, so a vertex is taken iff it lies outside it: one BFS per
    taken vertex, none for the others.
    """
    if k < 1:
        raise ValueError("spacing k must be >= 1")
    chosen: List[Vertex] = []
    blocked: Set[Vertex] = set()
    for v in order:
        if v not in blocked:
            chosen.append(v)
            blocked.update(graph.bfs_distances(v, cutoff=k - 1))
    return chosen


def charged_rounds_distance_k(n: int, k: int) -> int:
    """Round cost charged for one distance-k MIS black-box invocation.

    The paper simulates MISUnitInterval [31] on the k-th power of a unit
    interval graph in O(k log* n) rounds; the constant below mirrors the
    explicit path implementation (:func:`path_spaced_selection`): one
    3-coloring plus three sweeps per doubling level.
    """
    if n <= 1:
        return 0
    levels = max(1, math.ceil(math.log2(max(2, k))))
    per_level = log_star(n) + 3
    return max(1, k) * per_level + levels
