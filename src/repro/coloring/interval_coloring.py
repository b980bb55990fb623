"""ColIntGraph: distributed (1 + 1/k)-approximate interval coloring [21].

Halldorsson & Konrad's algorithm colors an interval graph with at most
floor((1 + 1/k) chi) + 1 colors in O(k log* n) rounds.  The re-derivation
here (see DESIGN.md):

1. **Separators.**  Along each component's clique path, walk the maximal
   chain of consecutive pairwise-disjoint bags (two chain bags t apart are
   at graph distance >= (t - 1)/2, so chain steps lower-bound distance) and
   pick every B-th chain bag as a *separator*, B sized so consecutive
   separators exceed the morph distance.  Distributively this is the
   distance-Theta(k) ruling set of [21]; rounds are charged per the cost
   model of :func:`repro.localmodel.rulingset.charged_rounds_distance_k`.

2. **Separator coloring.**  Every separator bag is a clique; its vertices
   take colors 1..|bag|.  Separator bags are pairwise non-adjacent, so this
   is proper, and it takes one round.

3. **Segment gluing.**  Vertices not in any separator bag live strictly
   inside one segment (a vertex alive at a separator position belongs to
   that bag).  Each segment, together with its one or two boundary
   separator bags, is an interval graph on a sub-decomposition whose
   boundary cliques are exactly the fixed ends the extension morph
   (:mod:`repro.coloring.extension`) consumes.  All segments run in
   parallel in O(k) rounds.

Components whose clique path is shorter than two separator blocks are
colored greedily by a single coordinator in O(diameter) = O(k) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..localmodel.rulingset import charged_rounds_distance_k
from .decomposition import PathBags
from .extension import extend_path_coloring
from .greedy import preference_greedy
from .parameters import required_morph_distance

Color = int

__all__ = ["IntervalColoringResult", "color_interval_component", "col_int_graph"]


@dataclass
class IntervalColoringResult:
    """Coloring plus LOCAL-model round accounting."""

    coloring: Dict[Vertex, Color]
    rounds: int

    def num_colors(self) -> int:
        return len(set(self.coloring.values()))


def _segment_block(chi: int, spares: int) -> int:
    """Chain-bag spacing between separators.

    required_morph_distance is a graph distance; chain steps advance
    distance at rate >= 1/2, and we add slack so the cut region between a
    separator and the next segment's reach always holds enough cuts.
    """
    return 2 * required_morph_distance(chi, spares) + 8


def color_interval_component(
    graph: Graph,
    bags: PathBags,
    k: int,
    palette: Optional[Sequence[Color]] = None,
) -> IntervalColoringResult:
    """Color one connected interval piece given its path decomposition.

    ``graph`` must be the induced graph on the decomposition's vertices.
    The default palette is [1 .. chi + floor(chi/k) + 1] for the piece's
    own chi; the peeling layers pass the global palette instead.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(bags) == 0:
        return IntervalColoringResult({}, 0)
    chi = bags.max_bag_size()
    if palette is None:
        palette = list(range(1, chi + chi // k + 2))
    spares = max(1, len(palette) - chi)

    chain = bags.disjoint_cut_positions(0, len(bags) - 1)
    block = _segment_block(chi, spares)
    n = len(bags.vertices())

    if len(chain) < 2 * block:
        # Small component: one coordinator sees everything and colors
        # greedily; O(diameter) rounds, and the chain length bounds the
        # diameter from above (consecutive chain bags are <= 3 apart).
        coloring = preference_greedy(graph, bags, palette)
        return IntervalColoringResult(coloring, rounds=3 * len(chain) + 2)

    separators = chain[block::block]
    # Leave a full block after the last separator too.
    while separators and len(chain) - chain.index(separators[-1]) < 1:
        separators.pop()

    # Phase A: color separator bags.
    coloring: Dict[Vertex, Color] = {}
    sorted_palette = sorted(palette)
    for pos in separators:
        for i, v in enumerate(sorted(bags.bags[pos])):
            coloring[v] = sorted_palette[i]

    # Phase B: glue the segments.
    boundaries = [None] + list(separators) + [None]
    for left, right in zip(boundaries, boundaries[1:]):
        lo = 0 if left is None else left
        hi = len(bags) - 1 if right is None else right
        left_bag = set() if left is None else set(bags.bags[left])
        right_bag = set() if right is None else set(bags.bags[right])
        interior = {
            v
            for v in bags.vertices()
            if bags.first(v) > (lo if left is not None else -1)
            and bags.last(v) < (hi if right is not None else len(bags))
            and v not in left_bag
            and v not in right_bag
        }
        members = interior | left_bag | right_bag
        if not interior:
            continue
        sub = bags.subrange(lo, hi).restricted_to(members)
        sub_graph = graph.induced_subgraph(members)
        fixed_left = {v: coloring[v] for v in left_bag}
        fixed_right = {v: coloring[v] for v in right_bag}
        segment_coloring = extend_path_coloring(
            sub_graph,
            sub,
            palette,
            fixed_left=fixed_left,
            fixed_right=fixed_right,
        )
        for v in interior:
            coloring[v] = segment_coloring[v]

    rounds = (
        charged_rounds_distance_k(n, required_morph_distance(chi, spares))
        + 1  # separator bags announce their colors
        + 4 * block  # all segments glue in parallel, O(block) locality
    )
    return IntervalColoringResult(coloring, rounds=rounds)


def col_int_graph(
    graph: Graph,
    k: int,
    components: Optional[List[Tuple[Graph, PathBags]]] = None,
    palette: Optional[Sequence[Color]] = None,
) -> IntervalColoringResult:
    """ColIntGraph(1/k) on a (possibly disconnected) interval graph.

    When ``components`` is not supplied, clique paths are derived with the
    arrangement search of :mod:`repro.cliquetree.cliquepath`.  All
    components run in parallel, so the round count is their maximum.
    Guarantee: at most floor((1 + 1/k) chi(G)) + 1 colors.
    """
    if components is None:
        from ..cliquetree.cliquepath import clique_paths_of_interval_graph

        components = []
        for path in clique_paths_of_interval_graph(graph):
            bag_obj = PathBags(path)
            components.append(
                (graph.induced_subgraph(bag_obj.vertices()), bag_obj)
            )
    coloring: Dict[Vertex, Color] = {}
    rounds = 0
    for sub_graph, bag_obj in components:
        result = color_interval_component(sub_graph, bag_obj, k, palette=palette)
        coloring.update(result.coloring)
        rounds = max(rounds, result.rounds)
    return IntervalColoringResult(coloring, rounds)
