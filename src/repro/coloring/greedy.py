"""Greedy colorings: optimal for chordal graphs, boundary-aware on paths.

Two greedy colorings are used throughout:

* :func:`peo_greedy_coloring` -- the classic sequential baseline: coloring
  a chordal graph along the reverse of a perfect elimination ordering uses
  exactly omega(G) = chi(G) colors (chordal graphs are perfect).

* :func:`preference_greedy` -- the left-endpoint greedy on a clique path
  decomposition, extended with the two features the distributed pipeline
  needs: already-fixed vertices (a precolored boundary clique), and a
  *preference order* on colors.  Each vertex's colored-before neighbors
  sit with it in its leftmost bag, so at most max_bag - 1 colors are
  forbidden and the vertex always receives one of the first max_bag
  colors of the preference list.  Consequently the whole coloring (apart
  from the untouchable fixed vertices) uses only the first
  chi = max_bag_size colors of the preference list -- the fact that
  guarantees the boundary morph its spare relay colors.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import perfect_elimination_ordering
from .decomposition import PathBags

Color = int

__all__ = ["PaletteExhaustedError", "peo_greedy_coloring", "preference_greedy"]


class PaletteExhaustedError(RuntimeError):
    """A greedy step found no available color -- the palette was too small."""


def peo_greedy_coloring(graph: Graph) -> Dict[Vertex, Color]:
    """An optimal (chi(G)-color) coloring of a chordal graph.

    Processes vertices in reverse perfect elimination order; every vertex's
    earlier-colored neighbors form a clique with it, so the smallest free
    color never exceeds omega(G).  Colors are 1-based.
    """
    coloring: Dict[Vertex, Color] = {}
    for v in reversed(perfect_elimination_ordering(graph)):
        used = {coloring[u] for u in graph.neighbors_view(v) if u in coloring}
        color = 1
        while color in used:
            color += 1
        coloring[v] = color
    return coloring


def preference_greedy(
    graph: Graph,
    bags: PathBags,
    palette: Sequence[Color],
    fixed: Optional[Mapping[Vertex, Color]] = None,
    preferred: Sequence[Color] = (),
) -> Dict[Vertex, Color]:
    """Left-endpoint greedy over a clique path decomposition.

    ``fixed`` vertices keep their colors and constrain their neighbors;
    the remaining vertices are processed by (first bag, last bag, id) and
    receive the first available color in the order: ``preferred`` first
    (deduplicated, in the given order), then the rest of ``palette`` in
    ascending order.

    Raises :class:`PaletteExhaustedError` if some vertex finds every
    palette color forbidden, which cannot happen when
    len(palette) >= max_bag_size and the fixed vertices all lie in bags
    together with their fixed-colored neighbors.
    """
    fixed = dict(fixed or {})
    order: List[Color] = []
    seen: Set[Color] = set()
    for c in list(preferred) + sorted(palette):
        if c not in seen:
            seen.add(c)
            order.append(c)
    palette_set = set(palette)
    for v, c in fixed.items():
        if c not in palette_set:
            raise ValueError(f"fixed color {c!r} of {v!r} is outside the palette")

    coloring: Dict[Vertex, Color] = dict(fixed)
    for v in bags.vertex_order():
        if v in coloring:
            continue
        forbidden = {coloring[u] for u in graph.neighbors_view(v) if u in coloring}
        for c in order:
            if c not in forbidden:
                coloring[v] = c
                break
        else:
            raise PaletteExhaustedError(
                f"no color available for {v!r}: palette {len(order)}, "
                f"forbidden {len(forbidden)}"
            )
    return coloring
