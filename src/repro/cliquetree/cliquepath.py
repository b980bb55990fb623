"""Clique paths of interval graphs (consecutive clique arrangements).

By the Gilmore--Hoffman characterization, a graph is interval iff its
maximal cliques admit a *consecutive arrangement*: a linear order in which
the cliques containing any fixed vertex are consecutive.  Theorem 1 of the
paper is the clique-forest view of the same fact.

Note that the *canonical* clique forest of Section 3 need not be linear for
an interval graph (the order ``<`` may prefer a star, e.g. on K_{1,m}), so
interval recognition cannot simply check linearity of the canonical forest.
This module finds a consecutive arrangement directly:

* cliques are placed left to right; at every step the *open* vertices
  (vertices shared between placed and unplaced cliques) must all be in the
  next clique, which prunes the search hard;
* candidate cliques with identical non-private content are interchangeable
  and only one is tried (this collapses the factorial symmetry of graphs
  like K_{1,m});
* failed suffix states are memoized -- the set of open vertices is a
  function of the remaining clique set, so the remaining set alone is a
  sound memo key.

On interval graphs the search runs in near-linear practice time; on
adversarial non-interval chordal inputs it terminates (memoization bounds
states by distinct remaining-sets encountered) and reports failure.

The peeling layers of Algorithms 1 and 6 never need this module: their
clique paths come directly from the clique forest (Lemma 7).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import is_chordal, maximal_cliques
from .wcig import Clique

__all__ = [
    "NotIntervalError",
    "consecutive_clique_arrangement",
    "clique_paths_of_interval_graph",
    "is_interval_graph",
]


class NotIntervalError(ValueError):
    """Raised when an interval-graph-only routine receives a non-interval graph."""


def consecutive_clique_arrangement(
    cliques: Sequence[Clique],
) -> Optional[List[Clique]]:
    """A consecutive arrangement of one component's maximal cliques.

    Returns the ordered clique path, or ``None`` when no arrangement exists
    (the cliques do not come from an interval graph).  The cliques must
    belong to a single connected graph component; otherwise interleavings
    of the components would also have to be explored.
    """
    cliques = sorted({frozenset(c) for c in cliques}, key=lambda c: tuple(sorted(c)))
    if len(cliques) <= 1:
        return list(cliques)

    where: Dict[Vertex, Set[Clique]] = {}
    for c in cliques:
        for v in c:
            where.setdefault(v, set()).add(c)

    failed: Set[FrozenSet[Clique]] = set()

    def open_vertices(remaining: FrozenSet[Clique]) -> Set[Vertex]:
        """Vertices of remaining cliques that also appear in placed ones."""
        out = set()
        for c in remaining:
            for v in c:
                if not where[v] <= remaining:
                    out.add(v)
        return out

    def candidates(remaining: FrozenSet[Clique]) -> List[Clique]:
        need = open_vertices(remaining)
        cands = [c for c in remaining if need <= c]
        # Interchangeability pruning: candidates with the same non-private
        # content intersect every other clique identically, so trying one
        # of each signature class suffices.
        seen_sigs: Set[FrozenSet[Vertex]] = set()
        pruned: List[Clique] = []
        for c in sorted(cands, key=lambda c: tuple(sorted(c))):
            others: Set[Vertex] = set(need)
            for d in remaining:
                if d != c:
                    others |= d
            sig = frozenset(c & others)
            if sig not in seen_sigs:
                seen_sigs.add(sig)
                pruned.append(c)
        return pruned

    # Depth-first search with an explicit stack (a path of n vertices has
    # n - 1 cliques, far beyond the interpreter's recursion limit).  One
    # frame per search depth: the cliques still to place and the
    # candidates not yet tried for the next position; order[i] is the
    # clique tried at depth i, so len(order) == len(stack) - 1.
    order: List[Clique] = []
    start = frozenset(cliques)
    stack: List[Tuple[FrozenSet[Clique], Iterator[Clique]]] = [
        (start, iter(candidates(start)))
    ]
    while stack:
        remaining, untried = stack[-1]
        c = next(untried, None)
        if c is None:
            failed.add(remaining)
            stack.pop()
            if order:
                order.pop()
            continue
        rest = remaining - {c}
        if not rest:
            order.append(c)
            return order
        if rest in failed:
            continue
        order.append(c)
        stack.append((rest, iter(candidates(rest))))
    return None


def clique_paths_of_interval_graph(graph: Graph) -> List[List[Clique]]:
    """One clique path per connected component of an interval graph.

    Raises :class:`NotIntervalError` when the graph is not interval (not
    chordal, or its cliques admit no consecutive arrangement).
    """
    if not is_chordal(graph):
        raise NotIntervalError("graph is not chordal, hence not interval")
    paths: List[List[Clique]] = []
    for comp in graph.connected_components():
        sub = graph.induced_subgraph(comp)
        arrangement = consecutive_clique_arrangement(maximal_cliques(sub))
        if arrangement is None:
            raise NotIntervalError(
                "maximal cliques admit no consecutive arrangement; "
                "graph is chordal but not interval"
            )
        paths.append(arrangement)
    return paths


def is_interval_graph(graph: Graph) -> bool:
    """Whether ``graph`` is an interval graph (Gilmore--Hoffman test)."""
    try:
        clique_paths_of_interval_graph(graph)
        return True
    except NotIntervalError:
        return False
