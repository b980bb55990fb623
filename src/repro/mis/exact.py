"""Exact maximum independent sets on chordal graphs (Gavril's algorithm).

A simplicial vertex always belongs to some maximum independent set, so
repeatedly taking one and deleting its closed neighborhood is exact on
chordal graphs; processing a perfect elimination ordering left to right
realizes exactly that in O(n + m).  This serves three roles:

* the *baseline* the experiments compare the distributed algorithms to,
* the exact subroutine of Algorithms 5 and 6 (components of bounded
  diameter / independence number are solved exactly by one coordinator),
* the alpha(G) oracle used in the analysis helpers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import perfect_elimination_ordering

__all__ = [
    "maximum_independent_set_chordal",
    "independence_number_chordal",
    "greedy_simplicial_mis",
]


def maximum_independent_set_chordal(graph: Graph) -> Set[Vertex]:
    """A maximum independent set of a chordal graph (Gavril, O(n + m)).

    Processes a PEO left to right, taking each vertex whose neighborhood
    is still untouched.  Raises NotChordalError on non-chordal input.
    """
    taken: Set[Vertex] = set()
    blocked: Set[Vertex] = set()
    for v in perfect_elimination_ordering(graph):
        if v in blocked:
            continue
        taken.add(v)
        blocked.add(v)
        blocked |= graph.neighbors_view(v)
    return taken


def independence_number_chordal(graph: Graph) -> int:
    """alpha(G) of a chordal graph."""
    return len(maximum_independent_set_chordal(graph))


def greedy_simplicial_mis(
    graph: Graph,
    priority: Optional[Dict[Vertex, float]] = None,
) -> Set[Vertex]:
    """Maximum independent set by iterated simplicial removal.

    Any simplicial vertex lies in some maximum independent set, so
    repeatedly taking one (and deleting its closed neighborhood) is exact
    regardless of *which* simplicial vertex is taken.  ``priority`` steers
    the choice -- larger first, ties by vertex id -- which is how the
    absorbing construction of Algorithm 6 takes the simplicial vertex
    furthest from the outside clique (see :mod:`repro.mis.absorbing`).

    O(n^2 m)-ish; used only on the small components Algorithm 6 feeds it.
    """
    current = graph.copy()
    taken: Set[Vertex] = set()
    while len(current) > 0:
        simplicial = [
            v for v in current.vertices()
            if current.is_clique(current.neighbors_view(v))
        ]
        if not simplicial:
            raise ValueError("graph is not chordal: no simplicial vertex found")
        if priority is None:
            choice = simplicial[0]
        else:
            choice = max(simplicial, key=lambda v: (priority.get(v, 0.0), _key(v)))
        taken.add(choice)
        current.remove_vertices(current.closed_neighborhood(choice))
    return taken


def _key(v: Hashable):
    # Deterministic tiebreak that works for ints and strings alike.
    return (str(type(v)), str(v))
