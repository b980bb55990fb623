"""Local views of the clique forest (Section 3, Figures 3-4).

A network node v that knows its distance-d neighborhood can reconstruct the
part of the *global* clique forest around itself:

1. For every u in Gamma^{d-1}[v], node v knows all of Gamma[u], so it can
   compute phi(u) -- the maximal cliques of G containing u -- locally (a
   maximal clique containing u lies inside Gamma[u]).
2. By Lemma 2, the unique maximum weight spanning forest of W_G[phi(u)]
   equals the subtree T(u) of the global clique forest, because phi(u)
   induces a tree in T and the order ``<`` is defined by globally
   consistent data (clique members and intersection sizes).
3. The union of these subtrees over u in Gamma^{d-1}[v] is a coherent
   fragment T' of T.

:class:`LocalView` packages the fragment together with what the node can
*certify* about it: a clique C's degree in T is fully visible only when all
of C lies within Gamma^{d-1}[v] (every T-edge at C is witnessed by a shared
node, which then computes it in step 2).

Step 2's pair (phi(u), T(u)) depends only on G[Gamma[u]], so every ball
holding u in its interior rebuilds the same pair.  A :data:`SubtreeTable`
lets the views of one graph share it: the first view whose interior holds
u fills the entry, and every later view reads it.  A view fills all of
its missing entries from one clique pass (see :func:`_add_subtrees`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import NotChordalError, maximal_cliques
from .forest import CliqueForest
from .spanning import maximum_weight_spanning_forest
from .wcig import Clique, sigma, wcig_edges_among

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..localmodel.gather import KnownBall

__all__ = [
    "LocalView",
    "SubtreeTable",
    "compute_local_view",
    "local_view_from_ball",
]


#: T(u) as a view merges it: phi(u) and its forest edges, each edge a
#: (lower-sigma, higher-sigma) clique pair
Subtree = Tuple[List[Clique], List[Tuple[Clique, Clique]]]

#: interior vertex u -> its :data:`Subtree`.  Valid only for balls of one
#: graph: an entry is G[Gamma[u]]'s, and another graph over the same
#: labels may have a different Gamma[u].
SubtreeTable = Dict[Vertex, Subtree]


def _add_subtrees(
    ball: Graph, order: Sequence[Vertex], subtrees: SubtreeTable
) -> None:
    """Give every vertex of ``order`` that ``subtrees`` lacks its entry.

    The missing vertices are interior, so each one's Gamma[u] lies in the
    ball, and one ``maximal_cliques`` pass on G[S], S the union of those
    closed neighbourhoods, serves them all.  A clique of G holding u lies
    in Gamma[u], inside S, so the maximal cliques of G[S] holding u are
    exactly phi(u); the pass sorts by (size, members), as a call on
    G[Gamma[u]] alone would.  T(u) is the ``<``-maximum spanning forest
    of W_G[phi(u)].
    """
    missing = [u for u in order if u not in subtrees]
    if not missing:
        return
    near = set(missing)
    near.update(*map(ball.neighbors_view, missing))
    phi: Dict[Vertex, List[Clique]] = {u: [] for u in missing}
    sub = ball if len(near) == len(ball) else ball.induced_subgraph(near)
    for clique in maximal_cliques(sub):
        for u in clique:
            found = phi.get(u)
            if found is not None:
                found.append(clique)
    for u in missing:
        phi_u = phi[u]
        chosen = maximum_weight_spanning_forest(
            sorted(phi_u, key=sigma), wcig_edges_among(phi_u)
        )
        subtrees[u] = phi_u, [
            (c1, c2) if sigma(c1) <= sigma(c2) else (c2, c1) for c1, c2 in chosen
        ]


@dataclass
class LocalView:
    """What node ``center`` sees of the global clique forest.

    ``forest`` is the reconstructed fragment T'.  ``confirmed`` holds the
    cliques whose T-degree is fully visible in the fragment; the degree of
    an unconfirmed clique in ``forest`` is only a lower bound on its true
    degree.  ``interior`` holds the nodes u whose complete subtree T(u) is
    part of the fragment (those in Gamma^{d-1}[center]).
    """

    center: Vertex
    radius: int
    forest: CliqueForest
    confirmed: Set[Clique]
    interior: Set[Vertex]

    def degree_is_exact(self, clique: Clique) -> bool:
        return frozenset(clique) in self.confirmed


def compute_local_view(
    graph: Graph,
    center: Vertex,
    radius: int,
    subtrees: Optional[SubtreeTable] = None,
) -> LocalView:
    """Simulate node ``center`` building its local view from Gamma^radius.

    ``graph`` plays the role of the current graph (G, or G[U_i] during
    peeling); the function only ever inspects the induced ball, mirroring
    what the LOCAL model makes available after ``radius`` rounds.
    ``subtrees`` is a :data:`SubtreeTable` shared by views of ``graph``;
    ``None`` gives the call a fresh one.  Raises
    :class:`~repro.graphs.chordal.NotChordalError` naming ``center`` when
    the ball has no clique forest, and ``TypeError`` when ``radius`` is
    not an int.
    """
    if isinstance(radius, bool) or not isinstance(radius, int):
        raise TypeError(f"radius must be an int, got {type(radius).__name__}")
    if radius < 1:
        raise ValueError("a local view needs radius >= 1")
    dist = graph.bfs_distances(center, cutoff=radius)
    ball = graph.induced_subgraph(set(dist))
    interior = {u for u, d in dist.items() if d <= radius - 1}
    return _view_from_ball_graph(center, radius, ball, interior, subtrees)


def local_view_from_ball(
    ball: "KnownBall", subtrees: Optional[SubtreeTable] = None
) -> LocalView:
    """Build the local view from a gathered :class:`KnownBall`.

    ``ball.as_graph()`` is exactly ``G[Gamma^radius[center]]`` (the
    gather contract), and a shortest path of length ``<= radius`` from
    the center stays inside that ball, so BFS distances computed inside
    the ball agree with distances in G up to the radius.  The result is
    therefore identical to ``compute_local_view(G, center, radius)`` --
    this is the message-level entry point used after a real
    :func:`~repro.localmodel.gather.gather_balls` run, where the global
    graph is no longer available.  ``subtrees`` may be shared by the
    balls of one gather; ``None`` gives the call a fresh table.
    """
    if ball.radius < 1:
        raise ValueError("a local view needs radius >= 1")
    ball_graph = ball.as_graph()
    dist = ball_graph.bfs_distances(ball.center, cutoff=ball.radius)
    interior = {u for u, d in dist.items() if d <= ball.radius - 1}
    return _view_from_ball_graph(
        ball.center, ball.radius, ball_graph, interior, subtrees
    )


def _view_from_ball_graph(
    center: Vertex,
    radius: int,
    ball: Graph,
    interior: Set[Vertex],
    subtrees: Optional[SubtreeTable],
) -> LocalView:
    """Shared reconstruction: phi(u) subtrees over the interior, merged.

    Gamma[u] lies inside the ball for every interior u, so the subtree
    built here is G[Gamma[u]]'s and any later ball of the same graph may
    reuse it from ``subtrees``.
    """
    if subtrees is None:
        subtrees = {}
    cliques: Set[Clique] = set()
    edges: Set[Tuple[Clique, Clique]] = set()
    order = sorted(interior)
    try:
        _add_subtrees(ball, order, subtrees)
        for u in order:
            phi_u, tree_u = subtrees[u]
            cliques.update(phi_u)
            edges.update(tree_u)
        # On a chordal ball the subtrees merge into a fragment of the
        # global forest (Lemma 2), so a cycle here also means not chordal.
        forest = CliqueForest(cliques, edges)
    except ValueError as exc:
        raise NotChordalError(
            f"the radius-{radius} ball of {center!r} is not chordal"
        ) from exc
    confirmed = {c for c in cliques if c <= interior}
    return LocalView(
        center=center,
        radius=radius,
        forest=forest,
        confirmed=confirmed,
        interior=interior,
    )
