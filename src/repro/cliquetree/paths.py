"""Binary, pendant, and internal paths of a clique forest.

Section 2 of the paper: a path C_1, ..., C_k in T is *binary* if every C_i
has degree at most 2 in T; *pendant* if additionally some end has degree at
most 1 (an isolated clique counts as a pendant path); *internal* if every
C_i has degree exactly 2.  A binary path is *maximal* if no clique outside
it can extend it.  The peeling process of Algorithms 1 and 6 removes, at
each iteration, all maximal pendant paths plus the maximal internal paths
that are "long enough" (diameter at least 3k for coloring; diameter at
least 2d + 3, or independence number at least d, for MIS).

The *diameter* of a path P is measured in G: the largest distance between
nodes lying in its cliques.  It never needs more of G than P itself: two
vertices of V_P are adjacent iff they share a clique of P, and G[V_P] is
isometric in G (see :func:`path_diameter_at_least`).  The *independence
number* of P is alpha(G[C_1 + ... + C_k]); by Lemma 7 that subgraph is an
interval graph whose clique path is P itself, so a right-endpoint greedy
along P computes it exactly (:func:`path_independence_number`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..graphs.adjacency import Graph, Vertex
from .forest import CliqueForest
from .wcig import Clique

__all__ = [
    "ForestPath",
    "orient_binary_path",
    "path_vertices",
    "nodes_with_subtree_in",
    "path_diameter_at_least",
    "path_independence_number",
    "greedy_path_mis",
]


@dataclass(frozen=True)
class ForestPath:
    """A maximal binary path of a clique forest.

    ``cliques`` are ordered end to end.  ``left_attachment`` and
    ``right_attachment`` are the outside cliques (degree >= 3 in T)
    adjacent to ``cliques[0]`` and ``cliques[-1]`` respectively -- the
    C_s and C_e of Lemma 3 -- or ``None`` at a free end.  Both are None
    for a whole-component path; exactly one is set for a pendant path
    attached at one end; both are set for an internal path.
    """

    cliques: Tuple[Clique, ...]
    left_attachment: Optional[Clique]
    right_attachment: Optional[Clique]

    @property
    def attachments(self) -> Tuple[Clique, ...]:
        """The attachment cliques that exist (0, 1 or 2 of them)."""
        return tuple(
            c for c in (self.left_attachment, self.right_attachment) if c is not None
        )

    @property
    def is_pendant(self) -> bool:
        """Pendant: some end has no outside attachment (degree <= 1 in T)."""
        return self.left_attachment is None or self.right_attachment is None

    @property
    def is_internal(self) -> bool:
        """Internal: both ends attach to the rest of the forest."""
        return self.left_attachment is not None and self.right_attachment is not None

    def oriented(self) -> "ForestPath":
        """The same path with a free end (if any) on the right.

        Convenient for code that treats the left attachment as "the"
        boundary of a pendant path.
        """
        if self.left_attachment is None and self.right_attachment is not None:
            return ForestPath(
                cliques=tuple(reversed(self.cliques)),
                left_attachment=self.right_attachment,
                right_attachment=None,
            )
        return self

    def clique_set(self) -> Set[Clique]:
        return set(self.cliques)

    def __len__(self) -> int:
        return len(self.cliques)


def orient_binary_path(
    neighbors: Callable[[Clique], Set[Clique]], comp: Set[Clique]
) -> ForestPath:
    """Order a binary path of cliques end-to-end and record its attachments.

    ``neighbors(c)`` is the set of cliques adjacent to ``c`` in the forest
    (``forest.neighbors`` of a :class:`CliqueForest`).  ``comp`` must
    induce a path there whose cliques all have degree <= 2, so each end
    has at most one outside neighbor.  A single clique orders its (at most
    two) neighbors by sorted members, left first; a longer path starts at
    the end with the smaller sorted members.  The peeling orients its
    maximal binary paths this way, and Algorithm 3's local decision
    orients the subpath T(v).
    """
    if len(comp) == 1:
        (c,) = comp
        outside = sorted(neighbors(c) - comp, key=lambda d: tuple(sorted(d)))
        left = outside[0] if outside else None
        right = outside[1] if len(outside) > 1 else None
        return ForestPath(cliques=(c,), left_attachment=left, right_attachment=right)
    inner_deg = {c: len(neighbors(c) & comp) for c in comp}
    ends = sorted(
        (c for c in comp if inner_deg[c] == 1), key=lambda c: tuple(sorted(c))
    )
    if len(ends) != 2:
        raise AssertionError("binary component of a forest must be a path")
    start = ends[0]
    ordered = [start]
    prev: Optional[Clique] = None
    cur = start
    while len(ordered) < len(comp):
        nxt = [d for d in neighbors(cur) if d in comp and d != prev]
        prev, cur = cur, nxt[0]
        ordered.append(cur)

    def outside_of(end: Clique) -> Optional[Clique]:
        out = neighbors(end) - comp
        if len(out) > 1:
            raise AssertionError("path end has degree > 2 in the forest")
        return next(iter(out), None)

    return ForestPath(
        cliques=tuple(ordered),
        left_attachment=outside_of(ordered[0]),
        right_attachment=outside_of(ordered[-1]),
    )


def path_vertices(path: Sequence[Clique]) -> Set[Vertex]:
    """V_P = C_1 + ... + C_k: every node intersecting the path (Lemma 7)."""
    out: Set[Vertex] = set()
    for c in path:
        out |= c
    return out


def nodes_with_subtree_in(
    forest: CliqueForest, path: Sequence[Clique]
) -> Set[Vertex]:
    """Nodes v whose whole subtree T(v) lies on the path (phi(v) inside it).

    These are the nodes the peeling step removes for this path (the sets
    V_i of Algorithm 1 / W_P of Algorithm 6).  Since T(v) is connected, the
    containment phi(v) subset-of path already makes T(v) a subpath.
    """
    members = set(path)
    out: Set[Vertex] = set()
    for v in path_vertices(path):
        if forest.phi(v) <= members:
            out.add(v)
    return out


def path_diameter_at_least(path: Sequence[Clique], threshold: int) -> bool:
    """Whether diam(P) >= ``threshold``, decided inside G[V_P].

    ``path`` is a subpath of a clique forest of the graph the distances
    are measured in (the current graph G[U_i] during peeling).  Two
    vertices of V_P are adjacent there iff they share a clique of P: T(u),
    T(v) and P pairwise intersect, so by Helly they share a clique.  And
    G[V_P] is isometric in that graph: a shortest u-v path that leaves V_P
    runs, outside it, through one component K of F - P, which hangs off P
    by a single forest edge; by running intersection the path leaves and
    re-enters through that edge's separator S, a clique inside V_P, so
    one edge replaces the excursion.  Hence the BFS runs on the small
    graph made of P's own cliques, never on the current graph.

    One BFS bounds the diameter within [ecc, 2 * ecc] (triangle
    inequality), so a single source already settles the decision unless
    the threshold falls in the gray zone; only then does the all-sources
    scan run, and it stops at the first distance reaching the threshold.
    Every BFS is depth-capped at ``threshold``.  A vertex not reached
    within the cap has distance > threshold and settles the decision as
    ``True``; this covers cliques that do not chain together too
    (distance infinity), which a real forest path never has, because
    consecutive cliques of a clique forest intersect.  This is what
    :func:`repro.coloring.prune.diameter_rule` and Algorithm 3's local
    decision call: neither ever needs the exact diameter.
    """
    local = Graph()
    for c in path:
        local.add_clique(c)
    verts = local.vertices()
    if not verts:
        return 0 >= threshold
    for i, s in enumerate(verts):
        dist = local.bfs_distances(s, cutoff=threshold)
        if len(dist) < len(verts):
            return True
        ecc = max(dist.values())
        if ecc >= threshold:
            return True
        if i == 0 and 2 * ecc < threshold:
            return False
    return False


def greedy_path_mis(path: Sequence[Clique]) -> Set[Vertex]:
    """A maximum independent set of G[V_P] straight from the clique path.

    By Lemma 7, G[V_P] is an interval graph whose clique path is P; a
    vertex v occupies the consecutive clique positions where it appears.
    The classic right-endpoint greedy is exact: scan positions left to
    right, and whenever a vertex's interval ends, take it if none of its
    cliques contains an already-taken vertex.  Vertices ending at the same
    position are tried in increasing identifier order.
    """
    first: Dict[Vertex, int] = {}
    last: Dict[Vertex, int] = {}
    for i, c in enumerate(path):
        for v in c:
            first.setdefault(v, i)
            last[v] = i
    blocked = [False] * len(path)
    chosen: Set[Vertex] = set()
    by_end: Dict[int, List[Vertex]] = {}
    for v, end in last.items():
        by_end.setdefault(end, []).append(v)
    for i in range(len(path)):
        for v in sorted(by_end.get(i, ())):
            if not any(blocked[j] for j in range(first[v], last[v] + 1)):
                chosen.add(v)
                for j in range(first[v], last[v] + 1):
                    blocked[j] = True
    return chosen


def path_independence_number(path: Sequence[Clique]) -> int:
    """alpha(G[C_1 + ... + C_k]) (Section 2's independence number of P)."""
    return len(greedy_path_mis(path))
