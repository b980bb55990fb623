"""Test-side reference implementations the library no longer ships.

:func:`dense_scheduling` is the dense-stepping oracle of
:class:`~repro.localmodel.network.SyncNetwork`: every not-done,
not-crashed node is stepped every round, whether or not it has a reason
to run.  The LOCAL model charges rounds, not work, so active-set
scheduling must be indistinguishable from it for every conforming
program -- outputs, :class:`~repro.localmodel.network.RunStats` and
traces alike.  The equivalence suites run their matrix under both.

:func:`parent_by_full_bfs`, :func:`diameter_all_pairs` and
:func:`greedy_by_scanning` are the plain whole-graph searches that
:func:`~repro.coloring.distributed_mvc.compute_parent`,
:meth:`~repro.graphs.adjacency.Graph.diameter` and
:func:`~repro.localmodel.rulingset.greedy_distance_k_selection` stop
early; each rewrite must return exactly what its oracle returns.

:func:`reference_lex_bfs`, :func:`reference_maximum_cardinality_search`,
:func:`reference_check_peo`, :func:`reference_maximal_cliques` and
:func:`reference_wcig_edges_among` are the label-space implementations
the CSR kernels of :mod:`repro.graphs.kernels` replaced; the kernels must
be byte-identical to them, and ``benchmarks/bench_kernels.py`` times them
as the legacy side.

:func:`decide_from_view_all_pairs` is Algorithm 3's local layer decision
as first written: its own orientation of T(v) and an all-pairs BFS
diameter.  The library's decision reuses the peeling's path code and
must decide identically.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.coloring.distributed_mvc import _walk_binary
from repro.graphs.chordal import perfect_elimination_ordering
from repro.localmodel.network import SyncNetwork


def _dense_scheduled(self):
    crashed = (
        self._fault_runtime.crashed if self._fault_runtime is not None else set()
    )
    chosen = [
        v for v, p in self.programs.items() if not p.done and v not in crashed
    ]
    # Dense stepping never starves: treating every scheduled node as
    # always-active keeps run()'s starvation guard quiet while any of
    # them is still running.
    self._always = set(chosen)
    return chosen


@contextmanager
def dense_scheduling():
    """Step every live node every round, in every network built or run inside."""
    with mock.patch.object(SyncNetwork, "_scheduled", _dense_scheduled):
        yield


def scheduling(name):
    """``"active"`` (the library's scheduler) or ``"dense"`` (the oracle)."""
    return dense_scheduling() if name == "dense" else nullcontext()


def parent_by_full_bfs(graph, peeled, v, params):
    """Definition 1 from one BFS to the recoloring distance."""
    candidates = []
    dist = graph.bfs_distances(v, cutoff=params.recolor_distance)
    for att in (peeled.path.left_attachment, peeled.path.right_attachment):
        if att is None:
            continue
        reachable = [dist[u] for u in att if u in dist]
        if reachable:
            candidates.append((min(reachable), max(att)))
    if not candidates:
        return None
    candidates.sort(key=lambda t: t[0])
    return candidates[0][1]


def diameter_all_pairs(graph):
    """The largest BFS eccentricity over every vertex."""
    best = 0
    for v in graph.vertices():
        dist = graph.bfs_distances(v)
        if len(dist) != len(graph):
            raise ValueError("diameter of a disconnected graph is undefined")
        best = max(best, max(dist.values()))
    return best


def greedy_by_scanning(graph, order, k):
    """Take each vertex of ``order`` whose (k-1)-ball holds no taken vertex."""
    if k < 1:
        raise ValueError("spacing k must be >= 1")
    chosen = []
    for v in order:
        ball = graph.bfs_distances(v, cutoff=k - 1)
        if not any(u in ball for u in chosen):
            chosen.append(v)
    return chosen


class _Block:
    """A block of the reference LexBFS partition (insertion-ordered)."""

    __slots__ = ("verts", "prev", "next")

    def __init__(self):
        self.verts = {}
        self.prev = None
        self.next = None


def reference_lex_bfs(graph, start=None, plus=None):
    """Label-space LexBFS (same output, same rules as ``lex_bfs``).

    Partition refinement over a doubly-linked list of insertion-ordered
    blocks: a visited vertex moves each unvisited neighbor -- processed in
    initial-rank order -- into a twin block just before the neighbor's old
    block.  Because within-block order is always a subsequence of the
    initial order, the per-neighbor moves reproduce the stable
    (neighbors-first, order-preserving) split of the textbook formulation
    without rescanning untouched blocks.
    """
    if len(graph) == 0:
        return []
    if plus is not None:
        if sorted(plus) != graph.vertices():
            raise ValueError("plus order must enumerate every vertex exactly once")
        verts = list(reversed(plus))
        if start is None:
            start = verts[0]
    else:
        verts = graph.vertices()
    if start is not None:
        if start not in graph:
            raise KeyError(f"start vertex {start!r} not in graph")
        verts = [start] + [v for v in verts if v != start]

    rank = {v: i for i, v in enumerate(verts)}
    head = _Block()
    head.verts = dict.fromkeys(verts)
    block_of = {v: head for v in verts}
    visited = set()
    order = []
    while head is not None:
        v = next(iter(head.verts))
        del head.verts[v]
        if not head.verts:
            head = head.next
            if head is not None:
                head.prev = None
        visited.add(v)
        order.append(v)
        twins = {}
        for u in sorted(graph.neighbors_view(v) - visited, key=rank.__getitem__):
            b = block_of[u]
            t = twins.get(id(b))
            if t is None:
                t = _Block()
                t.prev, t.next = b.prev, b
                if b.prev is None:
                    head = t
                else:
                    b.prev.next = t
                b.prev = t
                twins[id(b)] = t
            del b.verts[u]
            if not b.verts:  # drained: unlink (its twin keeps the position)
                t.next = b.next
                if b.next is not None:
                    b.next.prev = t
            t.verts[u] = None
            block_of[u] = t
    return order


def reference_maximum_cardinality_search(graph):
    """Label-space maximum cardinality search."""
    weight = {v: 0 for v in graph.vertices()}
    order = []
    unvisited = set(weight)
    while unvisited:
        v = max(sorted(unvisited), key=lambda u: weight[u])
        order.append(v)
        unvisited.remove(v)
        for u in graph.neighbors_view(v):
            if u in unvisited:
                weight[u] += 1
    return order


def reference_check_peo(graph, order):
    """Label-space PEO check (the per-vertex parent test)."""
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(graph):
        raise ValueError("order must enumerate every vertex exactly once")
    for v in order:
        later = [u for u in graph.neighbors_view(v) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        rest = set(later) - {parent}
        if not rest <= graph.neighbors_view(parent):
            return v
    return None


def reference_maximal_cliques(graph):
    """Maximal cliques by the quadratic containment filter over PEO candidates."""
    order = perfect_elimination_ordering(graph)
    pos = {v: i for i, v in enumerate(order)}
    candidates = []
    for v in order:
        cand = {u for u in graph.neighbors_view(v) if pos[u] > pos[v]}
        cand.add(v)
        candidates.append(frozenset(cand))
    cliques = []
    for i, c in enumerate(candidates):
        contained = False
        for j, d in enumerate(candidates):
            if i != j and c <= d and (c != d or j < i):
                contained = True
                break
        if not contained:
            cliques.append(c)
    return sorted(cliques, key=lambda c: (len(c), sorted(c)))


def reference_wcig_edges_among(cliques):
    """All-pairs W_G edges among ``cliques``, in index order."""
    edges = []
    for i, c1 in enumerate(cliques):
        for c2 in cliques[i + 1:]:
            inter = c1 & c2
            if inter:
                edges.append((c1, c2, len(inter)))
    return edges


def decide_from_view_all_pairs(view, ball_graph, params):
    """Algorithm 3's decision: own path orientation, all-pairs diameter."""
    frag = view.forest
    phi_v = frag.phi(view.center)
    for c in phi_v:
        if frag.degree(c) > 2 or not view.degree_is_exact(c):
            return False

    path = _order_subpath(frag, phi_v)
    if len(path) == 1:
        outward = sorted(frag.neighbors(path[0]), key=lambda c: tuple(sorted(c)))
        targets = [
            (path[0], outward[0] if outward else None),
            (path[0], outward[1] if len(outward) > 1 else None),
        ]
    else:
        left_out = frag.neighbors(path[0]) - {path[1]}
        right_out = frag.neighbors(path[-1]) - {path[-2]}
        targets = [
            (path[0], next(iter(left_out), None)),
            (path[-1], next(iter(right_out), None)),
        ]

    statuses = []
    extensions = []
    for boundary, first_next in targets:
        ext, status = _walk_binary(frag, view, boundary, first_next)
        statuses.append(status)
        extensions.append(ext)
    full_path = list(reversed(extensions[0])) + path + extensions[1]

    if "pendant" in statuses:
        return True
    return _path_diameter_within(ball_graph, full_path) >= params.internal_threshold


def _order_subpath(frag, cliques):
    members = set(cliques)
    if len(members) == 1:
        return list(members)
    ends = [c for c in members if len(frag.neighbors(c) & members) <= 1]
    start = min(ends, key=lambda c: tuple(sorted(c)))
    ordered = [start]
    prev = None
    cur = start
    while len(ordered) < len(members):
        nxt = [d for d in frag.neighbors(cur) if d in members and d != prev]
        prev, cur = cur, nxt[0]
        ordered.append(cur)
    return ordered


def _path_diameter_within(ball_graph, path):
    verts = set()
    for c in path:
        verts |= c
    verts &= set(ball_graph.vertices())
    best = 0
    for s in verts:
        dist = ball_graph.bfs_distances(s)
        for t in verts:
            if t in dist:
                best = max(best, dist[t])
    return best
