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

:func:`reference_clique_forest` builds the canonical clique forest the
way the paper states it: Kruskal under ``<`` over every edge of W_G
(:func:`weighted_clique_intersection_edges`).  Its id-space twin is
:func:`clique_intersection_edges` + :func:`maximum_weight_spanning_forest_ids`.
:func:`~repro.graphs.kernels.clique_forest_from_peo` never builds W_G and
must return the same forest; ``benchmarks/bench_kernels.py`` times the
id-space pair as its reference side.

:func:`reference_peeling` is the peeling loop as first written: each
iteration rebuilds T_{i+1} with ``CliqueForest.without_cliques``, deletes
the layer from a copy of the graph, finds the maximal binary paths of the
new forest (:func:`maximal_binary_paths`) and hands its rules the current
graph G[U_i].  Its diameter rule (:func:`reference_diameter_rule`)
searches that current graph, so pinning
:func:`~repro.coloring.prune.peel_chordal_graph`, which never builds it
and decides inside G[V_P], checks the isometry argument too;
``benchmarks/bench_kernels.py`` times it as the reference side of its
peeling rows.  :func:`path_diameter` is the exact all-pairs diameter of a
path.

:func:`decide_from_view_all_pairs` is Algorithm 3's local layer decision
as first written: its own orientation of T(v) and an all-pairs BFS
diameter.  The library's decision reuses the peeling's path code and
must decide identically.

:func:`local_cliques_of` and :func:`reference_subtree_of` build one
vertex's phi(u) and T(u) the way a local view first did: one
``maximal_cliques`` call on G[Gamma[u]] per interior vertex.  A view now
fills every missing :data:`~repro.cliquetree.local_view.SubtreeTable`
entry from one clique pass, and each entry must equal this oracle's,
list order included.

:func:`reference_gather` is the full-flood ball gather (every node
re-broadcasts everything it knows, every round).  The library's delta
gather must return the same balls in the same number of rounds, and
``benchmarks/bench_network.py`` times it as the flood side.

:func:`reference_bfs_layers` is the closed-form accounting of a
message-passing BFS flood (distances, rounds and per-round sends); the
per-node ``BFSLayerProgram`` must match it.

:func:`induced_subgraph_by_edges` is the induced-subgraph builder that
added every kept vertex and then every kept edge through
``Graph.add_vertex``/``add_edge``;
:meth:`~repro.graphs.adjacency.Graph.induced_subgraph`, one set
intersection per kept vertex, must build the same graph, and
``benchmarks/bench_kernels.py`` times it as the reference side of its
``induced_subgraph`` rows.

:func:`interval_graph_by_slicing` is the interval-graph builder that
copied the sorted tail once per vertex; the index loop of
:func:`~repro.graphs.interval.interval_graph_from_intervals` must build
the same graph, neighbour insertion order included.

The ``*_rows`` functions are the nested serial loops the experiment
tables were first computed with, before :mod:`repro.runner` planned them
as cells.  ``tests/runner/test_report_compat.py`` formats their rows as
the ground truth the engine's tables must match byte for byte.
"""

import gc
import math
from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.baselines import luby_mis, sequential_greedy_coloring
from repro.coloring import (
    PeeledPath,
    Peeling,
    color_chordal_graph,
    diameter_rule,
    distributed_color_chordal,
    peel_chordal_graph,
)
from repro.coloring.distributed_mvc import _walk_binary
from repro.cliquetree import (
    CliqueForest,
    UnionFind,
    build_clique_forest,
    maximum_weight_spanning_forest,
    nodes_with_subtree_in,
    path_vertices,
    sigma,
    wcig_edges_among,
)
from repro.cliquetree.paths import orient_binary_path
from repro.graphs import Graph, clique_number, num_colors, unit_interval_chain
from repro.graphs.chordal import maximal_cliques, perfect_elimination_ordering
from repro.localmodel.gather import BallGatherProgram
from repro.localmodel.network import SyncNetwork
from repro.lowerbounds import measure_r_round_mis
from repro.mis import chordal_mis, independence_number_chordal, interval_mis
from repro.runner.cells import GRAPH_FAMILIES


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


def weighted_clique_intersection_edges(graph):
    """Maximal cliques of a chordal graph and every edge of its W_G."""
    cliques = maximal_cliques(graph)
    return cliques, wcig_edges_among(cliques)


def reference_clique_forest(graph):
    """The canonical clique forest by Kruskal under ``<`` over all of W_G."""
    cliques, edges = weighted_clique_intersection_edges(graph)
    return CliqueForest(cliques, maximum_weight_spanning_forest(cliques, edges))


def clique_intersection_edges(cliques):
    """W_G edges among id-tuple ``cliques`` as ``(i, j, weight)``, ``i < j``.

    Walks each vertex's clique-incidence list and counts shared members
    per pair; sorted by (i, j), the all-pairs enumeration order.
    """
    incidence = {}
    weights = {}
    for ci, members in enumerate(cliques):
        for v in members:
            lst = incidence.setdefault(v, [])
            for cj in lst:
                weights[(cj, ci)] = weights.get((cj, ci), 0) + 1
            lst.append(ci)
    return [(i, j, w) for (i, j), w in sorted(weights.items())]


def maximum_weight_spanning_forest_ids(cliques, edges):
    """Kruskal under ``<`` over clique indices: the forest as (i, j) pairs.

    The key of edge (i, j) is ``(w, sigma_lo, sigma_hi)`` with the sigma
    words compared as id tuples, order-isomorphic to the label space.
    """
    def key(e):
        i, j, w = e
        si, sj = cliques[i], cliques[j]
        return (w, si, sj) if si <= sj else (w, sj, si)

    uf = UnionFind(range(len(cliques)))
    return [(i, j) for i, j, _w in sorted(edges, key=key, reverse=True) if uf.union(i, j)]


def maximal_binary_paths(forest):
    """All maximal binary paths of ``forest``, sorted by first clique.

    The components of the subforest induced by the cliques of degree
    <= 2, each oriented by ``orient_binary_path``.
    """
    low = [c for c in forest.cliques() if forest.degree(c) <= 2]
    low_set = set(low)
    seen = set()
    paths = []
    for c in low:
        if c in seen:
            continue
        comp = {c}
        stack = [c]
        while stack:
            x = stack.pop()
            for y in forest.neighbors(x):
                if y in low_set and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        paths.append(orient_binary_path(forest.neighbors, comp))
    paths.sort(key=lambda p: tuple(sorted(p.cliques[0])))
    return paths


def path_diameter(graph, path):
    """diam(P): the largest distance in ``graph`` between nodes of P's cliques."""
    verts = path_vertices(path)
    best = 0
    for s in verts:
        dist = graph.bfs_distances(s)
        for t in verts:
            if t not in dist:
                raise ValueError("path cliques are not mutually reachable in graph")
            best = max(best, dist[t])
    return best


def current_graph_diameter_at_least(graph, path, threshold):
    """Whether ``path_diameter(graph, path) >= threshold``, by BFS in ``graph``.

    The same early exits as the library's decision (one eccentricity
    bounds the diameter within [ecc, 2 * ecc]; every search is capped at
    the threshold), but every search runs in the whole current graph.
    """
    verts = sorted(path_vertices(path))
    if not verts:
        return 0 >= threshold
    dist = graph.bfs_distances(verts[0], cutoff=threshold)
    ecc = 0
    for t in verts:
        if t not in dist:
            return True
        ecc = max(ecc, dist[t])
    if ecc >= threshold:
        return True
    if 2 * ecc < threshold:
        return False
    for s in verts[1:]:
        dist = graph.bfs_distances(s, cutoff=threshold)
        for t in verts:
            if t not in dist or dist[t] >= threshold:
                return True
    return False


def reference_diameter_rule(threshold):
    """``diameter_rule(threshold)`` for :func:`reference_peeling`: ``(G[U_i], P)``."""

    def rule(current, path):
        return current_graph_diameter_at_least(current, path.cliques, threshold)

    return rule


def reference_peeling(graph, internal_rule, max_iterations=None, last_iteration_rule=None):
    """The peeling with a rebuilt forest and a shrinking graph per iteration.

    Rules take ``(current_graph, path)``.  Returns the library's
    :class:`~repro.coloring.prune.Peeling`, so results compare with ``==``.
    """
    forest = build_clique_forest(graph)
    current = graph.copy()
    layers = []
    layer_of = {}
    all_nodes = set(graph.vertices())
    iteration = 0
    while len(forest) > 0:
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            return Peeling(layers, layer_of, exhausted=False, _all_nodes=all_nodes)
        rule = internal_rule
        if last_iteration_rule is not None and iteration == max_iterations:
            rule = last_iteration_rule
        peeled_here = []
        removed_cliques = []
        removed_nodes = set()
        for path in maximal_binary_paths(forest):
            if not (path.is_pendant or rule(current, path)):
                continue
            nodes = frozenset(nodes_with_subtree_in(forest, path.cliques))
            peeled_here.append(PeeledPath(layer=iteration, path=path, nodes=nodes))
            removed_cliques.extend(path.cliques)
            removed_nodes |= nodes
        if not peeled_here:
            raise AssertionError("peeling stalled")
        for peeled in peeled_here:
            for v in peeled.nodes:
                layer_of[v] = iteration
        layers.append(peeled_here)
        forest = forest.without_cliques(removed_cliques)
        current.remove_vertices(removed_nodes)
    return Peeling(layers, layer_of, exhausted=True, _all_nodes=all_nodes)


def local_cliques_of(ball, u):
    """phi(u) computed from a ball that contains all of Gamma[u].

    The maximal cliques of G containing u are exactly the maximal cliques
    of G[Gamma[u]] containing u, and Gamma_G[u] is fully inside the ball by
    the caller's contract, so this is computable locally.
    """
    closed = ball.closed_neighborhood(u)
    sub = ball.induced_subgraph(closed)
    return [c for c in maximal_cliques(sub) if u in c]


def reference_subtree_of(ball, u):
    """phi(u) and T(u), the maximum weight spanning forest of W_G[phi(u)]."""
    phi_u = local_cliques_of(ball, u)
    chosen = maximum_weight_spanning_forest(
        sorted(phi_u, key=sigma), wcig_edges_among(phi_u)
    )
    edges = [(c1, c2) if sigma(c1) <= sigma(c2) else (c2, c1) for c1, c2 in chosen]
    return phi_u, edges


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


def reference_gather(graph, radius, states=None, sealed=False, sinks=None, faults=None):
    """Full-flood gathering: per-node balls and rounds, like ``gather_balls``.

    Always steps node by node, with the cyclic GC paused for the run as
    the library gather pauses it, so timings compare like with like.
    """
    state_of = states or {}

    def factory(v, nbrs):
        return BallGatherProgram(v, nbrs, radius, state_of.get(v))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = SyncNetwork(graph, factory, sealed=sealed, sinks=sinks, faults=faults)
        balls = net.run(max_rounds=radius + 1)
    finally:
        if was_enabled:
            gc.enable()
    return balls, net.stats.rounds


def reference_bfs_layers(graph, sources, budget):
    """A ``BFSLayerProgram`` run in closed form: ``(outputs, stats)``.

    A node at distance ``d`` from the nearest source learns ``d`` in
    round ``d`` and announces it once, in that round, to each neighbour,
    provided ``d < budget``; every node stops after round ``budget``
    (``budget >= 0``) and outputs ``d`` when ``d <= budget``, else None.
    ``stats`` is ``(rounds, sent, delivered, max sent per round)``.  This
    is the arithmetic of the whole-round BFS kernel the library once
    carried; the per-node program must reproduce it exactly.
    """
    dist = {v: 0 for v in sources}
    layers = [list(dist)] if dist else []
    while layers and len(layers) <= budget:
        fresh = {
            u
            for v in layers[-1]
            for u in graph.neighbors_view(v)
            if u not in dist
        }
        if not fresh:
            break
        for u in fresh:
            dist[u] = len(layers)
        layers.append(list(fresh))
    sent = [sum(graph.degree(v) for v in layer) for layer in layers[:budget]]
    rounds = budget + 1 if len(graph) else 0
    outputs = {v: dist.get(v) for v in graph.vertices()}
    return outputs, (rounds, sum(sent), sum(sent), max(sent, default=0))


def interval_graph_by_slicing(intervals):
    """Intersection graph of closed intervals, scanning a copied tail per vertex."""
    for v, (lo, hi) in intervals.items():
        if lo > hi:
            raise ValueError(f"interval for {v!r} is reversed: ({lo}, {hi})")
    g = Graph(vertices=intervals)
    items = sorted(intervals.items(), key=lambda kv: (kv[1][0], kv[1][1]))
    for i, (u, (lo_u, hi_u)) in enumerate(items):
        for v, (lo_v, hi_v) in items[i + 1:]:
            if lo_v > hi_u:
                break
            g.add_edge(u, v)
    return g


def induced_subgraph_by_edges(graph, vs):
    """G[U] built vertex by vertex and edge by edge, as ``Graph`` first did."""
    keep = set(vs)
    missing = [v for v in keep if v not in graph]
    if missing:
        raise KeyError(f"vertices not in graph: {sorted(missing)!r}")
    g = Graph()
    for v in keep:
        g.add_vertex(v)
    for v in keep:
        for u in graph.neighbors_view(v) & keep:
            if v < u:
                g.add_edge(v, u)
    return g


def mvc_approximation_rows(eps_values=(1.0, 0.5, 0.25), n=150, seeds=(0, 1, 2)):
    """T3: measured colors vs the (1 + eps) chi bound, per family."""
    rows = []
    for family, make in GRAPH_FAMILIES.items():
        for eps in eps_values:
            worst = 0.0
            chi = 0
            colors = 0
            for seed in seeds:
                g = make(n, seed)
                result = color_chordal_graph(g, epsilon=eps)
                ratio = result.approximation_ratio()
                if ratio >= worst:
                    worst, chi, colors = ratio, result.chi, result.num_colors()
            rows.append((family, eps, chi, colors, worst, 1.0 + eps))
    return rows


def mvc_rounds_rows(ns=(100, 200, 400, 800), epsilon=1.0, family="tree", seed=0):
    """T4: distributed rounds vs n at fixed eps."""
    make = GRAPH_FAMILIES[family]
    rows = []
    for n in ns:
        report = distributed_color_chordal(make(n, seed), epsilon=epsilon)
        layers = report.result.peeling.num_layers()
        rows.append((n, layers, report.pruning_rounds, report.total_rounds))
    return rows


def mvc_rounds_vs_epsilon_rows(
    eps_values=(2.0, 1.0, 0.5, 0.25), n=300, family="tree", seed=0
):
    """T4, other axis: rounds vs 1/eps at fixed n."""
    g = GRAPH_FAMILIES[family](n, seed)
    rows = []
    for eps in eps_values:
        report = distributed_color_chordal(g, epsilon=eps)
        rows.append(
            (eps, report.result.parameters.k, report.total_rounds, report.num_colors())
        )
    return rows


def interval_mis_rows(eps_values=(0.8, 0.4, 0.2), n=300, seeds=(0, 1, 2)):
    """T5/T6: interval MIS size vs alpha, and rounds."""
    rows = []
    for eps in eps_values:
        worst_ratio = 1.0
        rounds = 0
        for seed in seeds:
            g = unit_interval_chain(n, seed=seed)
            result = interval_mis(g, eps)
            alpha = independence_number_chordal(g)
            worst_ratio = max(worst_ratio, alpha / max(1, result.size()))
            rounds = max(rounds, result.rounds)
        rows.append((eps, worst_ratio, 1.0 + eps, rounds))
    return rows


def chordal_mis_rows(eps_values=(0.45, 0.3, 0.2), n=150, seeds=(0, 1)):
    """T7/T8: chordal MIS size vs alpha, per family."""
    rows = []
    for family, make in GRAPH_FAMILIES.items():
        for eps in eps_values:
            worst_ratio = 1.0
            rounds = 0
            for seed in seeds:
                g = make(n, seed)
                result = chordal_mis(g, eps)
                alpha = independence_number_chordal(g)
                worst_ratio = max(worst_ratio, alpha / max(1, result.size()))
                rounds = max(rounds, result.rounds)
            rows.append((family, eps, worst_ratio, 1.0 + eps, rounds))
    return rows


def lower_bound_rows(r_values=(4, 8, 16, 32, 64), n=4000, trials=8, seed=0):
    """T9: density gap of the r-round rule."""
    rows = []
    for r in r_values:
        sample = measure_r_round_mis(n, r, trials=trials, seed=seed)
        rows.append(
            (r, sample.mean_size, sample.optimum, sample.density_gap,
             r * sample.density_gap)
        )
    return rows


def baseline_rows(n=200, seeds=(0, 1, 2)):
    """B1: the (1 + eps) algorithms vs greedy coloring and Luby."""
    rows = []
    for family, make in GRAPH_FAMILIES.items():
        for seed in seeds[:1]:
            g = make(n, seed)
            chi = clique_number(g)
            alpha = independence_number_chordal(g)
            greedy = num_colors(sequential_greedy_coloring(g))
            ours_col = color_chordal_graph(g, epsilon=0.5).num_colors()
            luby_size = len(luby_mis(g, seed=seed)[0])
            ours_mis = chordal_mis(g, 0.45).size()
            rows.append((family, chi, greedy, ours_col, alpha, luby_size, ours_mis))
    return rows


def pruning_rows(ns=(50, 100, 200, 400, 800), family="chordal", seed=0):
    """L6: number of peeling layers vs the ceil(log2 n) + 1 bound."""
    make = GRAPH_FAMILIES[family]
    rows = []
    for n in ns:
        g = make(n, seed)
        peeling = peel_chordal_graph(g, internal_rule=diameter_rule(4))
        rows.append(
            (n, peeling.num_layers(), math.ceil(math.log2(max(2, len(g)))) + 1)
        )
    return rows
