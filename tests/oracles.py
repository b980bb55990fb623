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

:func:`reference_gather` is the full-flood ball gather (every node
re-broadcasts everything it knows, every round).  The library's delta
gather must return the same balls in the same number of rounds, and
``benchmarks/bench_network.py`` times it as the flood side.

:func:`interval_graph_by_slicing` is the interval-graph builder that
copied the sorted tail once per vertex; the index loop of
:func:`~repro.graphs.interval.interval_graph_from_intervals` must build
the same graph, neighbour insertion order included.

The ``*_rows`` functions are the nested serial loops the experiment
tables were first computed with, before :mod:`repro.runner` planned them
as cells.  ``tests/runner/test_report_compat.py`` formats their rows as
the ground truth the engine's tables must match byte for byte.
"""

import math
from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.baselines import luby_mis, sequential_greedy_coloring
from repro.coloring import (
    color_chordal_graph,
    diameter_rule,
    distributed_color_chordal,
    peel_chordal_graph,
)
from repro.coloring.distributed_mvc import _walk_binary
from repro.graphs import Graph, clique_number, num_colors, unit_interval_chain
from repro.graphs.chordal import perfect_elimination_ordering
from repro.localmodel.gather import BallGatherProgram, _run_gather
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
    """Full-flood gathering: per-node balls and rounds, like ``gather_balls``."""
    state_of = states or {}

    def factory(v, nbrs):
        return BallGatherProgram(v, nbrs, radius, state_of.get(v))

    return _run_gather(graph, radius, factory, sealed, sinks, faults)


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
