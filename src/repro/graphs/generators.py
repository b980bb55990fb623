"""Graph generators.

Deterministic generators for the structured families used throughout the
paper (paths, trees, caterpillars, complete graphs) and seeded random
generators for the three chordal models the experiments sweep over:

* **interval model** -- intersection graphs of random intervals,
* **k-tree model** -- random partial/full k-trees (chordal with
  chi = k + 1),
* **subtree model** -- intersection graphs of random subtrees of a random
  tree, which by the classic characterization generate *all* chordal
  graphs.

Every random generator takes an explicit ``seed`` (or an already-seeded
:class:`random.Random`); nothing in the library touches global RNG state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple, Union

from .adjacency import Graph, Vertex
from .interval import interval_graph_from_intervals

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "caterpillar",
    "random_tree",
    "random_connected_interval_graph",
    "random_interval_graph",
    "random_proper_interval_graph",
    "random_k_tree",
    "random_chordal_graph",
    "binary_tree",
    "unit_interval_chain",
    "random_split_graph",
    "power_law_tree",
]

Rng = Union[int, random.Random, None]


def _rng(seed: Rng) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def path_graph(n: int) -> Graph:
    """The path P_n on vertices 0..n-1."""
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """The cycle C_n (not chordal for n >= 4; used by negative tests)."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def complete_graph(n: int) -> Graph:
    g = Graph(vertices=range(n))
    g.add_clique(range(n))
    return g


def star_graph(n_leaves: int) -> Graph:
    """K_{1,n}: center 0, leaves 1..n."""
    g = Graph(vertices=range(n_leaves + 1))
    for i in range(1, n_leaves + 1):
        g.add_edge(0, i)
    return g


def caterpillar(spine: int, legs_per_vertex: int) -> Graph:
    """A caterpillar tree: a spine path with pendant legs."""
    g = path_graph(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(legs_per_vertex):
            g.add_edge(s, nxt)
            nxt += 1
    return g


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (depth 0 = single vertex)."""
    g = Graph(vertices=[0])
    frontier = [0]
    nxt = 1
    for _ in range(depth):
        new_frontier = []
        for v in frontier:
            for _ in range(2):
                g.add_edge(v, nxt)
                new_frontier.append(nxt)
                nxt += 1
        frontier = new_frontier
    return g


def random_tree(n: int, seed: Rng = None) -> Graph:
    """A uniformly seeded random tree via random attachment."""
    rng = _rng(seed)
    g = Graph(vertices=range(n))
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


def random_interval_graph(
    n: int,
    seed: Rng = None,
    max_length: float = 0.1,
    span: float = 1.0,
) -> Graph:
    """Intersection graph of n random intervals in [0, span].

    ``max_length`` controls density: smaller values give sparser, more
    path-like graphs (the regime where the peeling process has many
    layers); values near ``span`` approach a complete graph.
    """
    rng = _rng(seed)
    intervals: Dict[Vertex, Tuple[float, float]] = {}
    for v in range(n):
        lo = rng.uniform(0, span)
        length = rng.uniform(0, max_length)
        intervals[v] = (lo, min(lo + length, span))
    return interval_graph_from_intervals(intervals)


def random_connected_interval_graph(
    n: int,
    seed: Rng = None,
    min_length: float = 1.0,
    max_length: float = 1.5,
    max_step: float = 0.9,
) -> Graph:
    """A connected, elongated random interval graph (large diameter).

    Intervals march rightward with steps shorter than the minimum interval
    length, so consecutive intervals always overlap: the graph is
    connected with diameter Theta(n).  This is the regime where the
    distance-k machinery of Algorithms 5 and ColIntGraph actually runs
    (compact graphs are solved exactly by one coordinator).
    """
    if min_length <= max_step:
        raise ValueError("min_length must exceed max_step for connectivity")
    rng = _rng(seed)
    intervals: Dict[Vertex, Tuple[float, float]] = {}
    x = 0.0
    for v in range(n):
        length = rng.uniform(min_length, max_length)
        intervals[v] = (x, x + length)
        x += rng.uniform(0.1, max_step)
    return interval_graph_from_intervals(intervals)


def unit_interval_chain(
    n: int,
    seed: Rng = None,
    max_step: float = 0.35,
) -> Graph:
    """A dense chain of unit intervals marching rightward.

    All intervals have length exactly 1 and start within ``max_step`` of
    the previous one, so the graph is a connected proper-interval chain of
    diameter Theta(n) with very few dominated vertices -- the hardest
    regime for Algorithm 5, where the distance-k independent set and the
    in-between exact solves genuinely matter.
    """
    if not 0 < max_step < 1:
        raise ValueError("max_step must lie in (0, 1) for connectivity")
    rng = _rng(seed)
    intervals: Dict[Vertex, Tuple[float, float]] = {}
    x = 0.0
    for v in range(n):
        intervals[v] = (x, x + 1.0)
        x += rng.uniform(0.05, max_step)
    return interval_graph_from_intervals(intervals)


def random_proper_interval_graph(
    n: int,
    seed: Rng = None,
    length: float = 0.05,
    span: float = 1.0,
) -> Graph:
    """Intersection graph of n random *unit* intervals (all same length)."""
    rng = _rng(seed)
    intervals = {}
    for v in range(n):
        lo = rng.uniform(0, span)
        intervals[v] = (lo, lo + length)
    return interval_graph_from_intervals(intervals)


def random_split_graph(
    n: int,
    seed: Rng = None,
    clique_fraction: float = 0.4,
    edge_probability: float = 0.3,
) -> Graph:
    """A random split graph: a clique plus an independent set.

    Split graphs are exactly the graphs that are chordal with chordal
    complement; they stress the pipeline's dense end (one huge bag whose
    forest neighbors are tiny pendant cliques).
    """
    if not 0 <= clique_fraction <= 1:
        raise ValueError("clique_fraction must lie in [0, 1]")
    rng = _rng(seed)
    clique_size = max(1, int(round(n * clique_fraction))) if n else 0
    g = Graph(vertices=range(n))
    g.add_clique(range(clique_size))
    for v in range(clique_size, n):
        for u in range(clique_size):
            if rng.random() < edge_probability:
                g.add_edge(u, v)
    return g


def power_law_tree(n: int, seed: Rng = None, bias: float = 1.0) -> Graph:
    """A preferential-attachment tree (hubby, small diameter).

    New vertices attach to an existing vertex with probability
    proportional to degree + bias; bias -> infinity recovers the uniform
    random tree.  Trees with hubs have many pendant paths per peeling
    iteration, the easy case for Lemma 6's bound.
    """
    if bias <= 0:
        raise ValueError("bias must be positive")
    rng = _rng(seed)
    g = Graph(vertices=range(n))
    weights: List[float] = [bias] * n
    for v in range(1, n):
        total = sum(weights[:v])
        pick = rng.uniform(0, total)
        acc = 0.0
        target = 0
        for u in range(v):
            acc += weights[u]
            if pick <= acc:
                target = u
                break
        g.add_edge(v, target)
        weights[v] += 1
        weights[target] += 1
    return g


def random_k_tree(n: int, k: int, seed: Rng = None) -> Graph:
    """A random k-tree on n vertices (n >= k + 1).

    Start from K_{k+1}; each new vertex is joined to a random k-clique of
    the current graph.  k-trees are chordal with clique number k + 1.
    """
    if n < k + 1:
        raise ValueError("a k-tree needs at least k + 1 vertices")
    rng = _rng(seed)
    g = Graph(vertices=range(n))
    g.add_clique(range(k + 1))
    k_cliques: List[Tuple[Vertex, ...]] = [
        tuple(sorted(set(range(k + 1)) - {i})) for i in range(k + 1)
    ]
    for v in range(k + 1, n):
        base = list(rng.choice(k_cliques))
        for u in base:
            g.add_edge(u, v)
        for i in range(k):
            new_clique = tuple(sorted(set(base) - {base[i]}) + [v])
            k_cliques.append(new_clique)
    return g


def random_chordal_graph(
    n: int,
    seed: Rng = None,
    subtree_radius: int = 2,
    tree_size: Optional[int] = None,
) -> Graph:
    """A random chordal graph via the subtree-intersection model.

    Builds a random host tree, assigns each of the n vertices a random
    subtree (a BFS ball of radius up to ``subtree_radius`` around a random
    tree node, randomly pruned), and returns the intersection graph of the
    subtrees.  Every chordal graph arises this way, and the model produces
    the tree-like global structure the peeling process of the paper is
    designed for.

    Isolated vertices are possible and retained (the paper treats an
    isolated vertex as a pendant path).
    """
    rng = _rng(seed)
    host_n = tree_size if tree_size is not None else max(2, n // 2)
    host = random_tree(host_n, seed=rng)
    subtrees: List[Set[int]] = []
    for _ in range(n):
        root = rng.randrange(host_n)
        radius = rng.randint(0, subtree_radius)
        ball = sorted(host.bfs_distances(root, cutoff=radius))
        # Randomly prune the ball while keeping it connected (drop leaves).
        keep = set(ball)
        for node in sorted(keep, reverse=True):
            if node == root or not keep or rng.random() >= 0.5:
                continue
            sub = keep - {node}
            if sub and _is_connected_in(host, sub):
                keep = sub
        subtrees.append(keep)
    g = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if subtrees[i] & subtrees[j]:
                g.add_edge(i, j)
    return g


def _is_connected_in(tree: Graph, nodes: Set[int]) -> bool:
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in tree.neighbors_view(u):
            if v in nodes and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == nodes
