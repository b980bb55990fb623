"""The peeling process (pruning phase of Algorithms 1, 3 and 6).

Starting from the canonical clique forest T_1 of the input chordal graph,
iteration i removes every maximal pendant path of T_i plus every maximal
internal path accepted by an *internal rule* (diameter >= 3k for coloring,
diameter >= 2d + 3 or -- in the last MIS iteration -- independence number
>= d).  The nodes whose subtrees lie inside removed paths form layer V_i;
by Lemmas 3-5, simply deleting the removed paths from T_i yields the clique
forest T_{i+1} of the remaining graph, and by Lemma 6 (the pruning lemma)
at most ceil(log2 n) iterations empty the forest when every internal path
of large diameter is taken.

So the process never needs the current graph G[U_i]: T_{i+1} is T_1 minus
everything removed so far, and every rule is local to its path (a path's
diameter is measured inside G[V_P], see
:func:`~repro.cliquetree.paths.path_diameter_at_least`).  The loop below
walks T_1 by clique position with alive flags, alive degrees and
per-vertex alive-clique counts; it rebuilds no forest and copies no graph.

Each removed path is recorded as a :class:`PeeledPath`, carrying everything
the later phases need: the ordered cliques, the attachment cliques C_s/C_e
(Lemma 8's boundary cliques), the removed node set W_P, and the layer
index.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..cliquetree.forest import build_clique_forest
from ..cliquetree.paths import ForestPath, orient_binary_path, path_diameter_at_least
from ..cliquetree.wcig import Clique
from ..graphs.adjacency import Graph, Vertex
from .decomposition import PathBags
from .parameters import _check_positive_int

__all__ = [
    "PeeledPath",
    "Peeling",
    "peel_chordal_graph",
    "diameter_rule",
]

#: Decides whether a maximal *internal* path is peeled this iteration.
InternalRule = Callable[[ForestPath], bool]


def diameter_rule(threshold: int) -> InternalRule:
    """The coloring rule: internal paths of diameter >= threshold (3k).

    The returned rule decides the comparison inside G[V_P] without
    computing the exact diameter
    (:func:`~repro.cliquetree.paths.path_diameter_at_least`).
    ``threshold`` must be an int >= 1 (``ValueError`` otherwise).
    """
    _check_positive_int("threshold", threshold)

    def rule(path: ForestPath) -> bool:
        return path_diameter_at_least(path.cliques, threshold)

    return rule


@dataclass(frozen=True)
class PeeledPath:
    """One maximal binary path removed during peeling."""

    layer: int
    path: ForestPath
    nodes: FrozenSet[Vertex]

    @property
    def cliques(self) -> Tuple[FrozenSet[Vertex], ...]:
        return self.path.cliques

    @property
    def attachments(self) -> Tuple[FrozenSet[Vertex], ...]:
        return self.path.attachments

    def layer_bags(self) -> PathBags:
        """The clique path decomposition of G[W_P] (Lemma 7, restricted)."""
        return PathBags(c & self.nodes for c in self.path.cliques)


@dataclass
class Peeling:
    """The full output of the pruning phase."""

    layers: List[List[PeeledPath]]
    layer_of: Dict[Vertex, int]
    #: True when the peeling ran to an empty forest (False when stopped
    #: early by max_iterations, as Algorithm 6 does).
    exhausted: bool

    def num_layers(self) -> int:
        return len(self.layers)

    def nodes_of_layer(self, i: int) -> Set[Vertex]:
        """All nodes of layer i (1-based, like the paper)."""
        out: Set[Vertex] = set()
        for peeled in self.layers[i - 1]:
            out |= peeled.nodes
        return out

    def remaining_nodes(self) -> Set[Vertex]:
        """U_{k+1}: nodes never peeled (empty when exhausted)."""
        assigned = set(self.layer_of)
        return {v for v in self._all_nodes if v not in assigned}

    _all_nodes: Set[Vertex] = field(default_factory=set)


def _check_rule(name: str, rule: object) -> None:
    if not callable(rule):
        raise TypeError(f"{name} must be a callable rule, got {rule!r}")


def peel_chordal_graph(
    graph: Graph,
    internal_rule: InternalRule,
    max_iterations: Optional[int] = None,
    last_iteration_rule: Optional[InternalRule] = None,
) -> Peeling:
    """Run the peeling process on a chordal graph.

    ``internal_rule`` accepts or rejects each maximal internal path;
    pendant paths are always removed.  When ``max_iterations`` is given the
    process stops after that many layers (Algorithm 6), optionally applying
    ``last_iteration_rule`` instead of ``internal_rule`` in the final one;
    otherwise it runs until the forest is empty, which Lemma 6 bounds by
    ceil(log2 n) iterations.  A rule that is not callable raises
    ``TypeError`` naming it, and ``max_iterations`` must be an int >= 1
    (``ValueError`` otherwise, and also when ``last_iteration_rule`` comes
    without it).  Raises :class:`~repro.graphs.chordal.NotChordalError`
    on non-chordal input.

    T_1 comes from :func:`~repro.cliquetree.forest.build_clique_forest`;
    T_i is T_1 with the removed cliques flagged dead.  Each iteration
    finds the maximal binary paths among the alive cliques of alive
    degree <= 2, orients them with
    :func:`~repro.cliquetree.paths.orient_binary_path`, visits them by
    first clique, and peels a vertex with a removed path when all of its
    alive cliques lie on that path (its subtree T(v) lies inside it).
    """
    _check_rule("internal_rule", internal_rule)
    if max_iterations is not None:
        _check_positive_int("max_iterations", max_iterations)
    if last_iteration_rule is not None:
        _check_rule("last_iteration_rule", last_iteration_rule)
        if max_iterations is None:
            raise ValueError("last_iteration_rule needs max_iterations")
    # T_1 and the paths allocate containers at a rate that makes the cyclic
    # GC's generation scans a third of a large peeling (K1's 3-tree at
    # n = 10^5), and none of them hold cycles; pause collection for the
    # run, as gather_balls does.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return _peel(graph, internal_rule, max_iterations, last_iteration_rule)
    finally:
        if was_enabled:
            gc.enable()


def _peel(
    graph: Graph,
    internal_rule: InternalRule,
    max_iterations: Optional[int],
    last_iteration_rule: Optional[InternalRule],
) -> Peeling:
    forest = build_clique_forest(graph)
    cliques = forest.cliques()
    position = {c: i for i, c in enumerate(cliques)}
    adj = [[position[d] for d in forest.neighbors(c)] for c in cliques]
    degree = [len(nbrs) for nbrs in adj]
    alive = [True] * len(cliques)
    alive_cliques = Counter(chain.from_iterable(cliques))
    all_nodes = set(graph.vertices())

    def alive_neighbors(c: Clique) -> Set[Clique]:
        return {cliques[j] for j in adj[position[c]] if alive[j]}

    layers: List[List[PeeledPath]] = []
    layer_of: Dict[Vertex, int] = {}
    remaining = len(cliques)
    iteration = 0
    while remaining:
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            return Peeling(layers, layer_of, exhausted=False, _all_nodes=all_nodes)
        rule = internal_rule
        if last_iteration_rule is not None and iteration == max_iterations:
            rule = last_iteration_rule

        paths = [
            orient_binary_path(alive_neighbors, {cliques[i] for i in comp})
            for comp in _binary_components(adj, degree, alive)
        ]
        paths.sort(key=lambda p: position[p.cliques[0]])
        peeled_here: List[PeeledPath] = []
        for path in paths:
            if not (path.is_pendant or rule(path)):
                continue
            on_path = Counter(chain.from_iterable(path.cliques))
            nodes = frozenset(v for v, k in on_path.items() if k == alive_cliques[v])
            peeled_here.append(PeeledPath(layer=iteration, path=path, nodes=nodes))
        if not peeled_here:
            raise AssertionError(
                "peeling stalled: a nonempty forest always has pendant paths"
            )
        removed = [position[c] for peeled in peeled_here for c in peeled.cliques]
        for peeled in peeled_here:
            for v in peeled.nodes:
                layer_of[v] = iteration
        layers.append(peeled_here)
        for i in removed:
            alive[i] = False
        for i in removed:
            for j in adj[i]:
                if alive[j]:
                    degree[j] -= 1
            for v in cliques[i]:
                alive_cliques[v] -= 1
        remaining -= len(removed)

    return Peeling(layers, layer_of, exhausted=True, _all_nodes=all_nodes)


def _binary_components(
    adj: List[List[int]], degree: List[int], alive: List[bool]
) -> List[Set[int]]:
    """The maximal binary paths of the alive forest, as clique positions.

    These are the connected components of the alive cliques of alive
    degree <= 2; inside a forest each one is a path.
    """
    low = {i for i in range(len(adj)) if alive[i] and degree[i] <= 2}
    seen: Set[int] = set()
    comps = []
    for start in low:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j in low and j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        comps.append(comp)
    return comps
