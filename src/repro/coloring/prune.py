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

Each removed path is recorded as a :class:`PeeledPath`, carrying everything
the later phases need: the ordered cliques, the attachment cliques C_s/C_e
(Lemma 8's boundary cliques), the removed node set W_P, and the layer
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cliquetree.forest import CliqueForest, build_clique_forest
from ..cliquetree.paths import (
    ForestPath,
    maximal_binary_paths,
    nodes_with_subtree_in,
    path_diameter_at_least,
)
from ..graphs import kernels
from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import _not_chordal
from ..graphs.index import graph_index
from .decomposition import PathBags
from .parameters import _check_positive_int

__all__ = [
    "PeeledPath",
    "Peeling",
    "PeelingLayers",
    "peel_chordal_graph",
    "peeling_layers",
    "diameter_rule",
]

#: Decides whether a maximal *internal* path is peeled this iteration.
InternalRule = Callable[[Graph, ForestPath], bool]


def diameter_rule(threshold: int) -> InternalRule:
    """The coloring rule: internal paths of diameter >= threshold (3k).

    The returned rule decides the comparison without computing the exact
    diameter (:func:`~repro.cliquetree.paths.path_diameter_at_least`), and
    carries the threshold as a ``threshold`` attribute so layer-only
    callers can recognize it and take the :func:`peeling_layers` fast path.
    ``threshold`` must be an int >= 1 (``ValueError`` otherwise).
    """
    _check_positive_int("threshold", threshold)

    def rule(graph: Graph, path: ForestPath) -> bool:
        return path_diameter_at_least(graph, path.cliques, threshold)

    rule.threshold = threshold  # type: ignore[attr-defined]
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
    #: T_1, T_2, ...: forest before each iteration (T_{i+1} after removing
    #: layer i); kept for the structural tests of Lemmas 5 and 6.
    forests: List[CliqueForest]
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


@dataclass(frozen=True)
class PeelingLayers:
    """The layer map of the peeling process (kernel fast path).

    The lightweight answer to "which vertex lands in which layer": exactly
    what Lemma 6's round/locality accounting needs, without materializing
    per-path boundary cliques, forests, or induced subgraphs.  For every
    chordal graph and diameter threshold,
    ``peeling_layers(g, t).layers[i]`` equals
    ``sorted(peel_chordal_graph(g, diameter_rule(t)).nodes_of_layer(i + 1))``
    and the ``exhausted`` flags agree — pinned by the equivalence suite.
    """

    #: layer i (0-based here; the paper's V_{i+1}) as a sorted vertex list
    layers: Tuple[Tuple[Vertex, ...], ...]
    #: True when the peeling ran the forest to empty (see :class:`Peeling`)
    exhausted: bool

    def num_layers(self) -> int:
        return len(self.layers)

    def nodes_of_layer(self, i: int) -> Set[Vertex]:
        """All nodes of layer i (1-based, like the paper and :class:`Peeling`)."""
        return set(self.layers[i - 1])

    def layer_of(self) -> Dict[Vertex, int]:
        """vertex -> 1-based layer index, for every peeled vertex."""
        out: Dict[Vertex, int] = {}
        for i, layer in enumerate(self.layers, start=1):
            for v in layer:
                out[v] = i
        return out


def peeling_layers(
    graph: Graph,
    threshold: int,
    max_iterations: Optional[int] = None,
    last_threshold: Optional[int] = None,
) -> PeelingLayers:
    """Layer map of ``peel_chordal_graph(graph, diameter_rule(threshold))``.

    Runs entirely in the integer kernels
    (:func:`repro.graphs.kernels.peeling_layers`): the clique forest both
    peelings share, then per-iteration path decisions with early-exit
    diameter bounds, which beat the rich peeling at K1 sizes (measured in
    ``docs/kernels.md``).  When
    ``max_iterations`` is given the process stops after that many layers,
    optionally switching to ``last_threshold`` for the final iteration
    (the Algorithm 6 shape).  ``threshold``, ``max_iterations`` and
    ``last_threshold`` must be ints >= 1 (``ValueError`` otherwise).
    Raises :class:`~repro.graphs.chordal.NotChordalError` on non-chordal
    input.
    """
    _check_positive_int("threshold", threshold)
    if max_iterations is not None:
        _check_positive_int("max_iterations", max_iterations)
    if last_threshold is not None:
        _check_positive_int("last_threshold", last_threshold)
    index = graph_index(graph)
    order, bad = kernels.peo_and_violation(index)
    if bad is not None:
        raise _not_chordal(index.verts[bad])
    id_layers, exhausted = kernels.peeling_layers(
        index,
        threshold,
        max_iterations=max_iterations,
        last_threshold=last_threshold,
        order=order,
    )
    return PeelingLayers(
        layers=tuple(tuple(index.labels_of(layer)) for layer in id_layers),
        exhausted=exhausted,
    )


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
    ceil(log2 n) iterations.  ``max_iterations`` must be an int >= 1
    (``ValueError`` otherwise).
    """
    if max_iterations is not None:
        _check_positive_int("max_iterations", max_iterations)
    forest = build_clique_forest(graph)
    current = graph.copy()
    layers: List[List[PeeledPath]] = []
    layer_of: Dict[Vertex, int] = {}
    forests: List[CliqueForest] = [forest]

    iteration = 0
    while len(forest) > 0:
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            return Peeling(
                layers=layers,
                layer_of=layer_of,
                forests=forests,
                exhausted=False,
                _all_nodes=set(graph.vertices()),
            )
        rule = internal_rule
        if (
            last_iteration_rule is not None
            and max_iterations is not None
            and iteration == max_iterations
        ):
            rule = last_iteration_rule

        peeled_here: List[PeeledPath] = []
        removed_cliques: List[FrozenSet[Vertex]] = []
        removed_nodes: Set[Vertex] = set()
        for path in maximal_binary_paths(forest):
            if not (path.is_pendant or rule(current, path)):
                continue
            nodes = frozenset(nodes_with_subtree_in(forest, path.cliques))
            peeled_here.append(
                PeeledPath(layer=iteration, path=path, nodes=nodes)
            )
            removed_cliques.extend(path.cliques)
            removed_nodes |= nodes
        if not peeled_here:
            raise AssertionError(
                "peeling stalled: a nonempty forest always has pendant paths"
            )
        for peeled in peeled_here:
            for v in peeled.nodes:
                layer_of[v] = iteration
        layers.append(peeled_here)
        forest = forest.without_cliques(removed_cliques)
        current.remove_vertices(removed_nodes)
        forests.append(forest)

    return Peeling(
        layers=layers,
        layer_of=layer_of,
        forests=forests,
        exhausted=True,
        _all_nodes=set(graph.vertices()),
    )
