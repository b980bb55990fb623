"""Stock message-passing programs for the synchronous simulator.

Small self-contained :class:`NodeProgram` implementations that exercise
the engine and serve as building blocks:

* :class:`BFSLayerProgram` -- distance from a root via flooding (the
  textbook BFS tree; distance output doubles as a termination witness);
* :class:`LeaderElectionProgram` -- minimum-ID leader election by
  flooding, terminating after a given round budget (diameter bound);
* :class:`EchoCountProgram` -- convergecast on a rooted tree: the root
  learns the number of nodes (the "echo" half of propagation of
  information with feedback).

These run on arbitrary graphs and are used in tests both for their own
behavior and as evidence the engine delivers/synchronizes correctly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..graphs.adjacency import Graph, Vertex
from .network import NodeContext, NodeProgram, SyncNetwork

__all__ = [
    "BFSLayerProgram",
    "LeaderElectionProgram",
    "EchoCountProgram",
    "bfs_layers",
    "elect_leader",
    "tree_count",
]


def _check_root(graph: Graph, root: Vertex) -> None:
    """Raise ``ValueError`` naming ``root`` unless it is a vertex of ``graph``."""
    if root not in graph:
        raise ValueError(f"root {root!r} is not a vertex of the graph")


def _round_budget(graph: Graph, budget: Optional[int]) -> int:
    """``budget``, or enough rounds to cross ``graph`` when it is ``None``.

    ``TypeError`` when it is not an int (a bool is not), ``ValueError``
    when it is negative.
    """
    if budget is None:
        return len(graph) + 1
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise TypeError(f"budget must be an int, got {type(budget).__name__}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return budget


class BFSLayerProgram(NodeProgram):
    """Distance-from-root by flooding; output = the distance (or None).

    Acts on silence: termination is a round-count check, so the node must
    be stepped even in rounds where nothing arrives.
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex], root: Vertex, budget: int):
        """Flood distances from ``root``; give up after ``budget`` rounds."""
        super().__init__(node, neighbors)
        self.distance: Optional[int] = 0 if node == root else None
        self.budget = budget
        self.announced = False

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """Adopt the smallest announced distance + 1; flood improvements."""
        for _, dist in ctx.inbox.items():
            candidate = dist + 1
            if self.distance is None or candidate < self.distance:
                self.distance = candidate
        if ctx.round_number >= self.budget:
            self.done = True
            self.output = self.distance
            return {}
        if self.distance is not None and not self.announced:
            self.announced = True
            return self.broadcast(self.distance)
        return {}


def bfs_layers(
    graph: Graph,
    root: Vertex,
    budget: Optional[int] = None,
) -> Dict[Vertex, Optional[int]]:
    """Distances from ``root`` computed by message passing.

    Every node runs :class:`BFSLayerProgram` for ``budget`` rounds
    (default: enough to reach the whole graph); a node farther than
    ``budget`` from ``root``, or in another component, gets ``None``.
    Raises ``ValueError`` when ``root`` is not a vertex or ``budget`` is
    negative, and ``TypeError`` when ``budget`` is not an int.
    """
    _check_root(graph, root)
    budget = _round_budget(graph, budget)
    net = SyncNetwork(graph, lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget))
    return net.run(max_rounds=budget + 2)


class LeaderElectionProgram(NodeProgram):
    """Minimum-ID flooding election; output = the elected leader's ID.

    Acts on silence: the diameter-budget countdown runs whether or not a
    better candidate arrives.
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex], budget: int):
        """Start with self as candidate; decide after ``budget`` rounds."""
        super().__init__(node, neighbors)
        self.best = node
        self.budget = budget

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """Adopt and re-flood any smaller candidate ID seen this round."""
        improved = False
        for candidate in ctx.inbox.values():
            if candidate < self.best:
                self.best = candidate
                improved = True
        if ctx.round_number >= self.budget:
            self.done = True
            self.output = self.best
            return {}
        if ctx.round_number == 0 or improved:
            return self.broadcast(self.best)
        return {}


def elect_leader(graph: Graph, budget: Optional[int] = None) -> Dict[Vertex, Vertex]:
    """Every node's view of the leader after ``budget`` rounds.

    ``budget`` defaults to enough rounds to cross the graph; it raises
    ``TypeError`` when not an int and ``ValueError`` when negative, as in
    :func:`bfs_layers`.
    """
    budget = _round_budget(graph, budget)
    net = SyncNetwork(graph, lambda v, nbrs: LeaderElectionProgram(v, nbrs, budget))
    return net.run(max_rounds=budget + 2)


class EchoCountProgram(NodeProgram):
    """Convergecast subtree sizes toward a root of a tree.

    Leaves report 1; internal nodes wait for all children then report
    1 + sum.  The root's output is n; other nodes output their subtree
    size.  Requires the communication graph to be a tree.

    Purely event-driven: after the round-0 step a node changes state only
    upon receiving a child's report, so the active-set scheduler may
    legitimately skip it while its subtree is still counting -- the
    declaration below asserts exactly that.
    """

    always_active = False

    def __init__(self, node: Vertex, neighbors: List[Vertex], root: Vertex):
        """Convergecast subtree sizes toward ``root`` (graph must be a tree)."""
        super().__init__(node, neighbors)
        self.root = root
        self.reported: Dict[Vertex, int] = {}
        self.sent = False

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """Leaves report 1; internal nodes sum children, then report up."""
        self.reported.update(ctx.inbox)
        pending = [u for u in self.neighbors if u not in self.reported]
        subtree = 1 + sum(self.reported.values())
        if self.node == self.root:
            if not pending:
                self.done = True
                self.output = subtree
            return {}
        if len(pending) == 1 and not self.sent:
            # every child reported; the remaining neighbor is the parent,
            # and sending upward completes this node's role
            self.sent = True
            self.done = True
            self.output = subtree
            return {pending[0]: subtree}
        return {}


def tree_count(tree: Graph, root: Vertex) -> int:
    """The number of tree nodes, learned by the root via convergecast.

    Raises ``ValueError`` when ``root`` is not a vertex of ``tree``.
    """
    _check_root(tree, root)
    if len(tree) == 1:
        return 1
    net = SyncNetwork(tree, lambda v, nbrs: EchoCountProgram(v, nbrs, root))
    outputs = net.run(max_rounds=4 * len(tree) + 8)
    return outputs[root]
