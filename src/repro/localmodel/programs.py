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

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..graphs.index import GraphIndex
from .executor import BatchExecutor, BatchKernel, KernelIneligible
from .network import NodeContext, NodeProgram, SyncNetwork

__all__ = [
    "BFSLayerProgram",
    "BFSLayerKernel",
    "LeaderElectionProgram",
    "EchoCountProgram",
    "bfs_layers",
    "elect_leader",
    "tree_count",
]


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


class BFSLayerKernel(BatchKernel):
    """Whole-round compilation of :class:`BFSLayerProgram`.

    The per-node program is BFS flooding in disguise, so the compiled
    form is literal BFS: :meth:`GraphIndex.bfs_frontiers` computes every
    layer up front, and each :meth:`round` merely charges the messages
    the per-node path would exchange -- a node at distance ``d``
    announces exactly once, in round ``d``, at a cost of its degree,
    provided ``d <= budget - 1`` (in round ``d >= budget`` the
    countdown fires before the announcement).  A node's distance becomes
    known in the round it merges an announcement, so the final output is
    ``d`` when ``d <= budget`` and ``None`` beyond (or unreached).

    Multi-source instances (several programs constructed with
    ``distance == 0``) compile fine -- the frontier helper takes a source
    *set* -- but any program already mid-run raises
    :class:`KernelIneligible`.
    """

    def __init__(self, net: SyncNetwork, index: GraphIndex):
        """Validate homogeneity, then run the BFS once."""
        super().__init__(net, index)
        programs = list(net.programs.values())
        budget = programs[0].budget
        vid = index.vid
        sources: List[int] = []
        self._programs: Dict[int, BFSLayerProgram] = {}
        if budget < 0:
            # the per-node countdown still steps one round before firing;
            # the compiled form has no such round, so decline
            raise KernelIneligible("negative budget requires the per-node path")
        for p in programs:
            if p.budget != budget:
                raise KernelIneligible(
                    "BFSLayerProgram instances disagree on budget"
                )
            if p.done or p.announced or p.distance not in (0, None):
                raise KernelIneligible("a program instance is already mid-run")
            i = vid[p.node]
            self._programs[i] = p
            if p.distance == 0:
                sources.append(i)
        self.budget = budget
        #: layers[d] = sorted ids at distance d, up to the budget cutoff
        self._layers = index.bfs_frontiers(sources, cutoff=budget)
        self._round_no = 0

    @property
    def done(self) -> bool:
        """All programs terminate together, right after round ``budget``."""
        return self._round_no > self.budget

    def round(self) -> Tuple[int, int]:
        """Charge the round's announcements: degree sum over one layer."""
        t = self._round_no
        self._round_no = t + 1
        if t > self.budget - 1 or t >= len(self._layers):
            return 0, 0
        degrees = self.index.degrees
        sent = sum(degrees[i] for i in self._layers[t])
        return sent, sent

    def finalize(self) -> None:
        """Write distances (and the announced flags) the flood would leave."""
        announce_cap = self.budget - 1
        dist: Dict[int, int] = {}
        for d, layer in enumerate(self._layers):
            for i in layer:
                dist[i] = d
        for i, p in self._programs.items():
            d = dist.get(i)
            p.done = True
            p.distance = d
            p.output = d
            p.announced = d is not None and d <= announce_cap


BFSLayerProgram.batch_kernel = BFSLayerKernel


def bfs_layers(
    graph: Graph,
    root: Vertex,
    budget: Optional[int] = None,
    sealed: bool = False,
) -> Dict[Vertex, Optional[int]]:
    """Distances from ``root`` computed by message passing.

    The run compiles to :class:`BFSLayerKernel` unless ``sealed`` asks
    for per-node dispatch; outputs and round/message accounting are
    identical on both paths.
    """
    budget = budget if budget is not None else len(graph) + 1
    net = BatchExecutor(
        graph,
        lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget),
        sealed=sealed,
    )
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


def elect_leader(
    graph: Graph,
    budget: Optional[int] = None,
    sealed: bool = False,
) -> Dict[Vertex, Vertex]:
    """Every node's view of the leader after ``budget`` rounds."""
    budget = budget if budget is not None else len(graph) + 1
    net = SyncNetwork(
        graph,
        lambda v, nbrs: LeaderElectionProgram(v, nbrs, budget),
        sealed=sealed,
    )
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


def tree_count(tree: Graph, root: Vertex, sealed: bool = False) -> int:
    """The number of tree nodes, learned by the root via convergecast."""
    if len(tree) == 1:
        return 1
    net = SyncNetwork(
        tree,
        lambda v, nbrs: EchoCountProgram(v, nbrs, root),
        sealed=sealed,
    )
    outputs = net.run(max_rounds=4 * len(tree) + 8)
    return outputs[root]
