"""Luby's randomized maximal independent set [27], on the message simulator.

The classic O(log n)-round algorithm the paper cites as the 30-year-old
baseline: in every phase each undecided node draws a random value and
joins the MIS when its value beats all undecided neighbors; neighbors of
joiners drop out.  Runs as a genuine :class:`NodeProgram`, so the round
and message statistics of :class:`SyncNetwork` apply.

Note the output is a *maximal* independent set -- on a path it converges
to ~2/3 of the maximum in expectation, which is exactly the gap the
paper's (1 + eps)-approximation algorithms close.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Set, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..localmodel.network import NodeContext, NodeProgram, SyncNetwork

__all__ = ["LubyMISProgram", "luby_mis"]


class LubyMISProgram(NodeProgram):
    """One node of Luby's algorithm.

    Message protocol per phase (two rounds):
      round A: broadcast ('value', x) with fresh random x;
      round B: broadcast ('in',) upon joining, ('out',) upon being
               dominated; silence means still undecided.

    Acts on silence: an undecided node whose neighbors all stayed quiet
    (nobody joined nearby) must still re-draw next phase, and an isolated
    vertex joins without ever receiving a message.
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex], rng: random.Random):
        super().__init__(node, neighbors)
        self.rng = rng
        self.undecided: Set[Vertex] = set(neighbors)
        self.state = "draw"
        self.value: Optional[float] = None

    def step(self, ctx: NodeContext) -> Mapping[Vertex, object]:
        # Absorb neighbor decisions first.
        joined_neighbor = False
        for u, message in ctx.inbox.items():
            if message == ("in",):
                joined_neighbor = True
                self.undecided.discard(u)
            elif message == ("out",):
                self.undecided.discard(u)

        if self.state == "announce":
            # We announced last round; now stop.
            self.done = True
            return {}
        if joined_neighbor:
            self.output = False
            self.state = "announce"
            return {u: ("out",) for u in self.undecided}

        if self.state == "draw":
            self.value = self.rng.random()
            self.state = "compare"
            return {u: ("value", self.value) for u in self.undecided}

        # state == "compare": all undecided neighbors sent values this round.
        values = {
            u: message[1]
            for u, message in ctx.inbox.items()
            if isinstance(message, tuple) and message[0] == "value"
        }
        if all(
            self.value < val or (self.value == val and self.node < u)
            for u, val in values.items()
        ):
            self.output = True
            self.state = "announce"
            return {u: ("in",) for u in self.undecided}
        self.state = "draw"
        return {}


def luby_mis(graph: Graph, seed: int = 0) -> Tuple[Set[Vertex], int]:
    """Run Luby's MIS; returns (independent set, communication rounds)."""
    master = random.Random(seed)
    seeds = {v: master.randrange(2**62) for v in graph.vertices()}
    net = SyncNetwork(
        graph, lambda v, nbrs: LubyMISProgram(v, nbrs, random.Random(seeds[v]))
    )
    outputs = net.run(max_rounds=50 * (len(graph).bit_length() + 2) + 20)
    chosen = {v for v, joined in outputs.items() if joined}
    return chosen, net.stats.rounds
