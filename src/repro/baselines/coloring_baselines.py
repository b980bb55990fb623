"""Coloring baselines the paper's introduction positions itself against.

* :func:`sequential_greedy_coloring` -- the textbook sequential greedy
  ((Delta + 1)-coloring in arbitrary order); on chordal graphs with a bad
  order it can be far from chi, which is the gap Algorithm 1 closes.
* :class:`RandomizedColoringProgram` / :func:`distributed_delta_plus_one`
  -- the classic randomized distributed (Delta + 1)-coloring: every
  undecided node proposes a random color not used by decided neighbors
  and keeps it if no undecided neighbor proposed the same; O(log n)
  rounds with high probability.  Note the palette is Delta + 1, not
  (1 + eps) chi: on chordal graphs Delta can exceed chi by an
  Omega(n) factor (stars), which is the point of comparison.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graphs.adjacency import Graph, Vertex
from ..localmodel.network import NodeContext, NodeProgram, SyncNetwork

Color = int

__all__ = [
    "sequential_greedy_coloring",
    "RandomizedColoringProgram",
    "distributed_delta_plus_one",
]


def sequential_greedy_coloring(
    graph: Graph, order: Optional[Sequence[Vertex]] = None
) -> Dict[Vertex, Color]:
    """Greedy smallest-available coloring along ``order`` (default: by id).

    Uses at most Delta + 1 colors; the order determines how far above chi
    it lands.
    """
    coloring: Dict[Vertex, Color] = {}
    for v in order if order is not None else graph.vertices():
        used = {coloring[u] for u in graph.neighbors_view(v) if u in coloring}
        c = 1
        while c in used:
            c += 1
        coloring[v] = c
    return coloring


class RandomizedColoringProgram(NodeProgram):
    """Randomized (Delta + 1)-coloring, one node.

    Protocol per phase (two rounds): broadcast ('try', c) with a random
    candidate from the free palette; if no conflicting proposal arrives
    and no decided neighbor owns c, broadcast ('final', c) and stop.

    Acts on silence: an undecided node must re-propose each phase even
    when every neighbor already finished (their 'final' messages were in
    earlier rounds), and an isolated vertex colors itself unprompted.
    """

    always_active = True

    def __init__(
        self, node: Vertex, neighbors: List[Vertex], palette_size: int, rng: random.Random
    ):
        super().__init__(node, neighbors)
        self.palette_size = palette_size
        self.rng = rng
        self.taken: Dict[Vertex, Color] = {}
        self.proposal: Optional[Color] = None
        self.state = "propose"

    def step(self, ctx: NodeContext) -> Mapping[Vertex, object]:
        proposals: Dict[Vertex, Color] = {}
        for u, message in ctx.inbox.items():
            kind, color = message
            if kind == "final":
                self.taken[u] = color
            else:
                proposals[u] = color

        if self.state == "announce":
            self.done = True
            return {}
        if self.state == "check":
            conflict = any(c == self.proposal for c in proposals.values())
            owned = self.proposal in self.taken.values()
            if not conflict and not owned:
                self.output = self.proposal
                self.state = "announce"
                return self.broadcast(("final", self.proposal))
            self.state = "propose"

        free = [
            c for c in range(1, self.palette_size + 1) if c not in self.taken.values()
        ]
        self.proposal = self.rng.choice(free)
        self.state = "check"
        return self.broadcast(("try", self.proposal))


def distributed_delta_plus_one(
    graph: Graph, seed: int = 0
) -> Tuple[Dict[Vertex, Color], int]:
    """Randomized distributed (Delta + 1)-coloring; returns (coloring, rounds)."""
    palette_size = graph.max_degree() + 1
    master = random.Random(seed)
    seeds = {v: master.randrange(2**62) for v in graph.vertices()}
    net = SyncNetwork(
        graph,
        lambda v, nbrs: RandomizedColoringProgram(
            v, nbrs, palette_size, random.Random(seeds[v])
        ),
    )
    outputs = net.run(max_rounds=80 * (len(graph).bit_length() + 2) + 30)
    return outputs, net.stats.rounds
