"""Deliberately bandwidth-violating node programs -- the L7-L9 crash dummies.

Companion to ``cheating_programs.py`` (which covers L1-L6): every class
here violates exactly one of the bandwidth rules, and -- unlike the L1-L6
cheaters -- every class here *runs correctly*, because the dynamic half
of the bandwidth pass (:class:`~repro.localmodel.meter.MessageMeter`,
:func:`~repro.localmodel.shadow.shadow_check`) must be able to execute
them and observe the violation at runtime:

* :class:`EndlessFloodProgram` -- L7: re-broadcasts an ever-growing rumor
  map every round, terminating on *content* (no new rumors) rather than
  a round horizon, so the static pass cannot bound the payload;
* :class:`LeakyGatherProgram` -- L8: declares ``radius`` but keeps
  flooding its accumulated ball until ``self.budget`` (= 2 * radius),
  shipping state older than the declared radius;
* :class:`GossipOrderProgram` -- L9: relays whichever message happens to
  iterate first out of its inbox, so its transcript and outputs diverge
  under permuted inbox order (the planted fixture the shadow checker
  must find).

Keep this file OUT of ``src/``: the package-wide lint run must stay
clean.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.graphs.adjacency import Vertex
from repro.localmodel.network import NodeContext, NodeProgram


class EndlessFloodProgram(NodeProgram):
    """L7: unbounded payload growth -- a content-terminated rumor flood.

    Every round each node merges all received rumor maps into its own and
    re-broadcasts the whole map.  It stops when a round taught it nothing
    new -- a perfectly reasonable convergence test that nevertheless gives
    the static pass no round horizon, so the per-round payload is
    unbounded in the program text (and really does grow with n at
    runtime, which the meter cross-check asserts).
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex]):
        super().__init__(node, neighbors)
        self.known = {node: 0}

    def step(self, ctx: NodeContext) -> Mapping[Vertex, object]:
        before = len(self.known)
        for rumor in ctx.inbox.values():
            self.known.update(rumor)
        if ctx.round_number > 0 and len(self.known) == before:
            self.done = True
            self.output = len(self.known)
            return {}
        return self.broadcast(dict(self.known))


class LeakyGatherProgram(NodeProgram):
    """L8: ball-radius leak -- declares ``radius`` but floods past it.

    The round horizon exists (``self.budget``), so the payload is a ball
    -- but of radius ``2 * radius``, not the declared one.  Downstream
    round accounting keyed to ``radius`` would under-charge this program
    by half its actual gathering depth.
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex], radius: int = 2):
        super().__init__(node, neighbors)
        self.radius = radius
        self.budget = 2 * radius
        self.states = {node: tuple(neighbors)}

    def step(self, ctx: NodeContext) -> Mapping[Vertex, object]:
        for ball in ctx.inbox.values():
            self.states.update(ball)
        if ctx.round_number >= self.budget:
            self.done = True
            self.output = sorted(self.states)
            return {}
        return self.broadcast(dict(self.states))


class GossipOrderProgram(NodeProgram):
    """L9: schedule dependence -- relays the first-iterated inbox entry.

    Round 0 announces the node id; round 1 relays whichever announcement
    ``next(iter(...))`` happens to yield, which is the inbox insertion
    order -- a property the LOCAL model never promises.  On any graph
    with a degree->=2 vertex both the round-1 transcript and the final
    outputs change when the inbox is permuted, which is exactly what
    :func:`~repro.localmodel.shadow.shadow_check` must detect.
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex]):
        super().__init__(node, neighbors)
        self.first_heard = None

    def step(self, ctx: NodeContext) -> Mapping[Vertex, object]:
        if ctx.round_number == 0:
            return self.broadcast(("hello", self.node))
        if ctx.round_number == 1:
            if ctx.inbox:
                self.first_heard = next(iter(ctx.inbox.values()))
            return self.broadcast(("relay", self.first_heard))
        self.done = True
        self.output = self.first_heard
        return {}
