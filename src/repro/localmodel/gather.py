"""Ball gathering: the fundamental LOCAL-model primitive.

In the LOCAL model with unbounded message sizes, ``r`` communication rounds
are exactly equivalent to every node learning its radius-``r`` ball -- the
induced topology plus all initial states within distance ``r``.  The paper
leans on this equivalence everywhere ("collect Gamma^{10k}(v)" in
Algorithm 3, "nodes can check locally whether ..." in Section 6.2).

Two node programs realize the primitive on
:class:`~repro.localmodel.network.SyncNetwork`:

* :class:`BallGatherProgram` is the faithful *full flood*: every round
  each node re-broadcasts everything it has learned so far.  Simple, but
  the volume is Theta(r * sum-of-ball-sizes-squared) facts -- the reason
  the message-level experiments were historically pinned at small n.
* :class:`DeltaGatherProgram` is the *output-sensitive* rewrite whose
  schedule :func:`gather_balls` replays: each node forwards only facts
  (states, edges) first learned in the previous round, excluding per
  neighbor whatever that neighbor itself delivered, so no fact ever
  crosses the same edge twice in the same direction.  Total volume is
  O(sum over edges of the facts that actually cross them), and payloads
  intern vertex labels to the dense integer ids of
  :class:`~repro.graphs.index.GraphIndex` so the hot path hashes ints,
  not arbitrary labels.

Equivalence argument (tested exhaustively in
``tests/localmodel/test_gather_delta.py``): a fact first learned by a node
in round ``t`` is forwarded in round ``t + 1`` to every neighbor not
already known to hold it, so each fact spreads along exactly the BFS
frontier of its origin -- the same frontier the full flood drives.  The
per-neighbor exclusion only suppresses transmissions whose receiver
provably already holds the fact (it delivered the fact to us in the same
round we learned it), which are no-op merges at the receiver.
Termination is the same ``round_number >= radius`` countdown in both
programs, so outputs *and* round counts are identical.

:func:`gather_balls` packages a full run as one
:class:`DeltaGatherKernel`, which replays the delta program's schedule
on vertex ids alone, straight from the graph index, and builds each
ball's edge set only when it is first read; balls, rounds and stats are
the same as a :class:`~repro.localmodel.network.SyncNetwork` of
:class:`DeltaGatherProgram` nodes produces.  A run that must be sealed,
traced or given a fault plan builds that network itself.  The
equivalence tests check the kernel's output against direct BFS, which is
what entitles the layered algorithms to use the cheaper accounting of
:mod:`repro.localmodel.rounds`.  A full-flood gather,
``reference_gather`` in ``tests/oracles.py``, is the oracle of the
equivalence tests and the flood side of ``benchmarks/bench_network.py``.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..graphs.adjacency import Graph, Vertex
from ..graphs.index import GraphIndex, graph_index
from .network import NodeContext, NodeProgram, RunStats

__all__ = [
    "KnownBall",
    "BallGatherProgram",
    "DeltaGatherProgram",
    "DeltaGatherKernel",
    "gather_balls",
]


def _consume(iterator: Iterable[Any]) -> None:
    """Run ``iterator`` to its end for its side effects."""
    deque(iterator, maxlen=0)


@dataclass
class KnownBall:
    """What a node knows after gathering: topology + states within radius.

    After an ``r``-round gather the center knows the state of every
    vertex in ``Gamma^r[v]`` (:attr:`states`) and every edge with at
    least one endpoint in ``Gamma^r[v]`` (:attr:`edges`) -- including a
    fringe of edges leading to vertices at distance ``r + 1``, whose IDs
    are visible but whose states are not.

    A ball written by :class:`DeltaGatherKernel` holds its vertex ids in
    place of :attr:`edges` and builds the edge set from the graph index
    when it is first read, so a run whose caller reads few balls' edges
    never builds the rest.  Equality, ``repr`` and every field read see
    the same ball either way.
    """

    center: Vertex
    radius: int
    #: vertex -> its initial state; the keys are exactly Gamma^r[center]
    states: Dict[Vertex, Any]
    #: every known edge (each a sorted tuple): at least one endpoint in
    #: Gamma^r[center], fringe edges to distance r + 1 included
    edges: Set[Tuple[Vertex, Vertex]]

    def __getattr__(self, name: str) -> Any:
        # reached only for a missing attribute: a kernel-written ball lacks
        # ``edges`` until this first read builds them
        if name != "edges" or "_edge_source" not in self.__dict__:
            raise AttributeError(f"'KnownBall' object has no attribute {name!r}")
        index, ids = self.__dict__.pop("_edge_source")
        indptr, indices, labels = index.indptr, index.indices, index.edge_labels
        self.edges = {
            labels[(i, j) if i < j else (j, i)]
            for i in ids
            for j in indices[indptr[i]:indptr[i + 1]]
        }
        return self.edges

    def as_graph(self) -> Graph:
        """The known ball as a graph: exactly ``G[Gamma^r[center]]``.

        Gathering also reveals a fringe of edges toward vertices just
        outside the ball (their IDs are visible but not their states);
        those are kept in :attr:`edges` but excluded here, so the result
        is precisely the subgraph induced by the known vertices.

        A kernel-written ball whose :attr:`edges` were never read
        intersects the index rows of its own ids with the ball instead,
        so neither its fringe nor any label edge set is built, and
        :attr:`edges` stays unbuilt until something reads it.
        """
        source = self.__dict__.get("_edge_source")
        if source is not None:
            index, ids = source
            verts, indptr, indices = index.verts, index.indptr, index.indices
            inside = set(ids)
            return Graph._from_adjacency({
                verts[i]: {
                    verts[j] for j in indices[indptr[i]:indptr[i + 1]] if j in inside
                }
                for i in ids
            })
        adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in self.states}
        for u, v in self.edges:
            if u in adj and v in adj:
                adj[u].add(v)
                adj[v].add(u)
        return Graph._from_adjacency(adj)


class BallGatherProgram(NodeProgram):
    """Flood local knowledge for ``radius`` rounds (the full-flood reference).

    Initial knowledge: own state and own incident edges (a node knows its
    neighbors' IDs in the LOCAL model).  Every round, send all accumulated
    knowledge to all neighbors.  After r rounds the node knows the states
    of Gamma^r[v] and every edge with at least one endpoint in
    Gamma^r[v] -- in particular the full induced subgraph on Gamma^r[v]
    plus its fringe edges, exactly what the local-view construction of
    Section 3 consumes.

    Acts on silence: termination is the ``round_number >= radius`` check,
    which must fire even for an isolated vertex that never receives.
    """

    always_active = True

    def __init__(self, node: Vertex, neighbors: List[Vertex], radius: int, state: Any):
        """Gather to ``radius``; ``state`` is this node's own contribution."""
        super().__init__(node, neighbors)
        self.radius = radius
        self._states: Dict[Vertex, Any] = {node: state}
        self._edges: Set[Tuple[Vertex, Vertex]] = {
            tuple(sorted((node, u))) for u in neighbors
        }

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """Merge received (states, edges), flood the union, stop at ``radius``."""
        for payload in ctx.inbox.values():
            states, edges = payload
            self._states.update(states)
            self._edges.update(edges)
        if ctx.round_number >= self.radius:
            self.done = True
            self.output = KnownBall(
                center=self.node,
                radius=self.radius,
                states=dict(self._states),
                edges=set(self._edges),
            )
            return {}
        return self.broadcast((dict(self._states), set(self._edges)))


class DeltaGatherProgram(NodeProgram):
    """Output-sensitive ball gathering: forward only freshly learned facts.

    Same knowledge contract and round count as :class:`BallGatherProgram`
    (see the module docstring for the equivalence argument), but each
    round a node sends only the facts it first learned in that round's
    merge, minus -- per neighbor -- the facts that neighbor itself
    delivered this round (the only part of the fresh set a neighbor can
    already hold).  A fact therefore crosses each edge at most once per
    direction, making total message volume output-sensitive instead of
    Theta(r * sum |ball|^2).

    Payloads speak :class:`~repro.graphs.index.GraphIndex` integer ids
    rather than vertex labels; ids are order-isomorphic to the label
    order, so the final translation back to labels reproduces the
    reference's sorted edge tuples exactly.

    Acts on silence: termination is the ``round_number >= radius`` check,
    which must fire even for an isolated vertex that never receives.
    """

    always_active = True

    def __init__(
        self,
        node: Vertex,
        neighbors: List[Vertex],
        radius: int,
        state: Any,
        index: GraphIndex,
    ):
        """Gather to ``radius``; ``index`` interns labels to dense ints.

        The shared snapshot is used purely as a naming palette (label <->
        id bijection); the program reads no topology from it beyond what
        the LOCAL model already grants a node (its own neighbor list).
        """
        super().__init__(node, neighbors)
        self.radius = radius
        self._index = index
        me = index.vid[node]
        self._me = me
        self._nbrs: List[Tuple[int, Vertex]] = [(index.vid[u], u) for u in neighbors]
        self._uid_of: Dict[Vertex, int] = {u: uid for uid, u in self._nbrs}
        self._states: Dict[int, Any] = {me: state}
        self._edges: Set[Tuple[int, int]] = set()
        for uid, _u in self._nbrs:
            self._edges.add((me, uid) if me < uid else (uid, me))

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """Merge deltas, forward what is new, stop at ``radius``.

        The per-neighbor filter collapses to one bulk difference because
        a fact is fresh for exactly one round: of this round's fresh set,
        the facts neighbor ``u`` already holds are precisely the facts
        ``u`` delivered to us this round (anything we exchanged with
        ``u`` earlier was fresh then, hence knowledge -- not fresh --
        now).  So the payload for ``u`` is ``fresh - received_from_u``,
        computed with C-speed set algebra on the raw inbox payloads; no
        per-fact Python loops survive on the hot path.
        """
        states = self._states
        edges = self._edges
        fresh_states: Dict[int, Any] = {}
        fresh_edges: Set[Tuple[int, int]] = set()
        #: sender uid -> its raw (states, edges) payload this round
        got: Dict[int, Tuple[Any, Any]] = {}
        round0 = ctx.round_number == 0
        if round0:
            # initial knowledge is this round's delta: own state, own edges
            fresh_states.update(states)
            fresh_edges.update(edges)
        for sender, payload in ctx.inbox.items():
            d_states, d_edges = payload
            # bulk set algebra: the fresh part is payload minus knowledge
            for vid in d_states.keys() - states.keys():
                st = d_states[vid]
                states[vid] = st
                fresh_states[vid] = st
            ce = d_edges - edges
            if ce:
                edges.update(ce)
                fresh_edges.update(ce)
            got[self._uid_of[sender]] = (d_states, d_edges)
        if ctx.round_number >= self.radius:
            self.done = True
            verts = self._index.verts
            edge_labels = self._index.edge_labels
            self.output = KnownBall(
                center=self.node,
                radius=self.radius,
                states={verts[vid]: states[vid] for vid in sorted(states)},
                edges={edge_labels[e] for e in edges},
            )
            return {}
        if not fresh_states and not fresh_edges:
            return {}
        full = (fresh_states, fresh_edges)
        outbox: Dict[Vertex, Any] = {}
        me = self._me
        for uid, u in self._nbrs:
            held = got.get(uid)
            if held is None:
                if round0:
                    # the shared edge is mutual knowledge from round 0
                    # (the neighbor sees my ID); my own state is not
                    shared = (me, uid) if me < uid else (uid, me)
                    outbox[u] = (dict(fresh_states), fresh_edges - {shared})
                else:
                    # nothing to subtract: share one payload object so
                    # sealed mode freezes it once per outbox
                    outbox[u] = full
                continue
            d_states, d_edges = held
            out_states = {
                vid: fresh_states[vid]
                for vid in fresh_states.keys() - d_states.keys()
            }
            # copy-then-subtract: a set copy is near-memcpy, so this is
            # O(|delivered|) probes instead of O(|fresh|) rebuild
            out_edges = set(fresh_edges)
            out_edges.difference_update(d_edges)
            if out_states or out_edges:
                outbox[u] = (out_states, out_edges)
        return outbox


class DeltaGatherKernel:
    """Whole-round form of :class:`DeltaGatherProgram` on vertex facts.

    Built from the graph index, the radius and the initial states alone:
    no program or network exists on this path.  One :meth:`round` call
    performs the merge that ``n`` ``step`` calls would, but it tracks
    vertex ids only.  ``F_i(t)`` is what node ``i`` first learned in
    round ``t`` (``F_i(0) = {i}``) and ``K_i`` everything it knows; in
    round ``t >= 1``, ``F_i(t) = (union of F_u(t - 1) over neighbours u)
    - K_i``, and ``K_i`` grows by ``F_i(t)``.  Node ``i`` sends to
    neighbour ``u`` in rounds ``1 .. radius - 1`` exactly when ``F_i(t)``
    is non-empty and not a subset of ``F_u(t - 1)``; round 0 sends on all
    ``2m`` directed edges (every first payload holds its sender's state),
    and round ``radius`` only merges.  This reproduces the program's
    per-round ``(sent, delivered)`` counts, so
    :class:`~repro.localmodel.network.RunStats` matches the per-node path
    field for field, for three reasons:

    * ``F_i(t)`` is the distance-``t`` sphere ``S_t(i)``: the neighbours'
      last spheres reach exactly the ids at distance ``t`` that ``i``
      does not yet know;
    * an edge fact is fresh at a node exactly when the state of its
      nearer endpoint is, so a program's payload is non-empty exactly
      when it carries a state;
    * what ``u`` delivered to ``i`` in round ``t - 1`` covers
      ``S_t(i) & S_{t-1}(u)``, so the states left in ``i``'s payload to
      ``u`` are ``F_i(t) - F_u(t - 1)``.

    The union of the neighbours' spheres lies between distance ``t - 2``
    and ``t`` of ``i``, so subtracting ``F_i(t - 1)`` and ``F_i(t - 2)``
    subtracts ``K_i``; ``K_i`` is then a plain id list, and every step of
    a round is one bulk set or list operation per node.  Each sphere is
    a new set, ``union - F_i(t - 1) - F_i(t - 2)``, rather than the union
    with both removed in place: removal leaves dummy slots, and CPython
    resizes a set that is more than a quarter dummies to four times its
    size, so an in-place two-id path sphere held a 16-slot heap table
    (472 B) where a new one fits its 8-slot inline table (216 B), and
    three generations of spheres are alive at once.  Sends are counted
    only when :meth:`run` is given a ``RunStats``: the count is ``2m``
    subset tests a round, and no caller that passes none reads it.
    :meth:`run` frees the round state, then builds each ball's
    ``states`` at once and its ``edges`` only when first read (see
    :class:`KnownBall`).
    """

    def __init__(self, index: GraphIndex, radius: int, states: Mapping[Vertex, Any]):
        """Every node starts knowing its own id; ``radius`` must be >= 0."""
        n = index.n
        self.index = index
        self.radius = radius
        #: per-vid initial state value, read only when the balls are built
        self._values: List[Any] = [states.get(v) for v in index.verts]
        indptr, indices = index.indptr, index.indices
        rows = (indices[indptr[i]:indptr[i + 1]] for i in range(n))
        pad = (n, n)
        #: per vid, a getter for its neighbours' entries of a per-vid list,
        #: always as a tuple: a row shorter than two is padded with id n,
        #: whose sphere is always empty
        self._around: List[Callable[[List[Set[int]]], Any]] = [
            itemgetter(*row, *pad[len(row):]) for row in rows
        ]
        #: F(t - 1) and F(t - 2) per vid (F(-1) is empty), then the pad
        self._fresh: List[Set[int]] = [{i} for i in range(n)] + [set()]
        self._older: List[Set[int]] = [set()] * n
        #: K per vid: every id the node knows
        self._known: List[List[int]] = [[i] for i in range(n)]

    def round(self) -> bool:
        """Merge one synchronous round: grow every K by its next sphere.

        Returns False, and changes nothing, once every sphere is empty:
        the gather has gone quiet for good.
        """
        prev = self._fresh
        if not any(prev):
            return False
        union = set().union
        fresh = [
            union(*around(prev)) - last - older
            for around, last, older in zip(self._around, prev, self._older)
        ]
        _consume(map(list.extend, self._known, fresh))
        fresh.append(prev[-1])
        self._fresh, self._older = fresh, prev
        return True

    def _counted_rounds(self, stats: RunStats) -> None:
        """Run rounds ``0 .. radius``, folding each one's sends into ``stats``."""
        index = self.index
        radius = self.radius
        #: the sending end of each directed edge, aligned with ``indices``
        tails = [i for i, degree in enumerate(index.degrees) for _ in range(degree)]
        heads = index.indices
        sent = len(tails) if radius else 0
        stats.record_round(sent, sent)
        for t in range(1, radius + 1):
            sent = 0
            if self.round() and t < radius:
                fresh, prev = self._fresh, self._older
                quiet = sum(
                    map(
                        set.issubset,
                        map(fresh.__getitem__, tails),
                        map(prev.__getitem__, heads),
                    )
                )
                sent = len(tails) - quiet
            stats.record_round(sent, sent)

    def run(self, stats: Optional[RunStats] = None) -> Dict[Vertex, KnownBall]:
        """Run rounds ``0 .. radius``; return every ball.

        With ``stats``, each round's sends are folded into it; without,
        none are counted.  Balls are keyed in vertex order, like the
        per-node path's outputs.  An empty graph runs no round on either
        path.  The round state dies before the first ball is built, so
        the balls reuse its memory instead of adding to the peak;
        :meth:`round` cannot run after this.
        """
        index = self.index
        if index.n:
            if stats is None:
                for _ in range(self.radius):
                    self.round()
            else:
                self._counted_rounds(stats)
        del self._around, self._fresh, self._older
        verts = index.verts
        values = self._values
        radius = self.radius
        balls: Dict[Vertex, KnownBall] = {}
        for center, known in zip(verts, self._known):
            known.sort()
            ball = KnownBall.__new__(KnownBall)
            ball.__dict__.update(
                center=center,
                radius=radius,
                states={verts[i]: values[i] for i in known},
                _edge_source=(index, known),
            )
            balls[center] = ball
        return balls


def gather_balls(
    graph: Graph,
    radius: int,
    states: Optional[Dict[Vertex, Any]] = None,
    info: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[Vertex, KnownBall], int]:
    """Run delta gathering; returns per-node balls and rounds used.

    Outputs and round counts equal those of the full flood (the
    equivalence suite asserts the full matrix).  The run is one
    :class:`DeltaGatherKernel`, built without any program or network;
    its balls and :class:`~repro.localmodel.network.RunStats` equal
    those of a :class:`~repro.localmodel.network.SyncNetwork` of
    :class:`DeltaGatherProgram` nodes, which is what a sealed, traced or
    faulty gather builds itself.  A caller-supplied ``info`` dict
    receives ``executed`` (always ``"batch"``) and the run's ``stats``;
    sends are counted only then.  Without ``info`` the rounds are
    ``radius + 1`` (0 on an empty graph), which is what a counted run
    records.
    """
    if isinstance(radius, bool) or not isinstance(radius, int):
        raise TypeError(f"radius must be an int, got {type(radius).__name__}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    index = graph_index(graph)
    stats = RunStats()
    # Building balls allocates containers at a rate that makes the cyclic
    # GC's generation scans a measurable fraction of wall-clock, and none
    # of them hold cycles, so the scans never free anything; pause
    # collection for the run and let the deferred pass run once at the end.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        balls = DeltaGatherKernel(index, radius, states or {}).run(
            None if info is None else stats
        )
    finally:
        if was_enabled:
            gc.enable()
    if info is None:
        return balls, radius + 1 if index.n else 0
    info["executed"] = "batch"
    info["stats"] = stats
    return balls, stats.rounds
