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
* :class:`DeltaGatherProgram` is the *output-sensitive* rewrite that
  :func:`gather_balls` runs: each node forwards only facts (states,
  edges) first learned in the previous round, excluding per neighbor
  whatever that neighbor itself delivered, so no fact ever crosses the
  same edge twice in the same direction.  Total volume is O(sum over
  edges of the facts that actually cross them), and payloads intern
  vertex labels to the dense integer ids of
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

:func:`gather_balls` packages a full run; the equivalence tests check its
output against direct BFS, which is what entitles the layered algorithms
to use the cheaper accounting of :mod:`repro.localmodel.rounds`.  A
full-flood gather, ``reference_gather`` in ``tests/oracles.py``, is the
oracle of the equivalence tests and the flood side of
``benchmarks/bench_network.py``.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..graphs.adjacency import Graph, Vertex
from ..graphs.index import GraphIndex, graph_index
from .executor import BatchExecutor, BatchKernel, KernelIneligible
from .network import NodeContext, NodeProgram, SyncNetwork, TraceSink

__all__ = [
    "KnownBall",
    "BallGatherProgram",
    "DeltaGatherProgram",
    "DeltaGatherKernel",
    "gather_balls",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .faults import FaultPlan


@dataclass
class KnownBall:
    """What a node knows after gathering: topology + states within radius.

    After an ``r``-round gather the center knows the state of every
    vertex in ``Gamma^r[v]`` (:attr:`states`) and every edge with at
    least one endpoint in ``Gamma^r[v]`` (:attr:`edges`) -- including a
    fringe of edges leading to vertices at distance ``r + 1``, whose IDs
    are visible but whose states are not.
    """

    center: Vertex
    radius: int
    #: vertex -> its initial state; the keys are exactly Gamma^r[center]
    states: Dict[Vertex, Any]
    #: every known edge (each a sorted tuple): at least one endpoint in
    #: Gamma^r[center], fringe edges to distance r + 1 included
    edges: Set[Tuple[Vertex, Vertex]]

    def as_graph(self) -> Graph:
        """The known ball as a graph: exactly ``G[Gamma^r[center]]``.

        Gathering also reveals a fringe of edges toward vertices just
        outside the ball (their IDs are visible but not their states);
        those are kept in :attr:`edges` but excluded here, so the result
        is precisely the subgraph induced by the known vertices.
        """
        inside = set(self.states)
        return Graph(
            vertices=inside,
            edges=[e for e in self.edges if e[0] in inside and e[1] in inside],
        )


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


class DeltaGatherKernel(BatchKernel):
    """Whole-round compilation of :class:`DeltaGatherProgram`.

    One :meth:`round` call performs what ``n`` ``step`` calls would:
    merge every node's inbox deltas, then emit next round's per-edge
    payloads -- the same set algebra, in the same id space, on the very
    ``_states``/``_edges`` dicts the program instances own (the kernel
    *is* their execution, so :meth:`finalize` reads the final knowledge
    straight back out of them).  What it skips is pure dispatch: the
    scheduler sort, context construction, ``has_edge`` validation, and
    inbox-dict churn of :meth:`SyncNetwork.step_round`.

    Counting is identical by construction: a "send" is one non-empty
    directed payload (round 0 always sends on every edge direction, like
    the program), deliveries equal sends and are counted in the sending
    round, and the final round merges without sending -- so
    :class:`~repro.localmodel.network.RunStats` matches the per-node
    path field for field.  Only nodes that actually received are
    visited after round 0, which is where saturated instances (delta
    gone quiet before ``radius``) win an extra factor.
    """

    def __init__(self, net: SyncNetwork, index: GraphIndex):
        """Validate homogeneity and compile knowledge into fact-id sets.

        The compiled representation is a single dense *fact-id* space:
        the state of vertex ``i`` is fact ``i``, and the ``k``-th edge of
        :attr:`GraphIndex.edge_labels` (id-sorted order) is fact
        ``n + k``.  A node's knowledge, a round's fresh set, and every
        payload are then plain ``set[int]`` objects and the whole step
        algebra (merge, delta, per-neighbor exclusion) collapses to bulk
        set operations; state *values* live in one per-vid list and are
        only consulted at :meth:`finalize`.
        """
        super().__init__(net, index)
        programs = list(net.programs.values())
        radius = programs[0].radius
        n = index.n
        edge_pairs = list(index.edge_labels)
        fid_of_edge: Dict[Tuple[int, int], int] = {
            e: n + k for k, e in enumerate(edge_pairs)
        }
        self._programs: List[DeltaGatherProgram] = [programs[0]] * n
        #: per-vid initial state value (the only non-int payload content)
        self._values: List[Any] = [None] * n
        #: per-vid accumulated knowledge as a fact-id set
        self._known: List[Set[int]] = [set()] * n
        if radius < 0:
            # the per-node countdown still steps one round before firing;
            # the compiled form has no such round, so decline
            raise KernelIneligible("negative radius requires the per-node path")
        for p in programs:
            if p.radius != radius:
                raise KernelIneligible(
                    "DeltaGatherProgram instances disagree on radius"
                )
            if p._index is not index:
                raise KernelIneligible(
                    "DeltaGatherProgram instances were built against a "
                    "different GraphIndex snapshot"
                )
            if p.done or len(p._states) != 1:
                raise KernelIneligible(
                    "a program instance has already accumulated knowledge"
                )
            i = p._me
            self._programs[i] = p
            self._values[i] = p._states[i]
            known = {i}
            for e in p._edges:
                known.add(fid_of_edge[e])
            self._known[i] = known
        self.radius = radius
        self._edge_pairs = edge_pairs
        self._fid_of_edge = fid_of_edge
        indptr, indices = index.indptr, index.indices
        self._nbrs: List[List[int]] = [
            indices[indptr[i]:indptr[i + 1]] for i in range(n)
        ]
        #: receiver id -> {sender id: fact-id payload}; doubles as the
        #: per-node "what did each neighbor deliver" exclusion map
        self._inbox: Dict[int, Dict[int, Set[int]]] = {}
        self._round_no = 0

    @property
    def done(self) -> bool:
        """All programs terminate together, right after round ``radius``."""
        return self._round_no > self.radius

    def round(self) -> Tuple[int, int]:
        """One whole synchronous round of delta forwarding."""
        t = self._round_no
        self._round_no = t + 1
        known_all = self._known
        nbrs = self._nbrs
        nxt: Dict[int, Dict[int, Set[int]]] = {}
        sent = 0
        if t == 0:
            if self.radius == 0:
                return 0, 0
            # Round 0: the fresh set is a node's initial knowledge (own
            # state + own edges); the shared edge is mutual knowledge,
            # everything else goes to every neighbor -- unconditionally,
            # exactly like the program's round-0 branch.
            fid_of_edge = self._fid_of_edge
            for i in range(len(nbrs)):
                known = known_all[i]
                for u in nbrs[i]:
                    shared = fid_of_edge[(i, u) if i < u else (u, i)]
                    inbox = nxt.get(u)
                    if inbox is None:
                        inbox = nxt[u] = {}
                    inbox[i] = known - {shared}
                    sent += 1
            self._inbox = nxt
            return sent, sent
        last = t >= self.radius
        for i, got in self._inbox.items():
            known = known_all[i]
            if len(got) == 1:
                fresh = next(iter(got.values())) - known
            else:
                payloads = iter(got.values())
                fresh = next(payloads) - known
                for payload in payloads:
                    fresh |= payload - known
            if not fresh:
                continue
            known |= fresh
            if last:
                continue
            for u in nbrs[i]:
                held = got.get(u)
                if held is None:
                    # nothing to subtract: share the fresh set itself
                    # (receivers only read payloads, never mutate them)
                    out = fresh
                else:
                    out = fresh - held
                    if not out:
                        continue
                inbox = nxt.get(u)
                if inbox is None:
                    inbox = nxt[u] = {}
                inbox[i] = out
                sent += 1
        self._inbox = nxt
        return sent, sent

    def finalize(self) -> None:
        """Produce each node's :class:`KnownBall` from its fact-id set."""
        verts = self.index.verts
        edge_labels = self.index.edge_labels
        edge_pairs = self._edge_pairs
        values = self._values
        radius = self.radius
        n = self.index.n
        for i, p in enumerate(self._programs):
            # one sort, split at the state/edge boundary: fact ids below
            # n are states (ascending, as KnownBall's dict order pins),
            # the rest are edges
            facts = sorted(self._known[i])
            cut = bisect_left(facts, n)
            p.done = True
            p.output = KnownBall(
                center=p.node,
                radius=radius,
                states={verts[f]: values[f] for f in facts[:cut]},
                edges={edge_labels[edge_pairs[f - n]] for f in facts[cut:]},
            )


DeltaGatherProgram.batch_kernel = DeltaGatherKernel


def _run_gather(
    graph: Graph,
    radius: int,
    factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    sealed: bool,
    sinks: Optional[List[TraceSink]],
    faults: Optional["FaultPlan"],
    info: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[Vertex, KnownBall], int]:
    if radius < 0:
        raise ValueError("radius must be non-negative")
    net = BatchExecutor(graph, factory, sealed=sealed, sinks=sinks, faults=faults)
    # The bound is exact: rounds 0..radius inclusive (satellite of the
    # termination contract -- slack here would mask off-by-ones in the
    # programs' cutoff logic).
    #
    # A gather run allocates payload containers at a rate that makes the
    # cyclic GC's generation scans a measurable fraction of wall-clock
    # (the payload graphs are acyclic, so the scans never free anything);
    # pause collection for the run and let the deferred gen-0 pass run
    # once at the end.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        outputs = net.run(max_rounds=radius + 1)
    finally:
        if was_enabled:
            gc.enable()
    if info is not None:
        info["executed"] = net.executed
        info["fallback_reason"] = net.fallback_reason
    return outputs, net.stats.rounds


def gather_balls(
    graph: Graph,
    radius: int,
    states: Optional[Dict[Vertex, Any]] = None,
    sealed: bool = False,
    sinks: Optional[List[TraceSink]] = None,
    faults: Optional["FaultPlan"] = None,
    info: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[Vertex, KnownBall], int]:
    """Run delta gathering; returns per-node balls and rounds used.

    Every node runs :class:`DeltaGatherProgram`; outputs and round counts
    equal those of the full flood (the equivalence suite asserts the full
    matrix).  ``sealed``, ``sinks`` and ``faults`` pass through to the
    network unchanged.  The run compiles to
    :class:`DeltaGatherKernel` unless one of them asks for per-node
    dispatch (a sealed run, attached sinks, a non-empty fault plan), and
    outputs and stats are identical either way.  A caller-supplied
    ``info`` dict is populated with the dispatch diagnostics
    (``executed``, ``fallback_reason``) after the run.
    """
    state_of = states or {}
    index = graph_index(graph)

    def factory(v: Vertex, nbrs: List[Vertex]) -> NodeProgram:
        return DeltaGatherProgram(v, nbrs, radius, state_of.get(v), index)

    return _run_gather(graph, radius, factory, sealed, sinks, faults, info)
