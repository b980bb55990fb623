"""Synchronous message-passing simulator for the LOCAL model.

The LOCAL model (Section 1): the input graph is the communication network;
every node hosts a computational entity knowing initially only its own ID
and its neighbors' IDs.  Computation proceeds in synchronous rounds; per
round each node performs unlimited local computation and then exchanges
messages of unbounded size with its neighbors.  The complexity measure is
the number of rounds.

:class:`SyncNetwork` drives :class:`NodeProgram` instances round by round,
collecting per-round message statistics.  The genuinely message-passing
algorithms of the library (Luby's MIS, Cole-Vishkin color reduction, ball
gathering) run on it directly; the large layered algorithms of the paper
use the ball-equivalence accounting of :mod:`repro.localmodel.rounds`
instead (see that module's docstring for why both exist).

Active-set scheduling
---------------------

The LOCAL model charges *rounds*, not work, so a simulator is free to
skip nodes whose step would provably be a no-op.  The scheduler steps a
node in a round only when it is not done and at least one of these holds:

* it is round 0 (every program gets its initialization step);
* the node received a message in the previous round;
* the node's program called :meth:`NodeProgram.wake_next_round` during
  its last step;
* the program declares :attr:`NodeProgram.always_active` (it "acts on
  silence": round counting, internal state machines, timeout-style
  termination -- anything whose empty-inbox step is not a no-op).

A program that acts on silence without declaring ``always_active`` (or
requesting wakeup) starves: the active set empties while the node is
still running, and :meth:`SyncNetwork.run` raises ``RuntimeError``
immediately instead of spinning to the round budget.  Lint rule L6
(:mod:`repro.lint.rules`) flags such programs statically.

The test suite keeps the dense reference semantics -- every not-yet-done
node is stepped every round -- as an oracle (``tests/oracles.py``) and
asserts that active-set scheduling changes neither outputs nor
:class:`RunStats` nor traces for any conforming program.  Inboxes are
allocated only for nodes that actually receive.

Trace sinks
-----------

Observability is a pluggable :class:`TraceSink` attached to the network
(``SyncNetwork(..., sinks=[...])``).  After *every* round -- including
rounds driven by direct :meth:`SyncNetwork.step_round` calls -- each sink
receives ``on_round(round_no, messages, completed, active_count)`` with:

* ``round_no`` -- the network's own round counter for the round just
  executed (0-based; always equals ``stats.rounds - 1`` at call time);
* ``messages`` -- the round's :class:`MessageRecord` list, sorted by
  ``(sender, receiver)`` under the natural vertex order
  (:func:`vertex_key`), so integer ids order 0, 1, 2, ..., 10, 11;
* ``completed`` -- nodes whose program set ``done`` this round, sorted
  by :func:`vertex_key`;
* ``active_count`` -- how many nodes were actually stepped.

Sinks fire in attachment order.  The stock sinks live in
:mod:`repro.localmodel.trace`; see ``docs/tracing.md`` for the protocol
and the JSONL export schema.  This class is the one place a run is
sealed, traced or given a fault plan: every driver that wants one of
those builds its own :class:`SyncNetwork`.
"""

from __future__ import annotations

import copy
import random
import zlib
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
from .sealed import SealedContextError, SealedInbox, freeze

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .faults import FaultPlan, FaultRuntime

__all__ = [
    "NodeProgram",
    "NodeContext",
    "SealedNodeContext",
    "SyncNetwork",
    "RunStats",
    "MessageRecord",
    "TraceSink",
    "vertex_key",
    "RECOVERY_MODES",
    "DELIVERY_STATUSES",
    "WIRE_STATUSES",
]

#: What a crash-*recover* node resumes from: ``"intact"`` keeps whatever
#: state the program had when it crashed (the historical semantics),
#: ``"restart"`` resets it to its round-0 state, ``"checkpoint"``
#: restores the last snapshot taken at the ``checkpoint_every`` cadence.
RECOVERY_MODES = ("intact", "restart", "checkpoint")

# ----------------------------------------------------------------------
# The send-vs-deliver counting contract.
#
# Every message event carries a MessageRecord status; the two frozensets
# below partition those statuses into the two quantities the library
# counts, and they are the single source of truth for RunStats,
# MessageMeter, and the fault-sweep reports:
#
# * a **send** is one outbox entry as returned by a program's step();
#   RunStats.messages_sent counts sends, regardless of what the network
#   then does with the message (deliver, drop, delay, duplicate);
# * a **delivery** is one payload reaching a receiver's inbox; a record
#   counts as a delivery iff its status is in DELIVERY_STATUSES.  Matured
#   late and duplicate copies injected by the fault layer are deliveries
#   even though they were never (separately) sent;
# * a **wire transmission** is one payload crossing an edge once; a
#   record counts iff its status is in WIRE_STATUSES.  "late" is
#   deliberately absent: a late record is the maturity of an
#   already-charged "delayed" transmission, and charging both would
#   double-count the wire.  MessageMeter charges payload sizes per
#   transmission.
# ----------------------------------------------------------------------

#: Statuses whose records reach a receiver's inbox (the "deliver" side of
#: the counting contract; see :class:`RunStats`).
DELIVERY_STATUSES = frozenset({"delivered", "late", "duplicate"})

#: Statuses representing a distinct transmission on the wire (the unit
#: :class:`~repro.localmodel.meter.MessageMeter` charges).
WIRE_STATUSES = frozenset({"delivered", "dropped", "delayed", "duplicate"})


def vertex_key(v: Vertex) -> Tuple[int, str, Any]:
    """Sort key realizing the natural vertex order.

    Numeric ids sort numerically (0, 1, 2, ..., 10, 11 -- not the string
    order 0, 1, 10, 11, 2), everything else sorts by type name then
    string form, so graphs mixing id types remain sortable.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return (1, type(v).__name__, str(v))
    return (0, "", v)


@dataclass(frozen=True)
class MessageRecord:
    """One message event, as reported to trace sinks.

    ``status`` is ``"delivered"`` on a reliable network.  Under fault
    injection (:mod:`repro.localmodel.faults`) it tags what actually
    happened: ``"dropped"`` (lost, including sends to a crashed node),
    ``"delayed"`` (deferred; a matching ``"late"`` record appears at the
    actual delivery round), or ``"duplicate"`` (a network-injected extra
    copy).  Only ``delivered``/``late``/``duplicate`` records reach an
    inbox.
    """

    sender: Vertex
    receiver: Vertex
    payload: Any
    status: str = "delivered"


class TraceSink:
    """Observer protocol for per-round network events.

    Subclass (or duck-type) and attach via ``SyncNetwork(..., sinks=[...])``.
    The network calls :meth:`on_round` exactly once per executed round with
    canonically ordered data (see the module docstring for the ordering
    guarantees); sinks must not mutate the ``messages``/``completed``
    lists, which are shared by every sink attached to the same network.
    """

    def on_round(
        self,
        round_no: int,
        messages: List[MessageRecord],
        completed: List[Vertex],
        active_count: int,
    ) -> None:
        """Observe one executed round (see the class docstring for the contract)."""
        raise NotImplementedError


@dataclass
class NodeContext:
    """What a node can see when it takes a step.

    ``inbox`` maps each neighbor to the message it sent in the previous
    round (absent if it sent nothing).  ``round_number`` is 0 for the first
    step, matching the convention that initialization happens "before round
    zero"'s communication.
    """

    node: Vertex
    neighbors: List[Vertex]
    round_number: int
    inbox: Mapping[Vertex, Any]


class SealedNodeContext(NodeContext):
    """A :class:`NodeContext` whose attributes cannot be reassigned.

    Used by sealed execution (``SyncNetwork(..., sealed=True)``): together
    with :class:`~repro.localmodel.sealed.SealedInbox` it turns the context
    into a read-only view, so any program mutating its context (lint rule
    L5) fails at the offending statement instead of silently corrupting
    the round's state.
    """

    def __init__(self, node, neighbors, round_number, inbox):
        """Build the context, then flip the seal so mutation raises."""
        super().__init__(node, neighbors, round_number, inbox)
        object.__setattr__(self, "_sealed", True)

    def __setattr__(self, name: str, value: Any) -> None:
        if getattr(self, "_sealed", False):
            raise SealedContextError(
                f"node {self.node!r} assigned to ctx.{name}; contexts are "
                "read-only under sealed execution"
            )
        super().__setattr__(name, value)


class NodeProgram:
    """Base class for per-node algorithms.

    Subclasses override :meth:`step`, returning the outbox: a mapping from
    neighbor to message (use :meth:`broadcast` to message every neighbor).
    A program signals completion by setting :attr:`done` *inside* a step;
    its result should be left in :attr:`output`.  Messages returned in the
    same step as ``done = True`` are still delivered, so a node can
    announce its final state as it stops.

    Scheduling contract (see the module docstring): under active-set
    scheduling a quiet node -- one that received nothing last round -- is
    not stepped.  A program whose empty-inbox step is *not* a no-op must
    either declare :attr:`always_active` = True at class level, or call
    :meth:`wake_next_round` before returning from any step after which it
    needs to run regardless of incoming messages.  Purely event-driven
    programs should declare ``always_active = False`` explicitly; lint
    rule L6 enforces that the declaration exists one way or the other.
    """

    #: Schedule this node every round while it is not done.  Declare True
    #: for programs that act on silence (round counting, state machines);
    #: declare False explicitly for purely event-driven programs.
    always_active = False

    def __init__(self, node: Vertex, neighbors: List[Vertex]):
        """Bind identity: this ``node`` and its sorted ``neighbors`` list."""
        self.node = node
        self.neighbors = list(neighbors)
        self.done = False
        self.output: Any = None
        self._wake_requested = False

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """Advance one round; return the outbox ``{neighbor: payload}``."""
        raise NotImplementedError

    def broadcast(self, message: Any) -> Dict[Vertex, Any]:
        """An outbox sending ``message`` to every declared neighbor."""
        return {u: message for u in self.neighbors}

    def wake_next_round(self) -> None:
        """Request a step next round even if no message arrives.

        The per-step escape hatch for programs that usually are
        event-driven but occasionally act on silence; the request is
        consumed (and cleared) by the scheduler after the current step.
        """
        self._wake_requested = True


@dataclass
class RunStats:
    """Round and message accounting for a :class:`SyncNetwork` run.

    Counting follows the module's send-vs-deliver contract (see
    :data:`DELIVERY_STATUSES`): ``messages_sent`` counts outbox entries
    as returned by the programs, ``messages_delivered`` counts inbox
    arrivals -- including matured late and duplicate copies injected by
    the fault layer, which were never separately sent.  On a reliable
    network the two are equal; under faults, drops push ``delivered``
    below ``sent`` and duplicates push it above.

    Identical to dense stepping for conforming programs: skipped nodes
    would have sent nothing, so rounds, message totals, and per-round
    maxima are scheduling-invariant (asserted program-by-program in the
    equivalence suite).
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    max_messages_per_round: int = 0

    def record_round(self, sent: int, delivered: int) -> None:
        """Fold one executed round's send/delivery counts into the totals."""
        self.rounds += 1
        self.messages_sent += sent
        self.messages_delivered += delivered
        self.max_messages_per_round = max(self.max_messages_per_round, sent)


class SyncNetwork:
    """Runs one :class:`NodeProgram` per node of a graph, synchronously.

    Each round steps only the nodes with a reason to run (see the module
    docstring).  ``sinks`` is an iterable of :class:`TraceSink` observers
    notified after every round.

    With ``sealed=True`` every delivered message is deep-frozen and every
    context is read-only (see :mod:`repro.localmodel.sealed`): a program
    peeking beyond its neighborhood or mutating delivered state raises
    :class:`~repro.localmodel.sealed.SealedContextError` at the offending
    statement.  Sealing is behavior-preserving for conforming programs
    (just slightly slower) in tests.

    ``faults`` attaches a :class:`~repro.localmodel.faults.FaultPlan`:
    every delivery consults the plan (drop / duplicate / delay), crash
    schedules unschedule nodes, and trace sinks receive the affected
    :class:`MessageRecord`\\ s with a non-default ``status`` tag.  An
    empty plan is behavior-preserving -- byte-identical transcripts,
    outputs, and stats versus ``faults=None`` (regression-tested); see
    :mod:`repro.localmodel.faults` for the guarantees.  Corruption
    schedules (:class:`~repro.localmodel.faults.CorruptSpec`) mutate
    node state strictly *between* rounds: after the named round's
    steps, deliveries, and trace sinks, so sinks observe the round as
    executed and the corrupted state is first visible in the following
    round.  A corrupted program whose class declares ``repairable =
    True`` is re-activated -- ``done`` cleared, back on the schedule --
    so it can detect and repair the damage (see
    :mod:`repro.localmodel.stabilize`); any other program keeps its
    completion status and lives with the corruption, which is how
    unrepaired algorithms end up classified unsafe.

    ``recovery`` picks what a crash-recover node resumes from (one of
    :data:`RECOVERY_MODES`: state intact, round-0 restart, or last
    checkpoint); ``checkpoint_every`` enables state snapshots every
    that-many rounds (required by ``recovery="checkpoint"`` and
    consumed by :meth:`rollback`).  Both default off and are then
    behavior-preserving.

    ``inbox_order`` is the shadow-execution knob of the determinism
    sanitizer (:mod:`repro.localmodel.shadow`): when set to an integer
    seed, every delivered inbox is rebuilt in a pseudorandom key order
    derived deterministically from ``(seed, round, receiver)`` -- the
    LOCAL model promises nothing about inbox iteration order, so a
    conforming program's outputs and transcript must not change.  The
    permutation uses ``zlib.crc32`` rather than ``hash()`` so a given
    seed permutes identically across interpreter runs (salted hashing
    would make the *sanitizer itself* nondeterministic).
    """

    def __init__(
        self,
        graph: Graph,
        program_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
        sealed: bool = False,
        sinks: Optional[List[TraceSink]] = None,
        inbox_order: Optional[int] = None,
        faults: Optional["FaultPlan"] = None,
        recovery: str = "intact",
        checkpoint_every: Optional[int] = None,
    ):
        """Instantiate one program per vertex and wire up the run machinery.

        ``program_factory(v, sorted_neighbors)`` builds each node program;
        ``sealed`` deep-freezes deliveries, ``sinks`` observe every round,
        ``inbox_order`` permutes inbox iteration (the sanitizer's knob),
        ``faults`` attaches a :class:`~repro.localmodel.faults
        .FaultPlan` consulted at every delivery, ``recovery`` picks the
        crash-recover resume semantics (:data:`RECOVERY_MODES`), and
        ``checkpoint_every`` enables periodic state snapshots.
        """
        if recovery not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {recovery!r}; "
                f"expected one of {RECOVERY_MODES}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if recovery == "checkpoint" and checkpoint_every is None:
            raise ValueError(
                'recovery="checkpoint" requires checkpoint_every=N'
            )
        self.graph = graph
        self.sealed = sealed
        self.inbox_order = inbox_order
        self.recovery = recovery
        self.checkpoint_every = checkpoint_every
        self.sinks: List[TraceSink] = list(sinks) if sinks else []
        self.programs: Dict[Vertex, NodeProgram] = {
            v: program_factory(v, sorted(graph.neighbors_view(v))) for v in graph.vertices()
        }
        self.faults = faults
        if faults is None:
            self._fault_runtime: Optional["FaultRuntime"] = None
        else:
            from .faults import FaultPlanError, FaultRuntime

            for spec in faults.crashes:
                if spec.node not in self.programs:
                    raise FaultPlanError(
                        f"crash schedule names unknown node {spec.node!r}"
                    )
            for corrupt in faults.corrupts:
                if corrupt.node not in self.programs:
                    raise FaultPlanError(
                        f"corruption schedule names unknown node "
                        f"{corrupt.node!r}"
                    )
            self._fault_runtime = FaultRuntime(faults)
        #: round-0 snapshots for recovery="restart"; last periodic
        #: snapshots (round taken, state dict) for checkpointing.  Both
        #: deep copies: restoring must never alias live state.
        self._initial: Dict[Vertex, Dict[str, Any]] = (
            {v: copy.deepcopy(p.__dict__) for v, p in self.programs.items()}
            if recovery == "restart"
            else {}
        )
        self._checkpoints: Dict[Vertex, Tuple[int, Dict[str, Any]]] = (
            {
                v: (-1, copy.deepcopy(p.__dict__))
                for v, p in self.programs.items()
            }
            if checkpoint_every is not None
            else {}
        )
        self.stats = RunStats()
        #: canonical stepping order (= vertex insertion order of the graph)
        self._order: Dict[Vertex, int] = {v: i for i, v in enumerate(self.programs)}
        #: receiver -> {sender: message}; holds only nodes that received
        self._pending: Dict[Vertex, Dict[Vertex, Any]] = {}
        #: not-done nodes owed a step next round (messages or wakeups);
        #: round 0 steps everybody so initialization always happens
        self._active: Set[Vertex] = set(self.programs)
        #: not-done nodes whose program declares always_active
        self._always: Set[Vertex] = {
            v for v, p in self.programs.items() if p.always_active
        }
        #: cached per-node frozenset of neighbors for sealed inboxes
        self._sealed_allowed: Dict[Vertex, Any] = {}
        self._undone = len(self.programs)
        #: spent inbox dicts recycled across rounds on the reliable path.
        #: Reuse is safe only when nothing can retain a reference to last
        #: round's inbox beyond the step that consumed it: sealing hands
        #: out long-lived SealedInbox views, faults keep payload-bearing
        #: state in flight, and the sanitizer rebuilds inboxes anyway --
        #: so all three disable the pool.
        self._inbox_pool: List[Dict[Vertex, Any]] = []
        self._reuse_inboxes = (
            not sealed and faults is None and inbox_order is None
        )

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self, max_rounds: int = 10_000) -> Dict[Vertex, Any]:
        """Run until every program is done; returns the per-node outputs.

        Fast-exits as soon as the last program completes.  The budget is
        exact: a run needing ``r`` rounds succeeds with ``max_rounds=r``
        (completion is re-checked after the final round, not only before
        stepping).  Raises ``RuntimeError`` if the budget is exhausted
        with programs still running, or immediately when running nodes
        starve (no messages in flight, no wakeups, no always-active
        programs): a deadlocked or non-conforming program is a bug that
        should fail loudly rather than spin forever.
        """
        for _round in range(max_rounds):
            if self._undone == 0 and not (
                self._fault_runtime is not None
                and self._fault_runtime.corruption_pending(self.stats.rounds)
            ):
                # A pending corruption keeps a quiesced network ticking
                # (empty rounds) until it lands: a repairable victim is
                # then re-activated, an unrepaired one keeps its now-
                # corrupted output.  Without corruption the exit is the
                # historical fast path, byte-identical to PR 9.
                return self.outputs()
            if not (self._active or self._always) and not (
                self._fault_runtime is not None
                and self._fault_runtime.pending(self.stats.rounds)
            ):
                raise RuntimeError(
                    f"{self._undone} node(s) starved: still running, but no "
                    "messages are in flight and no program requested wakeup. "
                    "A program that acts on silence must declare "
                    "always_active = True or call wake_next_round() "
                    "(lint rule L6)."
                )
            self.step_round()
        if self._undone == 0:
            return self.outputs()
        raise RuntimeError(
            f"network did not terminate within {max_rounds} rounds; "
            f"{self._undone} nodes still running"
        )

    def _make_context(self, v: Vertex, program: NodeProgram) -> NodeContext:
        # ctx.neighbors is always a fresh list: handing out the program's
        # own list would let a program corrupt its neighbor set by mutating
        # the context (an aliasing hazard lint rule L5 exists to prevent).
        inbox = self._pending.get(v)
        if self.sealed:
            allowed = self._sealed_allowed.get(v)
            if allowed is None:
                allowed = self._sealed_allowed[v] = frozenset(program.neighbors)
            return SealedNodeContext(
                node=v,
                neighbors=list(program.neighbors),
                round_number=self.stats.rounds,
                inbox=SealedInbox(v, allowed, inbox if inbox is not None else {}),
            )
        return NodeContext(
            node=v,
            neighbors=list(program.neighbors),
            round_number=self.stats.rounds,
            inbox=inbox if inbox is not None else {},
        )

    def _scheduled(self) -> List[Vertex]:
        """The nodes to step this round, in canonical order."""
        crashed: Set[Vertex] = (
            self._fault_runtime.crashed if self._fault_runtime is not None else set()
        )
        if self._always:
            chosen = self._active | self._always
        else:
            chosen = self._active
        if crashed:
            chosen = chosen - crashed
        return sorted(chosen, key=self._order.__getitem__)

    def _apply_fault_transitions(self, round_no: int) -> None:
        """Fire the plan's crash/recover events scheduled for this round."""
        runtime = self._fault_runtime
        assert runtime is not None
        for spec in runtime.crashes_at(round_no):
            v = spec.node
            if v in runtime.crashed:
                continue
            program = self.programs[v]
            runtime.crashed.add(v)
            runtime.crash_events += 1
            self._active.discard(v)
            self._always.discard(v)
            self._pending.pop(v, None)  # the undelivered inbox dies with it
            program._wake_requested = False
            if spec.recover_round is None and not program.done:
                # crash-stop: this node will never finish; do not hold the
                # run hostage waiting for it
                self._undone -= 1
        for v in runtime.recoveries_at(round_no):
            if v not in runtime.crashed:
                continue
            runtime.crashed.discard(v)
            runtime.recover_events += 1
            program = self.programs[v]
            if self.recovery == "restart":
                self._restore_state(v, self._initial[v])
            elif self.recovery == "checkpoint":
                self._restore_state(v, self._checkpoints[v][1])
            if not program.done:
                self._active.add(v)  # wake it so it notices the world moved on
                if program.always_active:
                    self._always.add(v)

    def _restore_state(self, v: Vertex, snapshot: Dict[str, Any]) -> None:
        """Overwrite a program's state with a deep copy of ``snapshot``.

        Keeps the network's completion accounting consistent when the
        restore flips ``done`` (a node that had finished but is reset to
        a pre-completion snapshot is running again).
        """
        program = self.programs[v]
        was_done = program.done
        state = copy.deepcopy(snapshot)
        program.__dict__.clear()
        program.__dict__.update(state)
        program._wake_requested = False
        if was_done and not program.done:
            self._undone += 1
        elif not was_done and program.done:
            self._undone -= 1

    def _take_checkpoint(self, round_no: int) -> None:
        """Snapshot every live program's state dict at ``round_no``."""
        crashed: Set[Vertex] = (
            self._fault_runtime.crashed if self._fault_runtime is not None else set()
        )
        for v, program in self.programs.items():
            if v in crashed:
                continue  # a down node keeps its previous checkpoint
            self._checkpoints[v] = (round_no, copy.deepcopy(program.__dict__))

    def _apply_corruptions(self, round_no: int) -> None:
        """Fire the corruption events scheduled after ``round_no``.

        Runs at the very end of :meth:`step_round`, after the round's
        trace sinks: corruption strikes strictly between rounds.  A
        victim whose program declares ``repairable = True`` is put back
        on the schedule (``done`` cleared) so it can detect and repair
        the damage next round; other victims keep their completion
        status and their now-corrupted state.
        """
        from .faults import corrupt_program

        runtime = self._fault_runtime
        assert runtime is not None
        assert self.faults is not None
        for spec in runtime.corruptions_at(round_no):
            v = spec.node
            if v in runtime.crashed:
                continue  # a down node has no state to corrupt
            program = self.programs[v]
            if not corrupt_program(program, spec, self.faults.seed):
                continue
            runtime.corrupt_events += 1
            runtime.corruption_rounds.append(round_no)
            if getattr(program, "repairable", False):
                if program.done:
                    program.done = False
                    self._undone += 1
                self._active.add(v)
                if program.always_active:
                    self._always.add(v)

    def step_round(self) -> None:
        """Advance the whole network by one synchronous round."""
        round_no = self.stats.rounds
        runtime = self._fault_runtime
        if runtime is not None and runtime.has_node_events:
            self._apply_fault_transitions(round_no)
        scheduled = self._scheduled()
        outboxes: List[Tuple[Vertex, Mapping[Vertex, Any]]] = []
        completed: List[Vertex] = []
        for v in scheduled:
            program = self.programs[v]
            outbox = program.step(self._make_context(v, program)) or {}
            if program.done:
                self._undone -= 1
                self._always.discard(v)
                program._wake_requested = False
                completed.append(v)
            if outbox:
                outboxes.append((v, outbox))

        sent_count = 0
        delivered_count = 0
        new_pending: Dict[Vertex, Dict[Vertex, Any]] = {}
        records: Optional[List[MessageRecord]] = [] if self.sinks else None

        if self._reuse_inboxes:
            # Last round's inboxes were consumed by the steps above;
            # recycle the dicts so the steady state allocates nothing.
            for spent in self._pending.values():
                spent.clear()
                self._inbox_pool.append(spent)

        # An inert plan (nothing randomized, no bursts, nobody crashed,
        # nothing in flight) takes the exact reliable-network path below,
        # so attaching an empty FaultPlan costs essentially nothing.
        faults_active = runtime is not None and (
            runtime.has_message_faults or runtime.crashed or runtime.in_flight
        )

        if runtime is not None and runtime.in_flight:
            # Copies the fault layer kept in flight (delays, duplicates)
            # land first, so a fresher direct send can overwrite them.
            # Maturities are deliveries, not sends: they count toward
            # stats.messages_delivered but never messages_sent.
            for sender, receiver, payload, status in runtime.matured(round_no):
                if receiver in runtime.crashed:
                    status = "dropped"
                    runtime.dropped += 1
                else:
                    delivered_count += 1
                if records is not None:
                    records.append(MessageRecord(sender, receiver, payload, status))
                if status != "dropped" and not self.programs[receiver].done:
                    new_pending.setdefault(receiver, {})[sender] = payload

        for sender, outbox in outboxes:
            # broadcast() reuses one payload object for every receiver;
            # freeze it once per distinct object, not once per receiver
            # (the outbox keeps the originals alive, so id() keys are
            # stable for the duration of this loop).
            frozen_memo: Optional[Dict[int, Any]] = {} if self.sealed else None
            for receiver, message in outbox.items():
                if not self.graph.has_edge(sender, receiver):
                    raise ValueError(
                        f"node {sender!r} tried to message non-neighbor {receiver!r}"
                    )
                if frozen_memo is None:
                    payload = message
                else:
                    key = id(message)
                    if key not in frozen_memo:
                        frozen_memo[key] = freeze(message)
                    payload = frozen_memo[key]
                sent_count += 1
                if faults_active:
                    assert runtime is not None
                    if receiver in runtime.crashed:
                        runtime.dropped += 1
                        if records is not None:
                            records.append(
                                MessageRecord(sender, receiver, payload, "dropped")
                            )
                        continue
                    action, extra = self.faults.decide(round_no, sender, receiver)  # type: ignore[union-attr]
                    if action == "drop":
                        runtime.dropped += 1
                        if records is not None:
                            records.append(
                                MessageRecord(sender, receiver, payload, "dropped")
                            )
                        continue
                    if action == "delay":
                        runtime.delayed += 1
                        runtime.schedule(
                            round_no + extra, sender, receiver, payload, "late"
                        )
                        if records is not None:
                            records.append(
                                MessageRecord(sender, receiver, payload, "delayed")
                            )
                        continue
                    if action == "duplicate":
                        runtime.duplicated += 1
                        runtime.schedule(
                            round_no + 1, sender, receiver, payload, "duplicate"
                        )
                delivered_count += 1
                if records is not None:
                    records.append(MessageRecord(sender, receiver, payload))
                if not self.programs[receiver].done:
                    inbox = new_pending.get(receiver)
                    if inbox is None:
                        inbox = new_pending[receiver] = (
                            self._inbox_pool.pop() if self._inbox_pool else {}
                        )
                    inbox[sender] = payload

        if self.inbox_order is not None:
            new_pending = {
                receiver: self._permuted_inbox(receiver, round_no, inbox)
                for receiver, inbox in new_pending.items()
            }

        # Next round's active set: actual receivers plus explicit wakeups.
        next_active = set(new_pending)
        for v in scheduled:
            program = self.programs[v]
            if program._wake_requested:
                program._wake_requested = False
                if not program.done:
                    next_active.add(v)

        self._pending = new_pending
        self._active = next_active
        self.stats.record_round(sent_count, delivered_count)

        if self.sinks:
            assert records is not None
            records.sort(key=lambda m: (vertex_key(m.sender), vertex_key(m.receiver)))
            completed.sort(key=vertex_key)
            for sink in self.sinks:
                sink.on_round(round_no, records, completed, len(scheduled))

        # Between-round state events, in commit order: the checkpoint
        # snapshots the round as executed (durable storage writes the
        # committed state), then corruption strikes -- a transient fault
        # between rounds never pollutes the checkpoint of the round it
        # follows.
        if (
            self.checkpoint_every is not None
            and round_no % self.checkpoint_every == 0
        ):
            self._take_checkpoint(round_no)
        if runtime is not None and runtime.has_corruption:
            self._apply_corruptions(round_no)

    def _permuted_inbox(
        self, receiver: Vertex, round_no: int, inbox: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        """The same inbox, rebuilt in a seed-determined insertion order."""
        senders = list(inbox)
        rng = random.Random(
            zlib.crc32(repr((self.inbox_order, round_no, receiver)).encode())
        )
        rng.shuffle(senders)
        return {sender: inbox[sender] for sender in senders}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach a :class:`TraceSink`; returns it for chaining."""
        self.sinks.append(sink)
        return sink

    def fault_summary(self) -> Optional[Dict[str, int]]:
        """Injection counters of the attached fault plan (None without one)."""
        if self._fault_runtime is None:
            return None
        return self._fault_runtime.summary()

    def rollback(self, node: Optional[Vertex] = None) -> int:
        """Restore state from the last checkpoint, on demand.

        Restores ``node`` (or every node when ``None``) to its most
        recent snapshot and reschedules any node the restore made
        runnable again.  Returns the latest checkpoint round restored
        (-1 when only the construction-time snapshot exists).  Raises
        ``ValueError`` unless the network was built with
        ``checkpoint_every=N``.
        """
        if self.checkpoint_every is None:
            raise ValueError(
                "rollback() requires checkpointing; construct the network "
                "with checkpoint_every=N"
            )
        if node is not None and node not in self.programs:
            raise KeyError(f"unknown node {node!r}")
        targets = [node] if node is not None else list(self.programs)
        restored = -1
        for v in targets:
            round_taken, snapshot = self._checkpoints[v]
            self._restore_state(v, snapshot)
            restored = max(restored, round_taken)
            program = self.programs[v]
            if not program.done:
                self._active.add(v)
                if program.always_active:
                    self._always.add(v)
        return restored

    def crashed_nodes(self) -> List[Vertex]:
        """The currently crashed nodes, in natural vertex order."""
        if self._fault_runtime is None:
            return []
        return sorted(self._fault_runtime.crashed, key=vertex_key)

    def outputs(self) -> Dict[Vertex, Any]:
        """Snapshot of ``{node: program.output}`` (``None`` while undecided)."""
        return {v: p.output for v, p in self.programs.items()}
