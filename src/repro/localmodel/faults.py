"""Deterministic fault injection for the synchronous simulator.

The LOCAL model assumes a perfectly reliable synchronous network; real
deployments do not get one.  This module lets :class:`~repro.localmodel
.network.SyncNetwork` simulate an *unreliable* network without touching
any node program: a :class:`FaultPlan` describes which messages are
dropped, duplicated, or delayed and which nodes crash (and possibly
recover) at which rounds, and the network consults it once per delivery.

Determinism guarantees
----------------------

Every fault decision is a pure function of ``(plan.seed, round, sender,
receiver)``, hashed through ``zlib.crc32`` exactly like the inbox-order
sanitizer (:mod:`repro.localmodel.shadow`), so

* the same plan on the same run produces the same faults on every
  interpreter invocation (no salted hashing, no global RNG);
* decisions are independent of outbox iteration order -- permuting the
  senders cannot change which messages fail;
* an **empty plan** (no probabilities, no bursts, no crashes) makes
  every decision "deliver", and the run is byte-identical -- canonical
  transcript, outputs, and :class:`~repro.localmodel.network.RunStats`
  -- to a run without any fault layer attached (regression-tested).

Fault vocabulary
----------------

* *drop* -- the message silently vanishes (Bernoulli, per message);
* *duplicate* -- the message is delivered normally and a second copy
  arrives one round later (at-least-once delivery);
* *delay* -- the message arrives ``k`` extra rounds late, ``k`` drawn
  uniformly from ``1..max_delay``;
* *burst* -- an adversarial window of rounds in which **every** message
  is dropped (models a network partition);
* *crash* -- a :class:`CrashSpec` stops a node at a given round: it is
  no longer scheduled, its undelivered inbox is lost, and messages
  addressed to it vanish.  With a ``recover_round`` the node resumes --
  state intact, as crash-*recover* -- at that round; without one it is
  crash-*stop* and its output stays ``None``.
* *corrupt* -- a :class:`CorruptSpec` transiently scrambles one node's
  *state* between rounds (after the given round's steps, deliveries,
  and trace sinks): a color flip, an IS-flag flip, ball-fact deletion,
  or arbitrary field scrambling (see :data:`CORRUPT_KINDS` and
  :func:`corrupt_program`).  Channel semantics are untouched -- no
  message is created, dropped, or reordered by a corruption.

Accounting: :attr:`RunStats.messages_sent` keeps counting what programs
*send* (a dropped message still cost its sender a send); copies injected
by the network (duplicates, late re-deliveries) are never double-counted.
Trace sinks see every event: each :class:`~repro.localmodel.network
.MessageRecord` carries a ``status`` tag (``delivered`` / ``dropped`` /
``delayed`` / ``late`` / ``duplicate``), so the stock sinks and the
meter observe faults without any API change.

The textual grammar (``FaultPlan.parse``) is what ``repro faults`` and
``repro trace --faults`` accept::

    drop=0.2,dup=0.05,delay=0.1:3,seed=7,burst=4-6,crash=2@3,crash=5@4-9

with state corruption joining the same token stream::

    corrupt=4@6:color,corrupt=2@0:scramble,seed=7

See ``docs/faults.md`` for the full grammar and the resilience
classification built on top (:mod:`repro.localmodel.resilience`).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..graphs.adjacency import Vertex

__all__ = [
    "CrashSpec",
    "CorruptSpec",
    "FaultPlan",
    "FaultRuntime",
    "FaultPlanError",
    "MESSAGE_STATUSES",
    "CORRUPT_KINDS",
    "corrupt_program",
]

#: Every status tag a :class:`MessageRecord` can carry under fault
#: injection; ``delivered`` is the default (and only) tag without it.
MESSAGE_STATUSES = ("delivered", "dropped", "delayed", "late", "duplicate")

#: The recognized transient state-corruption kinds of :class:`CorruptSpec`:
#: ``color`` flips an integer color output, ``mis`` flips a boolean
#: IS-membership output, ``ball`` deletes cached ball facts (dict/set
#: state), ``scramble`` overwrites one seeded scalar field.
CORRUPT_KINDS = ("color", "mis", "ball", "scramble")


class FaultPlanError(ValueError):
    """Raised for an unparseable fault spec or an inconsistent plan."""


@dataclass(frozen=True)
class CrashSpec:
    """One node's crash schedule.

    The node stops executing at the start of ``crash_round`` (it does not
    take that round's step).  ``recover_round`` of ``None`` means
    crash-stop: the node never returns and its output stays ``None``.
    Otherwise the node resumes -- with its program state intact -- at the
    start of ``recover_round``.
    """

    node: Vertex
    crash_round: int
    recover_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.crash_round < 0:
            raise FaultPlanError(
                f"crash round must be >= 0, got {self.crash_round}"
            )
        if self.recover_round is not None and self.recover_round <= self.crash_round:
            raise FaultPlanError(
                f"recover round {self.recover_round} must come after crash "
                f"round {self.crash_round}"
            )


@dataclass(frozen=True)
class CorruptSpec:
    """One transient state-corruption event.

    The node's program state is mutated by :func:`corrupt_program` *after*
    round ``round_no`` executes (steps, deliveries, and trace sinks all
    see the uncorrupted round) and before round ``round_no + 1`` begins --
    corruption strikes strictly between rounds, so channel semantics are
    untouched.  ``kind`` is one of :data:`CORRUPT_KINDS`.  A corruption
    aimed at a currently crashed node is skipped (a down node has no
    state to flip).
    """

    node: Vertex
    round_no: int
    kind: str = "scramble"

    def __post_init__(self) -> None:
        if self.round_no < 0:
            raise FaultPlanError(
                f"corrupt round must be >= 0, got {self.round_no}"
            )
        if self.kind not in CORRUPT_KINDS:
            raise FaultPlanError(
                f"unknown corruption kind {self.kind!r}; "
                f"expected one of {CORRUPT_KINDS}"
            )


def _probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be a probability in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable description of every fault to inject.

    The plan itself holds no runtime state, so one plan can drive any
    number of runs (the shadow and resilience sweeps rely on this);
    per-run bookkeeping lives in :class:`FaultRuntime`.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 1
    bursts: Tuple[Tuple[int, int], ...] = ()
    crashes: Tuple[CrashSpec, ...] = ()
    corrupts: Tuple[CorruptSpec, ...] = ()

    def __post_init__(self) -> None:
        _probability("drop", self.drop)
        _probability("duplicate", self.duplicate)
        _probability("delay", self.delay)
        if self.max_delay < 1:
            raise FaultPlanError(f"max_delay must be >= 1, got {self.max_delay}")
        for start, end in self.bursts:
            if start < 0 or end < start:
                raise FaultPlanError(
                    f"burst window {start}-{end} must satisfy 0 <= start <= end"
                )
        seen: Set[Vertex] = set()
        for spec in self.crashes:
            if spec.node in seen:
                raise FaultPlanError(
                    f"node {spec.node!r} has more than one crash schedule"
                )
            seen.add(spec.node)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all (identity plan)."""
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.delay == 0.0
            and not self.bursts
            and not self.crashes
            and not self.corrupts
        )

    def _randomized(self) -> bool:
        return self.drop > 0.0 or self.duplicate > 0.0 or self.delay > 0.0

    def in_burst(self, round_no: int) -> bool:
        """True when ``round_no`` falls inside an adversarial burst window."""
        return any(start <= round_no <= end for start, end in self.bursts)

    # ------------------------------------------------------------------
    # the per-message decision
    # ------------------------------------------------------------------
    def decide(
        self, round_no: int, sender: Vertex, receiver: Vertex
    ) -> Tuple[str, int]:
        """The fate of one message: ``(action, extra_rounds)``.

        ``action`` is ``"deliver"``, ``"drop"``, ``"delay"`` (with the
        extra rounds as the second element), or ``"duplicate"`` (deliver
        now plus a copy one round later).  Deterministic in
        ``(seed, round, sender, receiver)`` and nothing else.
        """
        if self.in_burst(round_no):
            return ("drop", 0)
        if not self._randomized():
            return ("deliver", 0)
        rng = random.Random(
            zlib.crc32(repr((self.seed, round_no, sender, receiver)).encode())
        )
        if rng.random() < self.drop:
            return ("drop", 0)
        if rng.random() < self.delay:
            return ("delay", rng.randint(1, self.max_delay))
        if rng.random() < self.duplicate:
            return ("duplicate", 0)
        return ("deliver", 0)

    # ------------------------------------------------------------------
    # the textual grammar
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the comma-separated ``key=value`` grammar.

        Keys: ``seed=N``, ``drop=P``, ``dup=P``, ``delay=P`` or
        ``delay=P:K`` (delay probability with max extra rounds K),
        ``burst=R1-R2`` (inclusive round window, repeatable),
        ``crash=V@R`` / ``crash=V@R1-R2`` (crash-stop / crash-recover,
        repeatable; V parses as an int when it looks like one), and
        ``corrupt=V@R`` / ``corrupt=V@R:kind`` (transient state
        corruption of node V after round R; ``kind`` defaults to
        ``scramble``, see :data:`CORRUPT_KINDS`; repeatable).  An
        empty string parses to the identity plan.
        """
        kwargs: Dict[str, Any] = {}
        bursts: List[Tuple[int, int]] = []
        crashes: List[CrashSpec] = []
        corrupts: List[CorruptSpec] = []
        for token in filter(None, (t.strip() for t in spec.split(","))):
            if "=" not in token:
                raise FaultPlanError(
                    f"bad fault token {token!r}: expected key=value"
                )
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "drop":
                    kwargs["drop"] = float(value)
                elif key in ("dup", "duplicate"):
                    kwargs["duplicate"] = float(value)
                elif key == "delay":
                    prob, _, max_extra = value.partition(":")
                    kwargs["delay"] = float(prob)
                    if max_extra:
                        kwargs["max_delay"] = int(max_extra)
                elif key == "burst":
                    start, _, end = value.partition("-")
                    bursts.append((int(start), int(end or start)))
                elif key == "crash":
                    node_text, _, window = value.partition("@")
                    if not window:
                        raise FaultPlanError(
                            f"crash spec {value!r} needs '@round' or '@r1-r2'"
                        )
                    node: Vertex = (
                        int(node_text) if _looks_like_int(node_text) else node_text
                    )
                    start_text, _, end_text = window.partition("-")
                    crashes.append(
                        CrashSpec(
                            node=node,
                            crash_round=int(start_text),
                            recover_round=int(end_text) if end_text else None,
                        )
                    )
                elif key == "corrupt":
                    node_text, _, event = value.partition("@")
                    if not event:
                        raise FaultPlanError(
                            f"corrupt spec {value!r} needs '@round' or "
                            "'@round:kind'"
                        )
                    victim: Vertex = (
                        int(node_text) if _looks_like_int(node_text) else node_text
                    )
                    round_text, _, kind_text = event.partition(":")
                    corrupts.append(
                        CorruptSpec(
                            node=victim,
                            round_no=int(round_text),
                            kind=kind_text or "scramble",
                        )
                    )
                else:
                    raise FaultPlanError(f"unknown fault key {key!r}")
            except FaultPlanError:
                raise
            except ValueError as exc:
                raise FaultPlanError(
                    f"bad fault token {token!r}: {exc}"
                ) from None
        if bursts:
            kwargs["bursts"] = tuple(bursts)
        if crashes:
            kwargs["crashes"] = tuple(crashes)
        if corrupts:
            kwargs["corrupts"] = tuple(corrupts)
        return cls(**kwargs)

    def spec(self) -> str:
        """The plan back in the textual grammar (``parse`` round-trips)."""
        parts: List[str] = []
        if self.drop:
            parts.append(f"drop={self.drop:g}")
        if self.duplicate:
            parts.append(f"dup={self.duplicate:g}")
        if self.delay:
            parts.append(f"delay={self.delay:g}:{self.max_delay}")
        for start, end in self.bursts:
            parts.append(f"burst={start}-{end}")
        for crash in self.crashes:
            window = (
                str(crash.crash_round)
                if crash.recover_round is None
                else f"{crash.crash_round}-{crash.recover_round}"
            )
            parts.append(f"crash={crash.node}@{window}")
        for corrupt in self.corrupts:
            parts.append(
                f"corrupt={corrupt.node}@{corrupt.round_no}:{corrupt.kind}"
            )
        if self._randomized() or parts:
            parts.append(f"seed={self.seed}")
        return ",".join(parts)


def _looks_like_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


#: Instance fields a corruption must never touch: identity, topology,
#: and the scheduler handshake (flipping ``done`` would desynchronize the
#: network's completion accounting, which models *state* faults, not
#: Byzantine schedulers).
_PROTECTED_FIELDS = frozenset({"node", "neighbors", "done", "_wake_requested"})


def _corrupt_rng(seed: int, spec: CorruptSpec) -> random.Random:
    return random.Random(
        zlib.crc32(repr((seed, spec.round_no, spec.node, spec.kind)).encode())
    )


def _scramble_value(value: Any, rng: random.Random) -> Any:
    """A deterministic different value of the same rough shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 + rng.randrange(255))
    if isinstance(value, float):
        return value + 1.0 + rng.random()
    if isinstance(value, str):
        flipped = value[::-1]
        return flipped if flipped != value else value + "?"
    return value


def corrupt_program(program: Any, spec: CorruptSpec, seed: int) -> bool:
    """Apply one :class:`CorruptSpec` to a node program's instance state.

    Returns True iff any field actually changed (a ``color`` flip on a
    program with no integer color is a no-op, for example).  Every
    mutation is a pure function of ``(seed, spec)`` -- same crc32-seeded
    derivation as :meth:`FaultPlan.decide` -- so replaying a plan replays
    the exact corruption.  Kinds (:data:`CORRUPT_KINDS`):

    * ``color`` -- shift an integer ``output`` (and a ``color`` field if
      one exists) by a small seeded offset, staying non-negative;
    * ``mis`` -- negate a boolean ``output`` (and an ``in_mis`` field);
    * ``ball`` -- delete a seeded subset of entries from every non-empty
      ``dict``/``set`` field (cached ball facts, neighbor tables);
    * ``scramble`` -- overwrite one seeded scalar field (preferring
      ``output`` when it is scalar) with a different value.
    """
    rng = _corrupt_rng(seed, spec)
    state: Dict[str, Any] = program.__dict__
    changed = False
    if spec.kind == "color":
        for name in ("output", "color"):
            value = state.get(name)
            if isinstance(value, int) and not isinstance(value, bool):
                offset = 1 + rng.randrange(3)
                flipped = value - offset if value >= offset else value + offset
                state[name] = flipped
                changed = True
    elif spec.kind == "mis":
        for name in ("output", "in_mis"):
            value = state.get(name)
            if isinstance(value, bool):
                state[name] = not value
                changed = True
    elif spec.kind == "ball":
        for name in sorted(state):
            if name in _PROTECTED_FIELDS:
                continue
            value = state[name]
            if isinstance(value, dict) and value:
                keys = sorted(value, key=repr)
                doomed = [k for k in keys if rng.random() < 0.5] or [keys[0]]
                for k in doomed:
                    del value[k]
                changed = True
            elif isinstance(value, set) and value:
                members = sorted(value, key=repr)
                doomed = [m for m in members if rng.random() < 0.5] or [members[0]]
                value.difference_update(doomed)
                changed = True
    else:  # scramble
        scalars = (bool, int, float, str)
        candidates = [
            name
            for name in sorted(state)
            if name not in _PROTECTED_FIELDS
            and isinstance(state[name], scalars)
        ]
        if not candidates:
            return False
        if "output" in candidates and rng.random() < 0.5:
            victim = "output"
        else:
            victim = candidates[rng.randrange(len(candidates))]
        new_value = _scramble_value(state[victim], rng)
        if new_value != state[victim]:
            state[victim] = new_value
            changed = True
    return changed


@dataclass
class FaultRuntime:
    """Per-run mutable state and counters for one plan on one network.

    Owned by :class:`~repro.localmodel.network.SyncNetwork`; a fresh one
    is created per network so a single :class:`FaultPlan` can drive many
    runs concurrently.
    """

    plan: FaultPlan
    #: delivery round -> [(sender, receiver, payload, status), ...]
    in_flight: Dict[int, List[Tuple[Vertex, Vertex, Any, str]]] = field(
        default_factory=dict
    )
    #: nodes currently crashed
    crashed: Set[Vertex] = field(default_factory=set)
    #: counters exposed through :meth:`summary`
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    crash_events: int = 0
    recover_events: int = 0
    corrupt_events: int = 0
    #: rounds at which a corruption actually mutated state (in order);
    #: :class:`~repro.localmodel.resilience.ValidityMonitor` reads this
    #: to compute detection latency and recovery rounds
    corruption_rounds: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._crash_at: Dict[int, List[CrashSpec]] = {}
        self._recover_at: Dict[int, List[Vertex]] = {}
        for spec in self.plan.crashes:
            self._crash_at.setdefault(spec.crash_round, []).append(spec)
            if spec.recover_round is not None:
                self._recover_at.setdefault(spec.recover_round, []).append(spec.node)
        self._corrupt_at: Dict[int, List[CorruptSpec]] = {}
        for corrupt in self.plan.corrupts:
            self._corrupt_at.setdefault(corrupt.round_no, []).append(corrupt)
        #: hot-loop gates for the network: with all three False and
        #: nothing crashed or in flight, step_round skips the fault hooks
        #: entirely, keeping an inert plan's overhead near zero
        self.has_node_events: bool = bool(self.plan.crashes)
        self.has_message_faults: bool = (
            self.plan._randomized() or bool(self.plan.bursts)
        )
        self.has_corruption: bool = bool(self.plan.corrupts)

    def crashes_at(self, round_no: int) -> List[CrashSpec]:
        """Crash specs scheduled to fire at the start of ``round_no``."""
        return self._crash_at.get(round_no, [])

    def recoveries_at(self, round_no: int) -> List[Vertex]:
        """Nodes scheduled to recover at the start of ``round_no``."""
        return self._recover_at.get(round_no, [])

    def corruptions_at(self, round_no: int) -> List[CorruptSpec]:
        """Corruptions scheduled to strike after round ``round_no``."""
        return self._corrupt_at.get(round_no, [])

    def corruption_pending(self, round_no: int) -> bool:
        """True while a corruption is still scheduled at ``round_no`` or later.

        The network keeps ticking (possibly empty) rounds through a
        quiesced run while this holds, so a corruption aimed past the
        natural termination round still lands -- and a repairable victim
        gets its chance to re-converge.
        """
        if not self.has_corruption:
            return False
        return any(future >= round_no for future in self._corrupt_at)

    def schedule(
        self,
        delivery_round: int,
        sender: Vertex,
        receiver: Vertex,
        payload: Any,
        status: str,
    ) -> None:
        """Queue a copy for delivery during ``delivery_round``."""
        self.in_flight.setdefault(delivery_round, []).append(
            (sender, receiver, payload, status)
        )

    def matured(self, round_no: int) -> List[Tuple[Vertex, Vertex, Any, str]]:
        """Pop and return the copies due for delivery this round."""
        return self.in_flight.pop(round_no, [])

    def pending(self, round_no: int) -> bool:
        """True while the fault layer still owes the network an event.

        Either a delayed/duplicate copy is in flight, or a currently
        crashed node has a recovery scheduled at ``round_no`` (the next
        round to step) or later -- both mean an apparently quiet network
        is *not* starved and the scheduler must keep ticking rounds.
        """
        if self.in_flight:
            return True
        if self.corruption_pending(round_no):
            return True
        return any(
            future >= round_no and any(v in self.crashed for v in nodes)
            for future, nodes in self._recover_at.items()
        )

    def summary(self) -> Dict[str, int]:
        """The injection counters as a JSON-plain dict."""
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "crash_events": self.crash_events,
            "recover_events": self.recover_events,
            "corrupt_events": self.corrupt_events,
            "still_crashed": len(self.crashed),
        }
