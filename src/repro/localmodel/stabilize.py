"""Self-stabilizing repair envelopes: detect and fix corrupted outputs.

The fault layer (:mod:`repro.localmodel.faults`) can flip a node's
committed state between rounds (:class:`~repro.localmodel.faults
.CorruptSpec`).  A plain :class:`~repro.localmodel.network.NodeProgram`
never notices -- it already halted, its neighbors already halted, and
the invalid output simply persists, which is why the resilience
classifier flags unrepaired algorithms ``unsafe`` under corruption.
This module supplies the missing half of the self-stabilization story:

* **Local checkability** -- for the library's two output invariants the
  violation is visible in a node's 1-ball: a proper coloring is wrong
  iff some neighbor shares my color; a maximal independent set is wrong
  iff two adjacent members exist or some node has no member in its
  closed neighborhood.  :class:`RepairPolicy` captures exactly that
  1-ball check plus the corresponding repair move.
* **Local repair** -- :class:`RepairableProgram` wraps any inner
  program.  While the inner program runs, the envelope forwards its
  messages untouched; once it halts, the envelope enters a *guard*
  phase: it announces its output to the 1-ball, caches the neighbors'
  announcements, and keeps verifying its own output against that cached
  1-ball.  After a corruption the network re-activates the victim (the
  class declares ``repairable = True``); the victim re-verifies, exposes
  its state for one probe round, and then applies the policy's bounded
  repair move -- priority recoloring from the palette, or local
  re-election for MIS.  Closure holds by construction (a legal
  configuration triggers no repair), and convergence is measured, not
  assumed: :class:`~repro.localmodel.resilience.ValidityMonitor` records
  ``corruption_round``, ``detection_latency``, and ``recovery_rounds``.
* **Measured classification** -- :func:`stabilization_run` executes one
  factory under one fault plan with the monitor attached and folds the
  result into a :class:`StabilizationReport`; the S1 experiment and
  ``benchmarks/bench_chaos.py`` pin its numbers.

Unlike :func:`~repro.localmodel.resilience.resilience_check`'s
``self-healing`` (which demands byte-identical outputs), stabilization
convergence means *reaching a legal configuration*: a victim may repair
to a different valid color than it originally held.

See ``docs/stabilize.md`` for the protocol walkthrough and the repair
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..graphs.adjacency import Graph, Vertex
from .faults import FaultPlan
from .network import NodeContext, NodeProgram, SyncNetwork, vertex_key
from .resilience import Validator, ValidityMonitor, run_validated

__all__ = [
    "RepairPolicy",
    "ColoringRepair",
    "MISRepair",
    "RepairableProgram",
    "repairable",
    "StabilizationReport",
    "stabilization_run",
]


class RepairPolicy:
    """The 1-ball check and bounded repair move for one output invariant.

    ``check`` decides, from a node's own output and its cached neighbor
    outputs, whether the local invariant is violated; ``should_yield``
    implements the priority protocol (a violated node of higher priority
    waits a few rounds for the lower-priority partner to move first);
    ``repair`` produces the corrected output.  All three see only the
    1-ball -- exactly the locality that makes self-stabilizing repair
    possible for locally checkable problems.
    """

    def check(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> bool:
        """True iff the node's output violates the invariant locally."""
        raise NotImplementedError

    def should_yield(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> bool:
        """True iff a lower-priority partner should move first."""
        return False

    def repair(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> Any:
        """The corrected output, computed from the cached 1-ball."""
        raise NotImplementedError


class ColoringRepair(RepairPolicy):
    """Priority recoloring from a bounded palette.

    A node is in violation when its color is missing, outside the
    palette ``first_color .. first_color + palette_size - 1``, or equal
    to a cached neighbor's color.  The priority protocol: among a
    conflicting pair the node with the *larger*
    :func:`~repro.localmodel.network.vertex_key` moves first; the
    smaller-key node yields briefly (so simultaneous repairs do not
    livelock) but moves anyway once the conflict persists -- the partner
    may be asleep.  The repair move picks the smallest palette color not
    used in the cached 1-ball, the classic greedy step of
    Barenboim-Elkin-style deterministic recoloring.
    """

    def __init__(self, palette_size: int, first_color: int = 0):
        """Repair within the palette ``first_color .. first_color + palette_size - 1``.

        ``first_color=1`` matches :class:`~repro.baselines
        .coloring_baselines.RandomizedColoringProgram`'s 1-based palette.
        """
        if palette_size < 1:
            raise ValueError(f"palette_size must be >= 1, got {palette_size}")
        self.palette_size = palette_size
        self.first_color = first_color

    def _conflicts(
        self, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> List[Vertex]:
        return [u for u, c in neighbors.items() if c == output]

    def check(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> bool:
        """Violated iff the color is missing, out of palette, or shared."""
        if not isinstance(output, int) or isinstance(output, bool):
            return True
        if not self.first_color <= output < self.first_color + self.palette_size:
            return True
        return bool(self._conflicts(output, neighbors))

    def should_yield(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> bool:
        """Yield while every conflicting partner has the larger key."""
        conflicts = self._conflicts(output, neighbors)
        if not conflicts:
            return False  # a type/palette violation is mine alone to fix
        me = vertex_key(node)
        return all(vertex_key(u) > me for u in conflicts)

    def repair(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> Any:
        """The smallest palette color free in the cached 1-ball."""
        taken = {c for c in neighbors.values() if isinstance(c, int)}
        palette = range(self.first_color, self.first_color + self.palette_size)
        for color in palette:
            if color not in taken and color != output:
                return color
        for color in palette:  # pragma: no cover - full ball
            if color not in taken:
                return color
        return output  # pragma: no cover - palette exhausted


class MISRepair(RepairPolicy):
    """Local re-election for maximal-independent-set membership.

    A node is in violation when its flag is not a boolean, when it is a
    member adjacent to another cached member, or when it is a non-member
    with no cached member in its neighborhood (it went uncovered).  The
    repair move re-elects locally: leave the set if a cached neighbor is
    a member, join otherwise.  Priority: among two adjacent members the
    smaller-key node is the rightful keeper and briefly yields (its
    partner should leave); the larger-key member leaves immediately.
    """

    def _members(self, neighbors: Mapping[Vertex, Any]) -> List[Vertex]:
        return [u for u, flag in neighbors.items() if flag is True]

    def check(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> bool:
        """Violated iff the flag is non-boolean, clashing, or uncovered."""
        if not isinstance(output, bool):
            return True
        members = self._members(neighbors)
        if output:
            return bool(members)
        return not members

    def should_yield(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> bool:
        """A member yields while every adjacent member has the larger key."""
        if output is not True:
            return False
        members = self._members(neighbors)
        if not members:
            return False
        me = vertex_key(node)
        return all(vertex_key(u) > me for u in members)

    def repair(
        self, node: Vertex, output: Any, neighbors: Mapping[Vertex, Any]
    ) -> Any:
        """Re-elect from the cached 1-ball: in iff no neighbor is in."""
        return not self._members(neighbors)


class RepairableProgram(NodeProgram):
    """Envelope adding continuous 1-ball verification and bounded repair.

    Phase one drives the wrapped inner program to completion, forwarding
    its messages tagged ``("in", payload)``.  Phase two (*guard*) mirrors
    the inner output, announces it as ``("st", output)``, caches the
    neighbors' announcements, and verifies the output against the cached
    1-ball every round via the :class:`RepairPolicy`.  The program halts
    after ``quiet_rounds`` consecutive clean verifications.

    On violation -- typically after the fault layer corrupted this node
    and re-activated it (the class declares ``repairable = True``, the
    hook :class:`~repro.localmodel.network.SyncNetwork` keys on) -- the
    envelope first spends one probe round exposing its state, honours
    the policy's priority yield for up to ``patience`` rounds, then
    applies one repair move.  ``repair_budget`` bounds the total repair
    moves; an exhausted budget halts the node in whatever state it is in
    (the run then classifies unsafe, loudly, instead of spinning).
    """

    always_active = True
    #: the marker the network's corruption hook re-activates on
    repairable = True

    def __init__(
        self,
        node: Vertex,
        neighbors: List[Vertex],
        inner_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
        policy: RepairPolicy,
        quiet_rounds: int = 2,
        repair_budget: int = 8,
        patience: int = 3,
    ):
        """Wrap ``inner_factory(node, neighbors)`` under ``policy``.

        ``quiet_rounds`` clean verifications end the guard phase;
        ``repair_budget`` bounds total repair moves; ``patience`` bounds
        the priority yield before a violated node repairs regardless.
        """
        super().__init__(node, neighbors)
        if quiet_rounds < 1:
            raise ValueError(f"quiet_rounds must be >= 1, got {quiet_rounds}")
        if repair_budget < 0:
            raise ValueError(f"repair_budget must be >= 0, got {repair_budget}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.inner = inner_factory(node, list(neighbors))
        self.policy = policy
        self.quiet_rounds = quiet_rounds
        self.repair_budget = repair_budget
        self.patience = patience
        #: repair moves taken so far (read by the stabilization report)
        self.repairs = 0
        #: cached 1-ball: last announced output per neighbor
        self.nbr_state: Dict[Vertex, Any] = {}
        self._budget_left = repair_budget
        self._quiet = 0
        self._strikes = 0

    def _collect(self, ctx: NodeContext) -> Dict[Vertex, Any]:
        """Split the inbox: cache ``st`` announcements, return inner inbox."""
        inner_inbox: Dict[Vertex, Any] = {}
        for u, message in ctx.inbox.items():
            tag = message[0]
            if tag == "in":
                inner_inbox[u] = message[1]
            elif tag == "st":
                self.nbr_state[u] = message[1]
            else:  # ("both", inner_payload, output)
                inner_inbox[u] = message[1]
                self.nbr_state[u] = message[2]
        return inner_inbox

    def _should_step_inner(
        self, inner_inbox: Mapping[Vertex, Any], round_no: int
    ) -> bool:
        if self.inner.done:
            return False
        if round_no == 0 or inner_inbox or self.inner.always_active:
            return True
        if self.inner._wake_requested:
            self.inner._wake_requested = False
            return True
        return False

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """One round: drive the inner program, or guard and repair."""
        inner_inbox = self._collect(ctx)
        if not self.inner.done:
            fresh: Mapping[Vertex, Any] = {}
            if self._should_step_inner(inner_inbox, ctx.round_number):
                inner_ctx = NodeContext(
                    node=self.node,
                    neighbors=list(self.neighbors),
                    round_number=ctx.round_number,
                    inbox=inner_inbox,
                )
                fresh = self.inner.step(inner_ctx) or {}
            self.output = self.inner.output
            if not self.inner.done:
                return {u: ("in", payload) for u, payload in fresh.items()}
            # the inner program just halted: enter the guard phase,
            # announcing the committed output alongside any final message
            self._quiet = 0
            self._strikes = 0
            outbox: Dict[Vertex, Any] = {}
            for u in self.neighbors:
                if u in fresh:
                    outbox[u] = ("both", fresh[u], self.output)
                else:
                    outbox[u] = ("st", self.output)
            return outbox
        return self._guard_step()

    def _guard_step(self) -> Mapping[Vertex, Any]:
        """Verify the output against the cached 1-ball; repair on violation."""
        if self.policy.check(self.node, self.output, self.nbr_state):
            self._quiet = 0
            if self._budget_left <= 0:
                # bounded repair: give up loudly in whatever state we
                # are in rather than spinning forever
                self.done = True
                return {}
            self._strikes += 1
            yielding = (
                self._strikes <= self.patience
                and self.policy.should_yield(self.node, self.output, self.nbr_state)
            )
            if self._strikes >= 2 and not yielding:
                self.output = self.policy.repair(
                    self.node, self.output, self.nbr_state
                )
                self.repairs += 1
                self._budget_left -= 1
                self._strikes = 0
            return self.broadcast(("st", self.output))
        self._strikes = 0
        self._quiet += 1
        if self._quiet >= self.quiet_rounds:
            self.done = True
            return {}
        return self.broadcast(("st", self.output))


def repairable(
    inner_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    policy_factory: Callable[[], RepairPolicy],
    quiet_rounds: int = 2,
    repair_budget: int = 8,
    patience: int = 3,
) -> Callable[[Vertex, List[Vertex]], RepairableProgram]:
    """A program factory wrapping ``inner_factory`` in :class:`RepairableProgram`.

    ``policy_factory`` builds one fresh :class:`RepairPolicy` per node
    (policies are stateless, but per-node instances keep the factory
    contract re-constructible for the shadow and resilience sweeps).
    """

    def factory(node: Vertex, neighbors: List[Vertex]) -> RepairableProgram:
        return RepairableProgram(
            node,
            neighbors,
            inner_factory,
            policy_factory(),
            quiet_rounds=quiet_rounds,
            repair_budget=repair_budget,
            patience=patience,
        )

    return factory


@dataclass(frozen=True)
class StabilizationReport:
    """One factory under one fault plan, with the stabilization profile.

    ``classification`` follows the resilience vocabulary but measures
    *convergence to a legal configuration*: ``unsafe`` when the final
    outputs violate the invariant, ``self-healing`` when the run
    completed and re-legalized, ``degraded-but-valid`` otherwise (valid
    but incomplete -- e.g. a crash-stopped node).  The monitor-derived
    fields (``corruption_round``, ``detection_latency``,
    ``recovery_rounds``) quantify the convergence; ``repairs`` counts
    the repair moves the envelopes actually took.
    """

    classification: str
    rounds: int
    baseline_rounds: int
    complete: bool
    valid: bool
    matches_baseline: bool
    corruption_round: Optional[int]
    first_violation_round: Optional[int]
    detection_latency: Optional[int]
    recovery_rounds: Optional[int]
    recovered: bool
    repairs: int
    injected: Dict[str, int]
    problems: Tuple[str, ...] = ()
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """The report as a JSON-plain dict (runner cells, CLI JSON)."""
        return {
            "classification": self.classification,
            "rounds": self.rounds,
            "baseline_rounds": self.baseline_rounds,
            "complete": self.complete,
            "valid": self.valid,
            "matches_baseline": self.matches_baseline,
            "corruption_round": self.corruption_round,
            "first_violation_round": self.first_violation_round,
            "detection_latency": self.detection_latency,
            "recovery_rounds": self.recovery_rounds,
            "recovered": self.recovered,
            "repairs": self.repairs,
            "injected": dict(self.injected),
            "problems": list(self.problems),
            "error": self.error,
        }


def stabilization_run(
    graph: Graph,
    program_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    validator: Validator,
    faults: FaultPlan,
    max_rounds: int = 4_000,
) -> StabilizationReport:
    """Run one factory under one fault plan with validity monitoring.

    The fault-free baseline run supplies the reference outputs and round
    count; the monitored faulty run then yields the stabilization
    profile (see :class:`StabilizationReport`).  A run that starves or
    exhausts ``max_rounds`` is incomplete, never silently wrong: its
    partial outputs are still validated.
    """
    base_net = SyncNetwork(graph, program_factory)
    baseline = base_net.run(max_rounds=max_rounds)
    baseline_rounds = base_net.stats.rounds

    net = SyncNetwork(graph, program_factory, faults=faults)
    monitor = ValidityMonitor(net, validator)
    net.add_sink(monitor)
    outputs, error, problems = run_validated(net, validator, max_rounds)
    valid = not problems
    complete = outputs is not None
    if not valid:
        classification = "unsafe"
    elif complete:
        classification = "self-healing"
    else:
        classification = "degraded-but-valid"
    return StabilizationReport(
        classification=classification,
        rounds=net.stats.rounds,
        baseline_rounds=baseline_rounds,
        complete=complete,
        valid=valid,
        matches_baseline=complete and outputs == baseline,
        corruption_round=monitor.corruption_round,
        first_violation_round=monitor.first_violation_round,
        detection_latency=monitor.detection_latency,
        recovery_rounds=monitor.recovery_rounds,
        recovered=monitor.recovered and valid,
        repairs=sum(
            p.repairs
            for p in net.programs.values()
            if isinstance(p, RepairableProgram)
        ),
        injected=net.fault_summary() or {},
        problems=problems,
        error=error,
    )
