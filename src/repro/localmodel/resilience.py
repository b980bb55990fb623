"""Robustness harness: which programs survive an unreliable network?

:mod:`repro.localmodel.faults` makes the simulator drop, duplicate, and
delay messages and crash nodes.  This module answers the question that
motivates it: *which of our node programs degrade gracefully, and which
silently emit invalid outputs?*  Three pieces:

* **Invariant monitors** -- :class:`ValidityMonitor` is a
  :class:`~repro.localmodel.network.TraceSink` that re-checks a safety
  invariant (proper coloring, independence) over the *tentative* outputs
  after every round, recording the first round each violation appears;
* **A retry/ack wrapper** -- :class:`ReliableProgram` (via
  :func:`with_retries`) wraps any :class:`~repro.localmodel.network
  .NodeProgram` in a sequence-numbered envelope protocol: every data
  message is acknowledged, unacknowledged messages are re-sent after a
  timeout with exponential backoff and a bounded resend budget, and
  duplicates are filtered before the inner program sees them.  The inner
  program observes real round numbers, so every retry is charged against
  round complexity;
* **The classification sweep** -- :func:`resilience_check` runs one
  program across a grid of fault plans and classifies it

  - ``self-healing``   -- every faulty run completed with outputs
    identical to the fault-free baseline;
  - ``degraded-but-valid`` -- outputs stayed valid (or the run failed
    *loudly* by starving/timing out) but differ from the baseline or
    never completed;
  - ``unsafe``         -- some faulty run silently emitted an output
    violating its safety invariant.

``repro faults --sweep`` runs :func:`resilience_check` over every stock
program (the F7 experiment pins the results); see ``docs/faults.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..graphs.adjacency import Graph, Vertex
from .faults import FaultPlan
from .network import (
    MessageRecord,
    NodeContext,
    NodeProgram,
    SyncNetwork,
    TraceSink,
)

__all__ = [
    "ValidityMonitor",
    "ReliableProgram",
    "with_retries",
    "FaultOutcome",
    "ResilienceReport",
    "resilience_check",
    "run_validated",
    "fault_grid",
    "DEFAULT_FAULT_GRID",
    "proper_coloring_validator",
    "independent_set_validator",
    "maximal_independent_set_validator",
    "stock_validator",
    "CLASSIFICATIONS",
]

#: The three verdicts of :func:`resilience_check`, strongest first.
CLASSIFICATIONS = ("self-healing", "degraded-but-valid", "unsafe")

Validator = Callable[[Graph, Dict[Vertex, Any]], List[str]]


# ---------------------------------------------------------------------------
# safety invariants
# ---------------------------------------------------------------------------

def proper_coloring_validator(graph: Graph, outputs: Dict[Vertex, Any]) -> List[str]:
    """Violations of properness over the committed (non-None) colors."""
    problems: List[str] = []
    for v, color in outputs.items():
        if color is None:
            continue
        for u in graph.neighbors_view(v):
            if outputs.get(u) is not None and outputs[u] == color and repr(v) < repr(u):
                problems.append(f"adjacent nodes {v!r} and {u!r} share color {color!r}")
    return problems


def independent_set_validator(graph: Graph, outputs: Dict[Vertex, Any]) -> List[str]:
    """Violations of independence over the committed membership bits."""
    problems: List[str] = []
    for v, joined in outputs.items():
        if not joined:
            continue
        for u in graph.neighbors_view(v):
            if outputs.get(u) and repr(v) < repr(u):
                problems.append(f"adjacent nodes {v!r} and {u!r} both joined the set")
    return problems


def maximal_independent_set_validator(
    graph: Graph, outputs: Dict[Vertex, Any]
) -> List[str]:
    """Independence plus maximality over fully committed neighborhoods.

    The stabilization experiments need this stronger check: a corrupted
    member flipped *out* of the set violates nothing the independence
    validator can see, but it leaves its neighborhood uncovered.  A node
    counts as uncovered only when it and every neighbor have committed
    boolean ``False`` -- undecided (``None``) nodes anywhere in the
    closed neighborhood suppress the check, so a partially completed run
    under channel faults stays degraded rather than unsafe.
    """
    problems = independent_set_validator(graph, outputs)
    for v, joined in outputs.items():
        if joined is not False:
            continue
        closed = [outputs.get(u) for u in graph.neighbors_view(v)]
        if all(flag is False for flag in closed):
            problems.append(
                f"node {v!r} and its whole neighborhood are outside the set"
            )
    return problems


def _bfs_validator(root: Vertex) -> Validator:
    """Distances may only *overestimate* under message loss, never lie low."""

    def validate(graph: Graph, outputs: Dict[Vertex, Any]) -> List[str]:
        true_dist: Dict[Vertex, int] = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[Vertex] = []
            for v in frontier:
                for u in graph.neighbors_view(v):
                    if u not in true_dist:
                        true_dist[u] = true_dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        problems: List[str] = []
        for v, claimed in outputs.items():
            if claimed is None:
                continue
            truth = true_dist.get(v)
            if truth is None or claimed < truth:
                problems.append(
                    f"node {v!r} claims distance {claimed} but the true "
                    f"distance is {truth}"
                )
        return problems

    return validate


def _leader_validator(graph: Graph, outputs: Dict[Vertex, Any]) -> List[str]:
    """An elected leader must at least be an existing vertex id."""
    ids = set(graph.vertices())
    return [
        f"node {v!r} elected non-existent leader {leader!r}"
        for v, leader in outputs.items()
        if leader is not None and leader not in ids
    ]


def _echo_validator(graph: Graph, outputs: Dict[Vertex, Any]) -> List[str]:
    """A convergecast count can undershoot under loss but never overshoot."""
    n = len(graph)
    return [
        f"node {v!r} reports subtree size {count} on a {n}-node tree"
        for v, count in outputs.items()
        if count is not None and not 1 <= count <= n
    ]


def _gather_validator(graph: Graph, outputs: Dict[Vertex, Any]) -> List[str]:
    """A gathered ball may be incomplete under loss, but never wrong."""
    problems: List[str] = []
    for v, ball in outputs.items():
        if ball is None:
            continue
        known = set(ball.states)
        reachable = {v}
        frontier = [v]
        for _ in range(ball.radius):
            nxt: List[Vertex] = []
            for w in frontier:
                for u in graph.neighbors_view(w):
                    if u not in reachable:
                        reachable.add(u)
                        nxt.append(u)
            frontier = nxt
        extra = known - reachable
        if extra:
            problems.append(
                f"node {v!r} claims to know {sorted(map(repr, extra))} "
                f"outside its radius-{ball.radius} ball"
            )
        for a, b in ball.edges:
            if not graph.has_edge(a, b):
                problems.append(f"node {v!r} claims non-edge {(a, b)!r}")
    return problems


def stock_validator(kind: str, graph: Graph, root: Optional[Vertex] = None) -> Validator:
    """The safety validator for one stock-program kind.

    ``kind`` is one of ``coloring`` (proper coloring), ``mis``
    (independence), ``mis-maximal`` (independence plus maximality over
    fully committed neighborhoods -- the stabilization invariant),
    ``bfs`` (needs ``root``), ``leader``, ``echo``, ``gather``.
    Validators check *safety* only -- what a partial or degraded output
    must never violate -- so an incomplete answer under faults is
    degraded, not unsafe.
    """
    if kind == "coloring":
        return proper_coloring_validator
    if kind == "mis":
        return independent_set_validator
    if kind == "mis-maximal":
        return maximal_independent_set_validator
    if kind == "bfs":
        if root is None:
            raise ValueError("bfs validator needs the root vertex")
        return _bfs_validator(root)
    if kind == "leader":
        return _leader_validator
    if kind == "echo":
        return _echo_validator
    if kind == "gather":
        return _gather_validator
    raise ValueError(
        f"unknown validator kind {kind!r}; expected coloring/mis/"
        "mis-maximal/bfs/leader/echo/gather"
    )


# ---------------------------------------------------------------------------
# round-level invariant monitoring
# ---------------------------------------------------------------------------

class ValidityMonitor(TraceSink):
    """Re-checks a safety invariant over tentative outputs every round.

    Attach *after* constructing the network (it needs to read program
    state): ``monitor = ValidityMonitor(net, validator); net.add_sink
    (monitor)``.  After each round it validates the current per-node
    ``output`` attributes and records the rounds at which violations
    were present; :attr:`first_violation_round` is ``None`` for a run
    that never went invalid, which is the fact the resilience
    classification consumes.

    Under state corruption (:class:`~repro.localmodel.faults
    .CorruptSpec`) the monitor additionally reports the stabilization
    profile: :attr:`corruption_round` (when the first corruption
    actually mutated state), :attr:`detection_latency` (rounds from that
    corruption until the monitor first observed a violation), and
    :attr:`recovery_rounds` (length of the observed invalid window when
    the run re-legalized; ``None`` while still invalid).  All three are
    ``None``/0 in the obvious degenerate cases -- no corruption, no
    observed violation -- so a fault-free run reads as closure: legal
    configurations stay legal.
    """

    def __init__(self, network: SyncNetwork, validator: Validator):
        """Watch ``network``, re-running ``validator`` after every round."""
        self.network = network
        self.validator = validator
        self.violations: List[Tuple[int, List[str]]] = []
        self.last_round: Optional[int] = None

    @property
    def first_violation_round(self) -> Optional[int]:
        """The earliest round with an invariant violation, if any."""
        return self.violations[0][0] if self.violations else None

    @property
    def corruption_round(self) -> Optional[int]:
        """The round after which state corruption first struck, if any."""
        runtime = self.network._fault_runtime
        if runtime is None or not runtime.corruption_rounds:
            return None
        return runtime.corruption_rounds[0]

    @property
    def detection_latency(self) -> Optional[int]:
        """Rounds from the first corruption to the first observed violation.

        ``None`` when no corruption struck or no violation was ever
        observed (an ineffective corruption, or one repaired within the
        same round it landed).
        """
        corrupted = self.corruption_round
        first = self.first_violation_round
        if corrupted is None or first is None or first < corrupted:
            return None
        return first - corrupted

    @property
    def recovered(self) -> bool:
        """True when the final observed round satisfied the invariant."""
        if self.last_round is None:
            return not self.violations
        return not self.violations or self.violations[-1][0] < self.last_round

    @property
    def recovery_rounds(self) -> Optional[int]:
        """Length of the observed invalid window, once re-legalized.

        0 when the run never went invalid (closure); ``None`` when the
        last observed round was still invalid (no convergence).
        """
        if not self.violations:
            return 0
        if not self.recovered:
            return None
        return self.violations[-1][0] - self.violations[0][0] + 1

    def on_round(
        self,
        round_no: int,
        messages: List[MessageRecord],
        completed: List[Vertex],
        active_count: int,
    ) -> None:
        """Validate the tentative outputs as they stand after this round."""
        self.last_round = round_no
        tentative = {
            v: p.output for v, p in self.network.programs.items()
        }
        problems = self.validator(self.network.graph, tentative)
        if problems:
            self.violations.append((round_no, problems))


# ---------------------------------------------------------------------------
# the retry/ack wrapper
# ---------------------------------------------------------------------------

@dataclass
class _Outstanding:
    """One unacknowledged data message awaiting resend or ack."""

    payload: Any
    resends: int
    next_resend: int


class ReliableProgram(NodeProgram):
    """Wraps a node program in an ack/retry envelope protocol.

    Every inner message travels as a sequence-numbered ``("data", seq,
    payload)`` entry inside a per-edge envelope ``("env", acks, data)``;
    the receiver acknowledges each sequence number in its next round's
    envelope and delivers each number to the inner program exactly once
    (network duplicates and redundant resends are filtered).  A message
    unacknowledged after ``timeout`` rounds is re-sent, each retry
    doubling its wait (exponential backoff), up to ``max_resends``
    times.  Rounds spent waiting are ordinary rounds -- the inner
    program sees the true round number, so reliability is *paid for* in
    round complexity, exactly as the issue demands of a fair comparison.

    The wrapper steps the inner program under the scheduler's own
    contract: at round 0, when data arrived, when the inner program
    requested a wakeup, or when it declares ``always_active``.  If the
    inner program emits several messages to the same neighbor before the
    link recovers, they are queued and delivered one per round in order.
    """

    always_active = True

    def __init__(
        self,
        node: Vertex,
        neighbors: List[Vertex],
        inner_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
        timeout: int = 2,
        max_resends: int = 3,
    ):
        """Wrap ``inner_factory(node, neighbors)`` in the ack envelope.

        ``timeout`` is the rounds to wait before the first resend (then
        exponential backoff); ``max_resends`` bounds the retries per
        message before the envelope gives up (counted in ``gave_up``).
        """
        super().__init__(node, neighbors)
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1 round, got {timeout}")
        if max_resends < 0:
            raise ValueError(f"max_resends must be >= 0, got {max_resends}")
        self.inner = inner_factory(node, list(neighbors))
        self.timeout = timeout
        self.max_resends = max_resends
        self.gave_up = 0
        self._next_seq = 0
        #: neighbor -> {seq: outstanding message}
        self._outstanding: Dict[Vertex, Dict[int, _Outstanding]] = {}
        #: neighbor -> seqs already delivered to the inner program
        self._seen: Dict[Vertex, set] = {}
        #: neighbor -> payloads waiting to enter the inner inbox in order
        self._inbound: Dict[Vertex, List[Any]] = {}
        #: neighbor -> seqs to acknowledge in the next envelope
        self._ack_due: Dict[Vertex, List[int]] = {}

    def _receive(self, ctx: NodeContext) -> None:
        """Unwrap envelopes: collect acks owed and de-duplicated data."""
        for u, envelope in ctx.inbox.items():
            tag, acks, data = envelope
            if tag != "env":  # pragma: no cover - foreign traffic guard
                raise ValueError(f"non-envelope message from {u!r}: {envelope!r}")
            mine = self._outstanding.get(u)
            if mine:
                for seq in acks:
                    mine.pop(seq, None)
            seen = self._seen.setdefault(u, set())
            for seq, payload in data:
                self._ack_due.setdefault(u, []).append(seq)
                if seq not in seen:
                    seen.add(seq)
                    self._inbound.setdefault(u, []).append(payload)

    def _should_step_inner(self, inner_inbox: Mapping[Vertex, Any], round_no: int) -> bool:
        if self.inner.done:
            return False
        if round_no == 0 or inner_inbox or self.inner.always_active:
            return True
        if self.inner._wake_requested:
            self.inner._wake_requested = False
            return True
        return False

    def step(self, ctx: NodeContext) -> Mapping[Vertex, Any]:
        """One synchronous round: unwrap, step the inner program, resend."""
        self._receive(ctx)

        inner_inbox: Dict[Vertex, Any] = {}
        for u, queue in self._inbound.items():
            if queue:
                inner_inbox[u] = queue.pop(0)

        fresh: Mapping[Vertex, Any] = {}
        if self._should_step_inner(inner_inbox, ctx.round_number):
            inner_ctx = NodeContext(
                node=self.node,
                neighbors=list(self.neighbors),
                round_number=ctx.round_number,
                inbox=inner_inbox,
            )
            fresh = self.inner.step(inner_ctx) or {}

        data_out: Dict[Vertex, List[Tuple[int, Any]]] = {}
        for u, payload in fresh.items():
            seq = self._next_seq
            self._next_seq += 1
            self._outstanding.setdefault(u, {})[seq] = _Outstanding(
                payload=payload,
                resends=0,
                next_resend=ctx.round_number + self.timeout,
            )
            data_out.setdefault(u, []).append((seq, payload))

        # timed-out messages: resend with backoff, or give up
        for u, entries in self._outstanding.items():
            for seq in list(entries):
                entry = entries[seq]
                if ctx.round_number < entry.next_resend:
                    continue
                if entry.resends >= self.max_resends:
                    del entries[seq]
                    self.gave_up += 1
                    continue
                entry.resends += 1
                entry.next_resend = ctx.round_number + self.timeout * (
                    2 ** entry.resends
                )
                data_out.setdefault(u, []).append((seq, entry.payload))

        outbox: Dict[Vertex, Any] = {}
        targets = set(data_out) | set(self._ack_due)
        for u in targets:
            acks = tuple(self._ack_due.pop(u, ()))
            data = tuple(data_out.get(u, ()))
            outbox[u] = ("env", acks, data)

        still_waiting = any(self._outstanding.get(u) for u in self._outstanding)
        if self.inner.done and not still_waiting and not outbox:
            self.done = True
            self.output = self.inner.output
        elif self.inner.done:
            self.output = self.inner.output
        return outbox


def with_retries(
    inner_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    timeout: int = 2,
    max_resends: int = 3,
) -> Callable[[Vertex, List[Vertex]], ReliableProgram]:
    """A program factory wrapping ``inner_factory`` in :class:`ReliableProgram`."""

    def factory(node: Vertex, neighbors: List[Vertex]) -> ReliableProgram:
        return ReliableProgram(
            node, neighbors, inner_factory, timeout=timeout, max_resends=max_resends
        )

    return factory


# ---------------------------------------------------------------------------
# the classification sweep
# ---------------------------------------------------------------------------

def fault_grid(
    drop_rates: Sequence[float] = (0.05, 0.15, 0.3),
    seeds: Sequence[int] = (1, 2),
    burst: Optional[Tuple[int, int]] = (2, 4),
) -> Tuple[FaultPlan, ...]:
    """The default sweep grid: Bernoulli drops crossed with seeds + a burst."""
    plans = [
        FaultPlan(seed=seed, drop=rate) for rate in drop_rates for seed in seeds
    ]
    if burst is not None:
        plans.append(FaultPlan(bursts=(burst,)))
    return tuple(plans)


#: The grid ``repro faults --sweep`` and the F7 experiment run by default.
DEFAULT_FAULT_GRID: Tuple[FaultPlan, ...] = fault_grid()


@dataclass(frozen=True)
class FaultOutcome:
    """What one program did under one fault plan."""

    plan: str
    complete: bool
    valid: bool
    matches_baseline: bool
    rounds: int
    extra_rounds: int
    injected: Dict[str, int]
    problems: Tuple[str, ...] = ()
    error: Optional[str] = None


@dataclass
class ResilienceReport:
    """Outcome of :func:`resilience_check`: grid results + classification."""

    baseline_rounds: int
    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def classification(self) -> str:
        """``self-healing`` / ``degraded-but-valid`` / ``unsafe`` (see module doc)."""
        if any(not o.valid for o in self.outcomes):
            return "unsafe"
        if all(o.complete and o.matches_baseline for o in self.outcomes):
            return "self-healing"
        return "degraded-but-valid"

    @property
    def rounds_to_recover(self) -> Optional[int]:
        """Worst extra rounds over completed runs (None if none completed)."""
        completed = [o.extra_rounds for o in self.outcomes if o.complete]
        return max(completed) if completed else None


def run_validated(
    network: SyncNetwork, validator: Validator, max_rounds: int
) -> Tuple[Optional[Dict[Vertex, Any]], Optional[str], Tuple[str, ...]]:
    """Run an already-built network and validate its final outputs.

    Returns ``(outputs, error, problems)``.  A run that starves or
    exhausts ``max_rounds`` is a *loud* failure, not a silently wrong
    answer: ``outputs`` is then ``None`` and ``error`` the first line of
    the ``RuntimeError``.  ``problems`` are the validator's findings on
    the final, possibly partial, outputs.  Callers build the network
    themselves, so monitors and sinks can be attached first.
    """
    outputs: Optional[Dict[Vertex, Any]] = None
    error: Optional[str] = None
    try:
        outputs = network.run(max_rounds=max_rounds)
    except RuntimeError as exc:
        error = str(exc).splitlines()[0]
    return outputs, error, tuple(validator(network.graph, network.outputs()))


def resilience_check(
    graph: Graph,
    program_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    validator: Validator,
    grid: Sequence[FaultPlan] = DEFAULT_FAULT_GRID,
    max_rounds: int = 10_000,
) -> ResilienceReport:
    """Run one program across a grid of fault plans and classify it.

    The baseline (fault-free) run supplies the reference outputs and
    round count; each grid plan then runs the same factory on the same
    graph.  A run that starves or exhausts ``max_rounds`` counts as
    incomplete (degraded) and its partial outputs are still validated --
    the one unforgivable outcome is an *invalid* output, which makes the
    whole program ``unsafe``.  Analogous to
    :func:`~repro.localmodel.shadow.shadow_check`, and like it requires
    a re-constructible program factory.  ``grid`` is any sequence of
    plans, corruption plans included.
    """
    base_net = SyncNetwork(graph, program_factory)
    try:
        baseline = base_net.run(max_rounds=max_rounds)
    except RuntimeError as exc:
        raise RuntimeError(
            "baseline (fault-free) run did not complete: "
            f"{str(exc).splitlines()[0]}"
        ) from None
    baseline_rounds = base_net.stats.rounds

    report = ResilienceReport(baseline_rounds=baseline_rounds)
    for plan in grid:
        net = SyncNetwork(graph, program_factory, faults=plan)
        outputs, error, problems = run_validated(net, validator, max_rounds)
        complete = outputs is not None
        report.outcomes.append(
            FaultOutcome(
                plan=plan.spec(),
                complete=complete,
                valid=not problems,
                matches_baseline=complete and outputs == baseline,
                rounds=net.stats.rounds,
                extra_rounds=net.stats.rounds - baseline_rounds,
                injected=net.fault_summary() or {},
                problems=problems,
                error=error,
            )
        )
    return report
