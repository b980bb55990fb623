"""Chaos-soak harness: fuzz randomized fault plans, minimize failures.

The resilience sweep (:func:`~repro.localmodel.resilience
.resilience_check`) classifies programs against a small hand-picked
grid.  This module goes the other way: :func:`chaos_soak` throws *N*
seeded randomized :class:`~repro.localmodel.faults.FaultPlan`\\ s --
channel faults and state corruption mixed -- at a program suite and
records every run whose final outputs violate the safety invariant or
that dies outright.  Each trial is a pure function of ``(seed, trial
index)``, so the whole soak replays bit-for-bit.

When a trial fails, :func:`minimize_plan` delta-debugs the plan: it
greedily removes whole fault atoms (each burst window, each crash, each
corruption, each Bernoulli channel probability) while the failure
persists, then halves the surviving probabilities, and finally verifies
that the minimized plan still fails.  The result prints as the
:meth:`~repro.localmodel.faults.FaultPlan.spec` grammar string, so every
chaos finding is a one-line deterministic repro for ``repro faults``.

``repro chaos`` drives this over the stock-program suite; the S1
experiment and ``benchmarks/bench_chaos.py`` pin the soak's aggregate
behaviour.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.adjacency import Graph, Vertex
from .faults import CORRUPT_KINDS, CorruptSpec, CrashSpec, FaultPlan
from .network import NodeProgram, SyncNetwork, vertex_key
from .resilience import Validator, run_validated

__all__ = [
    "ChaosTrial",
    "ChaosReport",
    "random_fault_plan",
    "minimize_plan",
    "chaos_soak",
]

#: suite entry: (program name, graph, program factory, safety validator)
SuiteEntry = Tuple[
    str, Graph, Callable[[Vertex, List[Vertex]], NodeProgram], Validator
]


def _rng(seed: int, *salt: Any) -> random.Random:
    """A deterministic stream keyed on ``(seed, *salt)`` (crc32, like faults)."""
    return random.Random(zlib.crc32(repr((seed,) + salt).encode("utf8")))


def random_fault_plan(
    seed: int,
    nodes: Sequence[Vertex],
    max_round: int = 12,
    kinds: Sequence[str] = CORRUPT_KINDS,
) -> FaultPlan:
    """One seeded randomized fault plan mixing channel faults and corruption.

    Draws drop/duplicate/delay probabilities (biased toward 0 so many
    trials stress a single fault class), at most one burst window, at
    most one crash (always with a recovery round -- crash-stop trivially
    fails every completion check and would drown the interesting
    findings), and up to two corruption events over ``nodes`` within
    ``max_round``.  A draw where everything came up empty is re-armed
    with one corruption, so no trial is a silent no-op.
    """
    if not nodes:
        raise ValueError("random_fault_plan needs a non-empty node sequence")
    if max_round < 1:
        raise ValueError(f"max_round must be >= 1, got {max_round}")
    rng = _rng(seed, "chaos-plan")
    ordered = sorted(nodes, key=vertex_key)
    drop = rng.choice((0.0, 0.0, 0.0, 0.05, 0.15, 0.3))
    duplicate = rng.choice((0.0, 0.0, 0.0, 0.1))
    delay = rng.choice((0.0, 0.0, 0.0, 0.1))
    max_delay = rng.randint(1, 3)
    bursts: Tuple[Tuple[int, int], ...] = ()
    if rng.random() < 0.25:
        start = rng.randrange(max_round)
        bursts = ((start, start + rng.randint(0, 2)),)
    crashes: Tuple[CrashSpec, ...] = ()
    if rng.random() < 0.4:
        crash_round = rng.randrange(max_round)
        crashes = (
            CrashSpec(
                node=rng.choice(ordered),
                crash_round=crash_round,
                recover_round=crash_round + rng.randint(1, 4),
            ),
        )
    corrupt_count = rng.choice((0, 1, 1, 2))
    corrupts: List[CorruptSpec] = []
    victims = list(ordered)
    for _ in range(min(corrupt_count, len(victims))):
        victim = victims.pop(rng.randrange(len(victims)))
        corrupts.append(
            CorruptSpec(victim, rng.randrange(max_round), rng.choice(tuple(kinds)))
        )
    plan = FaultPlan(
        seed=seed,
        drop=drop,
        duplicate=duplicate,
        delay=delay,
        max_delay=max_delay,
        bursts=bursts,
        crashes=crashes,
        corrupts=tuple(corrupts),
    )
    if plan.is_empty():
        plan = dataclasses.replace(
            plan,
            corrupts=(
                CorruptSpec(
                    rng.choice(ordered),
                    rng.randrange(max_round),
                    rng.choice(tuple(kinds)),
                ),
            ),
        )
    return plan


@dataclass(frozen=True)
class ChaosTrial:
    """One fuzz trial: the plan thrown, what broke, and the minimal repro.

    ``kind`` is ``None`` for a passing trial, else ``invalid`` (final
    outputs violate the safety invariant), ``stalled`` (starvation or
    round-budget exhaustion -- loud, but still a finding worth a repro),
    or ``error`` (an unexpected exception escaped the simulator).
    ``minimized`` holds the delta-debugged plan spec and ``reproduces``
    whether replaying it still fails -- the acceptance gate for every
    chaos finding.
    """

    program: str
    trial: int
    plan: str
    failed: bool
    kind: Optional[str] = None
    problems: Tuple[str, ...] = ()
    error: Optional[str] = None
    rounds: int = 0
    minimized: Optional[str] = None
    reproduces: Optional[bool] = None

    def as_dict(self) -> Dict[str, Any]:
        """The trial as a JSON-plain dict."""
        return {
            "program": self.program,
            "trial": self.trial,
            "plan": self.plan,
            "failed": self.failed,
            "kind": self.kind,
            "problems": list(self.problems),
            "error": self.error,
            "rounds": self.rounds,
            "minimized": self.minimized,
            "reproduces": self.reproduces,
        }


@dataclass
class ChaosReport:
    """Outcome of one :func:`chaos_soak`: every trial plus aggregates."""

    seed: int
    trials: List[ChaosTrial] = field(default_factory=list)

    def failures(self) -> List[ChaosTrial]:
        """The failing trials, in trial order."""
        return [t for t in self.trials if t.failed]

    def summary(self) -> Dict[str, Any]:
        """Aggregate counts: trials, failures by kind, repro coverage."""
        failures = self.failures()
        by_kind: Dict[str, int] = {}
        by_program: Dict[str, int] = {}
        for t in failures:
            by_kind[t.kind or "?"] = by_kind.get(t.kind or "?", 0) + 1
            by_program[t.program] = by_program.get(t.program, 0) + 1
        return {
            "seed": self.seed,
            "trials": len(self.trials),
            "failures": len(failures),
            "by_kind": by_kind,
            "by_program": by_program,
            "minimized": sum(1 for t in failures if t.minimized is not None),
            "reproduced": sum(1 for t in failures if t.reproduces),
        }


def _evaluate(
    graph: Graph,
    factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    validator: Validator,
    plan: FaultPlan,
    max_rounds: int,
) -> Tuple[Optional[str], Tuple[str, ...], Optional[str], int]:
    """Run one plan: (failure kind or None, problems, error, rounds)."""
    net = SyncNetwork(graph, factory, faults=plan)
    try:
        _outputs, error, problems = run_validated(net, validator, max_rounds)
        kind = None if error is None else "stalled"
    except Exception as exc:  # noqa: BLE001 - a fuzz harness records, never hides
        kind, error = "error", f"{type(exc).__name__}: {exc}"
        problems = tuple(validator(graph, net.outputs()))
    if problems:
        kind = "invalid"  # silently-wrong trumps loud failures
    return kind, problems, error, net.stats.rounds


def minimize_plan(
    plan: FaultPlan, fails: Callable[[FaultPlan], bool]
) -> FaultPlan:
    """Delta-debug ``plan`` to a minimal spec for which ``fails`` holds.

    Greedy atom removal to a fixpoint -- each burst window, each crash,
    each corruption, and each whole channel probability (drop, duplicate,
    delay) is a removable atom -- followed by binary probability halving
    on whatever channel noise survives.  ``fails(plan)`` must be True on
    entry (the caller observed the failure); the returned plan is
    guaranteed to still satisfy ``fails`` because every accepted
    reduction re-ran it.
    """

    def without_atom(p: FaultPlan, atom: Tuple[str, int]) -> FaultPlan:
        name, index = atom
        if name == "burst":
            seq = p.bursts[:index] + p.bursts[index + 1:]
            return dataclasses.replace(p, bursts=seq)
        if name == "crash":
            seq_c = p.crashes[:index] + p.crashes[index + 1:]
            return dataclasses.replace(p, crashes=seq_c)
        if name == "corrupt":
            seq_k = p.corrupts[:index] + p.corrupts[index + 1:]
            return dataclasses.replace(p, corrupts=seq_k)
        return dataclasses.replace(p, **{name: 0.0})

    def atoms(p: FaultPlan) -> List[Tuple[str, int]]:
        found: List[Tuple[str, int]] = []
        for name in ("drop", "duplicate", "delay"):
            if getattr(p, name) > 0.0:
                found.append((name, 0))
        found.extend(("burst", i) for i in range(len(p.bursts)))
        found.extend(("crash", i) for i in range(len(p.crashes)))
        found.extend(("corrupt", i) for i in range(len(p.corrupts)))
        return found

    current = plan
    shrunk = True
    while shrunk:
        shrunk = False
        for atom in atoms(current):
            candidate = without_atom(current, atom)
            if not candidate.is_empty() and fails(candidate):
                current = candidate
                shrunk = True
                break  # atom indices shifted; re-enumerate

    for name in ("drop", "duplicate", "delay"):
        for _ in range(6):
            value = getattr(current, name)
            if value <= 0.01:
                break
            candidate = dataclasses.replace(current, **{name: round(value / 2, 5)})
            if fails(candidate):
                current = candidate
            else:
                break
    return current


def chaos_soak(
    suite: Sequence[SuiteEntry],
    trials: int,
    seed: int = 0,
    max_rounds: int = 4_000,
    minimize: bool = True,
    horizon_slack: int = 4,
) -> ChaosReport:
    """Throw ``trials`` seeded randomized fault plans at ``suite``.

    Trial *t* targets ``suite[t % len(suite)]`` with the plan
    ``random_fault_plan(seed * 1_000_003 + t, ...)`` whose event horizon
    is the program's fault-free round count plus ``horizon_slack`` (so
    corruption can strike a quiesced network, the hardest case).  Every
    failing trial is delta-debugged into a minimal deterministic repro
    when ``minimize`` is set, and the minimized plan is re-run to prove
    it still reproduces.
    """
    if not suite:
        raise ValueError("chaos_soak needs a non-empty suite")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    report = ChaosReport(seed=seed)
    horizons: Dict[str, int] = {}
    for name, graph, factory, _validator in suite:
        base = SyncNetwork(graph, factory)
        base.run(max_rounds=max_rounds)
        horizons[name] = base.stats.rounds + horizon_slack

    for t in range(trials):
        name, graph, factory, validator = suite[t % len(suite)]
        plan = random_fault_plan(
            seed * 1_000_003 + t,
            list(graph.vertices()),
            max_round=horizons[name],
        )
        kind, problems, error, rounds = _evaluate(
            graph, factory, validator, plan, max_rounds
        )
        minimized: Optional[str] = None
        reproduces: Optional[bool] = None
        if kind is not None and minimize:
            small = minimize_plan(
                plan,
                lambda p: _evaluate(graph, factory, validator, p, max_rounds)[0]
                is not None,
            )
            minimized = small.spec()
            reproduces = (
                _evaluate(graph, factory, validator, small, max_rounds)[0]
                is not None
            )
        report.trials.append(
            ChaosTrial(
                program=name,
                trial=t,
                plan=plan.spec(),
                failed=kind is not None,
                kind=kind,
                problems=problems,
                error=error,
                rounds=rounds,
                minimized=minimized,
                reproduces=reproduces,
            )
        )
    return report
