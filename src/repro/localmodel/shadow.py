"""Shadow execution: the dynamic half of the schedule-dependence check.

Lint rule L9 statically flags expressions that *extract* iteration order
from sets, dict views, or the inbox (``next(iter(...))``,
``list(ctx.inbox.values())``, ``set.pop()``).  The static finding is
one-sided: the consumer may well be order-insensitive (Linial color
reduction reads its neighbors' colors as a list but treats it as a set),
so every L9 deserves a dynamic cross-check.

:func:`shadow_check` is that cross-check.  It runs the same program on
the same graph several times: once as the baseline, then once per shadow
seed with :class:`~repro.localmodel.network.SyncNetwork`'s
``inbox_order`` knob set -- which rebuilds every delivered inbox in a
seed-determined key order, the one degree of freedom the LOCAL model
never promises.  A conforming (deterministic) program must produce an
identical canonical transcript and identical outputs under every
permutation; any divergence is reported with the first round and message
where the runs split.

Canonicalization (:func:`canonical_transcript`) deliberately mirrors the
model's semantics: messages sort by (sender, receiver), dict payloads
compare key-insensitively and sets compare order-insensitively (both
canonicalize), but **lists and tuples keep their claimed order** -- a
program that ships inbox arrival order inside a list has encoded the
schedule into its message, which is exactly the bug.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.adjacency import Graph, Vertex
from .network import NodeProgram, SyncNetwork
from .trace import RecordingSink, jsonable_payload

__all__ = ["Divergence", "ShadowReport", "shadow_check", "canonical_transcript"]

#: Default shadow seeds: three permutations catch order dependence on any
#: graph with a degree->=2 vertex with high probability; tests that need
#: certainty pass more.
DEFAULT_SHADOW_SEEDS: Tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class Divergence:
    """First observable difference between baseline and one shadow run."""

    seed: int
    kind: str  # "transcript" | "outputs" | "rounds"
    round_no: Optional[int]
    detail: str


@dataclass
class ShadowReport:
    """Outcome of :func:`shadow_check` for one program/graph pair."""

    seeds: Tuple[int, ...]
    rounds: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        """True iff no seed produced a divergence."""
        return not self.divergences


def canonical_transcript(sink: RecordingSink) -> List[List[Tuple[str, ...]]]:
    """Per-round message triples ``(sender, receiver, payload-json)``.

    Senders/receivers render through :func:`jsonable_payload`'s string
    fallback; payloads serialize with sorted keys so dict/set iteration
    order cannot leak into the comparison while list/tuple order does.
    Under fault injection a record with a non-default ``status`` tag
    carries it as a fourth element, so a run where a message was dropped
    can never compare equal to one where it was delivered.
    """
    transcript: List[List[Tuple[str, ...]]] = []
    for round_trace in sink.rounds:
        transcript.append(
            [
                (
                    json.dumps(jsonable_payload(m.sender)),
                    json.dumps(jsonable_payload(m.receiver)),
                    json.dumps(jsonable_payload(m.payload), sort_keys=True),
                )
                + (() if m.status == "delivered" else (m.status,))
                for m in round_trace.messages
            ]
        )
    return transcript


def _canonical_outputs(outputs: Dict[Vertex, Any]) -> Dict[str, str]:
    return {
        json.dumps(jsonable_payload(v)): json.dumps(
            jsonable_payload(out), sort_keys=True
        )
        for v, out in outputs.items()
    }


def shadow_check(
    graph: Graph,
    program_factory: Callable[[Vertex, List[Vertex]], NodeProgram],
    seeds: Sequence[int] = DEFAULT_SHADOW_SEEDS,
) -> ShadowReport:
    """Diff a baseline run against shadow runs with permuted inbox order.

    The program factory is called once per run per vertex, so programs
    must be (re)constructible -- the same requirement ``repro trace``
    already imposes.  Raises whatever the program run raises (a shadow
    run that crashes is a determinism bug of a different color and
    should fail loudly).
    """
    base_sink = RecordingSink()
    base_net = SyncNetwork(graph, program_factory, sinks=[base_sink])
    base_outputs = _canonical_outputs(base_net.run())
    base_transcript = canonical_transcript(base_sink)

    report = ShadowReport(seeds=tuple(seeds), rounds=len(base_transcript))
    for seed in seeds:
        shadow_sink = RecordingSink()
        shadow_net = SyncNetwork(
            graph, program_factory, sinks=[shadow_sink], inbox_order=seed
        )
        shadow_outputs = _canonical_outputs(shadow_net.run())
        shadow_transcript = canonical_transcript(shadow_sink)
        report.divergences.extend(
            _diff(seed, base_transcript, base_outputs, shadow_transcript, shadow_outputs)
        )
    return report


def _diff(
    seed: int,
    base_transcript: List[List[Tuple[str, ...]]],
    base_outputs: Dict[str, str],
    shadow_transcript: List[List[Tuple[str, ...]]],
    shadow_outputs: Dict[str, str],
) -> List[Divergence]:
    """At most one transcript and one output divergence, first occurrence."""
    out: List[Divergence] = []
    if len(base_transcript) != len(shadow_transcript):
        out.append(
            Divergence(
                seed=seed,
                kind="rounds",
                round_no=min(len(base_transcript), len(shadow_transcript)),
                detail=(
                    f"baseline ran {len(base_transcript)} round(s), shadow "
                    f"ran {len(shadow_transcript)}"
                ),
            )
        )
    for round_no, (base_round, shadow_round) in enumerate(
        zip(base_transcript, shadow_transcript)
    ):
        if base_round == shadow_round:
            continue
        detail = f"round {round_no}: message sets differ"
        for base_msg, shadow_msg in zip(base_round, shadow_round):
            if base_msg != shadow_msg:
                detail = (
                    f"round {round_no}: {base_msg[0]}->{base_msg[1]} sent "
                    f"{base_msg[2]} in baseline but {shadow_msg[2]} under "
                    f"permuted inbox order"
                )
                break
        out.append(
            Divergence(seed=seed, kind="transcript", round_no=round_no, detail=detail)
        )
        break
    if base_outputs != shadow_outputs:
        changed = sorted(
            v for v in base_outputs
            if base_outputs.get(v) != shadow_outputs.get(v)
        )
        sample = changed[0] if changed else "?"
        out.append(
            Divergence(
                seed=seed,
                kind="outputs",
                round_no=None,
                detail=(
                    f"{len(changed)} node output(s) differ, e.g. node {sample}: "
                    f"{base_outputs.get(sample)} vs {shadow_outputs.get(sample)}"
                ),
            )
        )
    return out
