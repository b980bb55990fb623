"""Round-by-round tracing of synchronous network runs, as trace sinks.

Debugging a distributed algorithm means asking "who sent what, when, and
what did each node believe at that moment".  Observability attaches to
:class:`~repro.localmodel.network.SyncNetwork` through the
:class:`~repro.localmodel.network.TraceSink` protocol -- the network
calls ``on_round(round_no, messages, completed, active_count)`` after
every executed round, with messages and completions already in canonical
natural-vertex order (``0, 1, 2, ..., 10, 11`` for integer ids).  This
module provides the stock sinks:

* :class:`RecordingSink` -- keeps every round as a :class:`RoundTrace`
  and renders a textual timeline (:meth:`RecordingSink.timeline`) like::

      round 0: 4 msgs | sent: 0->1, 1->0, 1->2, 2->1
      round 1: 2 msgs | done: 0, 2 | sent: 1->0, 1->2
      round 2: 0 msgs | done: 1

* :class:`MetricsSink` -- per-round message, active-node and completion
  counts and per-round wall time, without retaining payloads;
* :class:`JSONLTraceSink` -- streams one JSON object per round (the
  ``repro trace --jsonl`` export; schema in ``docs/tracing.md``).

A run is sealed, traced or given a fault plan in one place: the
:class:`SyncNetwork` it runs on, built with the sinks it needs.  Traces
are plain data (:class:`RoundTrace`), so tests can assert on exact
communication patterns -- e.g. that the paper's ball-gathering really
floods only for ``radius`` rounds, or that Luby's algorithm goes quiet
exactly when every node decides.  Because sinks fire from inside the
network, traces stay complete and correctly numbered even when a caller
interleaves direct ``network.step_round()`` calls with ``run()``:
``RoundTrace.round_number`` is the network's own round counter, never a
separately maintained count.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Union

from ..graphs.adjacency import Vertex
from .network import MessageRecord, TraceSink
from .sealed import FrozenMessageDict

__all__ = [
    "MessageRecord",
    "RoundTrace",
    "RecordingSink",
    "MetricsSink",
    "JSONLTraceSink",
    "jsonable_payload",
]


@dataclass
class RoundTrace:
    """Everything one round did: messages, completions, active count."""
    round_number: int
    messages: List[MessageRecord] = field(default_factory=list)
    completed: List[Vertex] = field(default_factory=list)
    active_count: int = 0

    @property
    def message_count(self) -> int:
        """Number of message records this round."""
        return len(self.messages)


class RecordingSink(TraceSink):
    """Keeps every round as a :class:`RoundTrace`; renders the timeline."""

    def __init__(self) -> None:
        """Start with an empty round log."""
        self.rounds: List[RoundTrace] = []

    def on_round(self, round_no, messages, completed, active_count) -> None:
        """Append the round, asserting the round numbers stay gap-free."""
        # round_no is the network's own counter; a fresh sink sees rounds
        # 0, 1, 2, ... with no gaps, so recording position and network
        # round number must agree -- drift here means the engine skipped
        # a notification (the bug this assertion guards against).
        if self.rounds and round_no != self.rounds[-1].round_number + 1:
            raise AssertionError(
                f"trace drift: round {round_no} followed "
                f"{self.rounds[-1].round_number}"
            )
        self.rounds.append(
            RoundTrace(round_no, list(messages), list(completed), active_count)
        )

    def timeline(self, max_messages_per_round: int = 8) -> str:
        """Human-readable per-round log, payloads elided beyond the cap."""
        lines = []
        for r in self.rounds:
            parts = [f"round {r.round_number}: {r.message_count} msgs"]
            if r.completed:
                parts.append("done: " + ", ".join(str(v) for v in r.completed))
            if r.messages:
                shown = r.messages[:max_messages_per_round]
                rendered = ", ".join(
                    f"{m.sender}->{m.receiver}" for m in shown
                )
                if len(r.messages) > len(shown):
                    rendered += f", ... (+{len(r.messages) - len(shown)})"
                parts.append("sent: " + rendered)
            lines.append(" | ".join(parts))
        return "\n".join(lines)


class MetricsSink(TraceSink):
    """Per-round metrics without payload retention.

    Records, per round: message count, active (stepped) node count and
    wall-clock time (measured between successive ``on_round`` calls, so
    a round's figure includes its delivery and bookkeeping);
    :meth:`summary` aggregates the series.
    """

    def __init__(self) -> None:
        """Start all per-round series empty; the wall clock starts now."""
        self.message_counts: List[int] = []
        self.active_counts: List[int] = []
        self.wall_times: List[float] = []
        self._last = time.perf_counter()

    def on_round(self, round_no, messages, completed, active_count) -> None:
        """Append this round's counts and the wall time since the last."""
        now = time.perf_counter()
        self.wall_times.append(now - self._last)
        self._last = now
        self.message_counts.append(len(messages))
        self.active_counts.append(active_count)

    def summary(self) -> Dict[str, Any]:
        """Aggregates: rounds, totals, maxima, quiet rounds, wall time."""
        rounds = len(self.message_counts)
        return {
            "rounds": rounds,
            "messages": sum(self.message_counts),
            "max_messages_per_round": max(self.message_counts, default=0),
            "max_active": max(self.active_counts, default=0),
            "total_steps": sum(self.active_counts),
            "quiet_rounds": sum(1 for m in self.message_counts if m == 0),
            "wall_seconds": sum(self.wall_times),
        }


def jsonable_payload(payload: Any) -> Any:
    """Message payloads as JSON-encodable data (tuples/sets/frozen -> lists).

    Payload containers become lists/objects recursively; dataclass
    instances render as ``{"<ClassName>": {field: value, ...}}`` so their
    *contents* are compared rather than a ``repr`` that leaks dict/set
    insertion order (which would make the shadow-execution determinism
    check flag semantically equal values); anything else non-encodable
    falls back to ``str``.  Lossy but deterministic, which is the right
    trade for a trace meant to be diffed and grepped.
    """
    if isinstance(payload, FrozenMessageDict):
        payload = dict(payload)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return {
            type(payload).__name__: {
                f.name: jsonable_payload(getattr(payload, f.name))
                for f in dataclasses.fields(payload)
            }
        }
    if isinstance(payload, dict):
        return {str(k): jsonable_payload(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [jsonable_payload(v) for v in payload]
    if isinstance(payload, (set, frozenset)):
        return sorted((jsonable_payload(v) for v in payload), key=repr)
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    return str(payload)


class JSONLTraceSink(TraceSink):
    """Streams one JSON object per round (schema: ``docs/tracing.md``).

    Accepts an open text stream or a path; pass ``payloads=False`` to
    drop message payloads (sender/receiver pairs only), which keeps
    traces of payload-heavy protocols like ball gathering small.
    """

    def __init__(self, target: Union[str, IO[str]], payloads: bool = True):
        """Write to ``target`` (path or open stream); ``payloads=False`` slims records."""
        if hasattr(target, "write"):
            self._stream: IO[str] = target  # type: ignore[assignment]
            self._owns = False
        else:
            self._stream = open(target, "w")
            self._owns = True
        self.payloads = payloads
        self.rounds_written = 0

    def on_round(self, round_no, messages, completed, active_count) -> None:
        """Serialize the round as one JSON line (sorted keys, no gaps)."""
        record: Dict[str, Any] = {
            "round": round_no,
            "active": active_count,
            "message_count": len(messages),
            "messages": [
                {"from": jsonable_payload(m.sender), "to": jsonable_payload(m.receiver)}
                | ({"payload": jsonable_payload(m.payload)} if self.payloads else {})
                | ({"status": m.status} if m.status != "delivered" else {})
                for m in messages
            ],
            "completed": [jsonable_payload(v) for v in completed],
        }
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self.rounds_written += 1

    def close(self) -> None:
        """Flush, and close the stream iff this sink opened it."""
        self._stream.flush()
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "JSONLTraceSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
