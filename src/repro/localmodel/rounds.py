"""Round accounting for ball-equivalence simulations.

Message-level simulation of the paper's layered algorithms would flood
radius-Theta(k) balls from every node in every peeling iteration -- faithful
but quadratically wasteful.  The standard LOCAL-model equivalence (r rounds
of unbounded messages = knowledge of the radius-r ball, demonstrated
executably by :mod:`repro.localmodel.gather` and its tests) lets the
algorithm implementations instead *account* the rounds they would spend
whenever they consume non-local information.  The Algorithm 2 and
Theorem 8 drivers do so with per-node *completion clocks*: layers finish
pruning at different times and the color correction waits on parents
(Lemma 12's induction is exactly a recurrence over these clocks;
:class:`NodeClocks` evaluates it).

The reported totals are what the paper's analysis counts: the number of
synchronous communication rounds until the last node terminates.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

__all__ = ["NodeClocks"]


class NodeClocks:
    """Per-node completion times for asynchronous phases.

    ``set_at(v, t)`` records that node v completed some milestone at round
    t; ``ready(vs)`` is the earliest round by which all of ``vs`` have
    completed (the "wait until ..." steps of Algorithms 2 and 4).
    """

    def __init__(self) -> None:
        """Start with no recorded completion times."""
        self._time: Dict[Hashable, int] = {}

    def set_at(self, node: Hashable, time: int) -> None:
        """Record that ``node`` completed at round ``time`` (monotone)."""
        if time < 0:
            raise ValueError("round clocks start at 0")
        current = self._time.get(node)
        if current is not None and time < current:
            raise ValueError(
                f"clock for {node!r} moved backwards ({current} -> {time})"
            )
        self._time[node] = time

    def __contains__(self, node: Hashable) -> bool:
        return node in self._time

    def at(self, node: Hashable) -> int:
        """The recorded completion round of ``node`` (KeyError if unset)."""
        return self._time[node]

    def ready(self, nodes: Iterable[Hashable]) -> int:
        """Earliest round by which every node in ``nodes`` has completed."""
        times = [self._time[v] for v in nodes]
        return max(times, default=0)

    def makespan(self) -> int:
        """Round at which the last node completed (0 when empty)."""
        return max(self._time.values(), default=0)

    def as_dict(self) -> Dict[Hashable, int]:
        """A copy of the node -> completion-round mapping."""
        return dict(self._time)
