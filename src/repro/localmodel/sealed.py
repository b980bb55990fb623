"""Sealed execution contexts: runtime enforcement of the LOCAL contract.

The static analyzer of :mod:`repro.lint` *proves* (syntactically) that node
programs only read their declared neighborhood and never mutate delivered
state; this module enforces the same contract dynamically, so the two can
cross-validate each other in tests.  With ``SyncNetwork(..., sealed=True)``:

* every delivered message is deep-frozen (:func:`freeze`): dicts become
  read-only :class:`FrozenMessageDict` views, lists become tuples, sets
  become frozensets -- recursively;
* each node's inbox is wrapped in a :class:`SealedInbox`, which raises
  :class:`SealedContextError` when keyed by anything outside the node's
  declared neighbor list (rule L4) or when mutated (rule L5);
* the :class:`~repro.localmodel.network.NodeContext` itself is a
  :class:`SealedNodeContext` whose attributes cannot be reassigned
  (rule L5).

Sealing is behavior-preserving for conforming programs: reading through a
frozen mapping is indistinguishable from reading the original dict, so a
program that passes the linter produces byte-identical outputs with sealing
on or off (asserted for every stock program in the test-suite).

Sealing is also orthogonal to the network's scheduler: it wraps *what a
stepped node may see*, never *which nodes are stepped*, so sealed runs
behave identically under the active-set and dense schedulers (the
equivalence suite asserts the full ``sealed x scheduler`` product).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, Mapping

from ..graphs.adjacency import Vertex

__all__ = [
    "SealedContextError",
    "FrozenMessageDict",
    "SealedInbox",
    "freeze",
]


class SealedContextError(RuntimeError):
    """A node program broke the LOCAL contract under sealed execution."""


class FrozenMessageDict(Mapping):
    """A read-only, hash-capable view of a dict-valued message payload."""

    __slots__ = ("_data",)

    def __init__(self, data: Dict[Any, Any]):
        """Wrap ``data``; the reference is kept, never copied or mutated."""
        self._data = data

    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenMessageDict({self._data!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenMessageDict):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def _refuse(self, *_args: Any, **_kwargs: Any) -> None:
        raise SealedContextError(
            "message payloads are frozen under sealed execution; copy with "
            "dict(...) before mutating"
        )

    __setitem__ = __delitem__ = _refuse
    pop = popitem = clear = update = setdefault = _refuse


def freeze(obj: Any) -> Any:
    """Recursively turn the standard mutable containers into frozen ones.

    dict -> :class:`FrozenMessageDict`, list/tuple -> tuple, set ->
    frozenset.  Everything else passes through unchanged (arbitrary user
    objects cannot be frozen generically; the static L5 rule covers them).
    """
    if isinstance(obj, FrozenMessageDict):
        return obj
    if isinstance(obj, dict):
        return FrozenMessageDict({k: freeze(v) for k, v in obj.items()})
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset(freeze(v) for v in obj)
    return obj


class SealedInbox(Mapping):
    """A node's inbox that answers only for declared neighbors.

    Iteration (``for u in inbox`` / ``.items()`` / ``.values()``) is always
    allowed -- it reveals exactly the senders, all of which are neighbors.
    Keyed access (``inbox[u]``, ``.get(u)``, ``u in inbox``) demands
    ``u`` be a declared neighbor: merely *asking* about a non-neighbor is
    information a LOCAL node cannot act on, and under sealed execution it
    raises :class:`SealedContextError` instead of answering.
    """

    __slots__ = ("_node", "_allowed", "_data")

    def __init__(self, node: Vertex, allowed: FrozenSet[Vertex], data: Dict[Vertex, Any]):
        """Expose ``data`` to ``node``, restricted to the ``allowed`` senders."""
        self._node = node
        self._allowed = allowed
        self._data = data

    def _check(self, key: Any) -> None:
        if key not in self._allowed:
            raise SealedContextError(
                f"node {self._node!r} queried the inbox for {key!r}, which is "
                "not one of its declared neighbors"
            )

    def __getitem__(self, key: Any) -> Any:
        self._check(key)
        return self._data[key]

    def get(self, key: Any, default: Any = None) -> Any:
        """Like ``dict.get``, after the declared-neighbor check."""
        self._check(key)
        return self._data.get(key, default)

    def __contains__(self, key: Any) -> bool:
        self._check(key)
        return key in self._data

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SealedInbox(node={self._node!r}, senders={sorted(map(repr, self._data))})"

    def _refuse(self, *_args: Any, **_kwargs: Any) -> None:
        raise SealedContextError(
            f"node {self._node!r} attempted to mutate its inbox; contexts "
            "are read-only under sealed execution"
        )

    __setitem__ = __delitem__ = _refuse
    pop = popitem = clear = update = setdefault = _refuse
