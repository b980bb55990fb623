"""Test-side reference implementations the library no longer ships.

:func:`dense_scheduling` is the dense-stepping oracle of
:class:`~repro.localmodel.network.SyncNetwork`: every not-done,
not-crashed node is stepped every round, whether or not it has a reason
to run.  The LOCAL model charges rounds, not work, so active-set
scheduling must be indistinguishable from it for every conforming
program -- outputs, :class:`~repro.localmodel.network.RunStats` and
traces alike.  The equivalence suites run their matrix under both.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.localmodel.network import SyncNetwork


def _dense_scheduled(self):
    crashed = (
        self._fault_runtime.crashed if self._fault_runtime is not None else set()
    )
    chosen = [
        v for v, p in self.programs.items() if not p.done and v not in crashed
    ]
    # Dense stepping never starves: treating every scheduled node as
    # always-active keeps run()'s starvation guard quiet while any of
    # them is still running.
    self._always = set(chosen)
    return chosen


@contextmanager
def dense_scheduling():
    """Step every live node every round, in every network built or run inside."""
    with mock.patch.object(SyncNetwork, "_scheduled", _dense_scheduled):
        yield


def scheduling(name):
    """``"active"`` (the library's scheduler) or ``"dense"`` (the oracle)."""
    return dense_scheduling() if name == "dense" else nullcontext()
