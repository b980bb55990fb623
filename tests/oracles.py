"""Test-side reference implementations the library no longer ships.

:func:`dense_scheduling` is the dense-stepping oracle of
:class:`~repro.localmodel.network.SyncNetwork`: every not-done,
not-crashed node is stepped every round, whether or not it has a reason
to run.  The LOCAL model charges rounds, not work, so active-set
scheduling must be indistinguishable from it for every conforming
program -- outputs, :class:`~repro.localmodel.network.RunStats` and
traces alike.  The equivalence suites run their matrix under both.

:func:`parent_by_full_bfs`, :func:`diameter_all_pairs` and
:func:`greedy_by_scanning` are the plain whole-graph searches that
:func:`~repro.coloring.distributed_mvc.compute_parent`,
:meth:`~repro.graphs.adjacency.Graph.diameter` and
:func:`~repro.localmodel.rulingset.greedy_distance_k_selection` stop
early; each rewrite must return exactly what its oracle returns.
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


def parent_by_full_bfs(graph, peeled, v, params):
    """Definition 1 from one BFS to the recoloring distance."""
    candidates = []
    dist = graph.bfs_distances(v, cutoff=params.recolor_distance)
    for att in (peeled.path.left_attachment, peeled.path.right_attachment):
        if att is None:
            continue
        reachable = [dist[u] for u in att if u in dist]
        if reachable:
            candidates.append((min(reachable), max(att)))
    if not candidates:
        return None
    candidates.sort(key=lambda t: t[0])
    return candidates[0][1]


def diameter_all_pairs(graph):
    """The largest BFS eccentricity over every vertex."""
    best = 0
    for v in graph.vertices():
        dist = graph.bfs_distances(v)
        if len(dist) != len(graph):
            raise ValueError("diameter of a disconnected graph is undefined")
        best = max(best, max(dist.values()))
    return best


def greedy_by_scanning(graph, order, k):
    """Take each vertex of ``order`` whose (k-1)-ball holds no taken vertex."""
    if k < 1:
        raise ValueError("spacing k must be >= 1")
    chosen = []
    for v in order:
        ball = graph.bfs_distances(v, cutoff=k - 1)
        if not any(u in ball for u in chosen):
            chosen.append(v)
    return chosen
