"""The stock LOCAL programs: one catalogue entry per program name.

The simulator is checked with eight classic LOCAL programs: BFS layers,
leader election, convergecast, flood and delta ball gathering, Linial's
colour reduction on paths, Luby's MIS and randomized (Delta+1)-colouring.
Every harness that runs them builds them here: ``python -m repro.lint
--sanitize``, ``repro trace`` / ``faults`` / ``chaos``, the C1, F7 and S1
experiment cells and the lint, fault and chaos benchmarks.

A :class:`StockProgram` names the program class, the graph family it runs
on (``chordal``, ``path`` or ``cycle``) and its safety-validator kind (see
:func:`~repro.localmodel.resilience.stock_validator`).  Its
:meth:`~StockProgram.build` returns the program factory together with the
matching validator, so a ``bfs`` validator measures distances from the
root the program was given.  Two instance sets are built from the
catalogue: :func:`stock_suite`, one fixed small graph per family, and
:func:`sized_instance`, the family graph at size n.

``import repro.localmodel`` does not load this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..baselines.coloring_baselines import RandomizedColoringProgram
from ..baselines.luby import LubyMISProgram
from ..graphs.adjacency import Graph, Vertex
from ..graphs.generators import cycle_graph, path_graph, random_chordal_graph
from ..graphs.index import graph_index
from .chaos import SuiteEntry
from .colorreduction import LinialPathProgram
from .gather import BallGatherProgram, DeltaGatherProgram
from .network import NodeProgram, vertex_key
from .programs import BFSLayerProgram, EchoCountProgram, LeaderElectionProgram
from .resilience import Validator, stock_validator

__all__ = [
    "StockProgram",
    "STOCK",
    "QUICK_PROGRAMS",
    "family_graph",
    "default_root",
    "busiest_vertex",
    "stock_suite",
    "sized_instance",
]

Factory = Callable[[Vertex, List[Vertex]], NodeProgram]


def default_root(graph: Graph) -> Optional[Vertex]:
    """The smallest vertex by :func:`~repro.localmodel.network.vertex_key`."""
    return min(graph.vertices(), key=vertex_key, default=None)


def busiest_vertex(graph: Graph) -> Optional[Vertex]:
    """A maximum-degree vertex, the smallest by ``vertex_key`` among ties."""
    return min(
        graph.vertices(),
        key=lambda v: (-len(graph.neighbors_view(v)), vertex_key(v)),
        default=None,
    )


def _vertex_seeds(graph: Graph, seed: int) -> Dict[Vertex, int]:
    """One seed per vertex, drawn in vertex order from a master stream."""
    master = random.Random(seed)
    return {v: master.randrange(2**62) for v in graph.vertices()}


# builders: (program class, graph, caller's values) -> program factory


def _bfs(cls, graph, *, root, **_):
    budget = len(graph) + 1
    return lambda v, nbrs: cls(v, nbrs, root, budget)


def _leader(cls, graph, **_):
    budget = len(graph) + 1
    return lambda v, nbrs: cls(v, nbrs, budget)


def _echo(cls, graph, *, root, **_):
    return lambda v, nbrs: cls(v, nbrs, root)


def _gather(cls, graph, *, radius, state, **_):
    return lambda v, nbrs: cls(v, nbrs, radius, state(v))


def _delta_gather(cls, graph, *, radius, state, **_):
    index = graph_index(graph)
    return lambda v, nbrs: cls(v, nbrs, radius, state(v), index)


def _luby(cls, graph, *, seed, **_):
    seeds = _vertex_seeds(graph, seed)
    return lambda v, nbrs: cls(v, nbrs, random.Random(seeds[v]))


def _coloring(cls, graph, *, seed, **_):
    palette = graph.max_degree() + 1
    seeds = _vertex_seeds(graph, seed)
    return lambda v, nbrs: cls(v, nbrs, palette, random.Random(seeds[v]))


def _linial(cls, graph, **_):
    # colours start as the vertex ids, so the bound must cover every id
    if not all(type(v) is int and v >= 0 for v in graph.vertices()):
        raise ValueError("LinialPathProgram needs non-negative integer vertex ids")
    id_bound = max(graph.vertices(), default=0) + 1
    return lambda v, nbrs: cls(v, nbrs, id_bound=id_bound)


def _no_state(v: Vertex) -> Any:
    return None


@dataclass(frozen=True)
class StockProgram:
    """One stock program: its class, graph family, validator and builder."""

    name: str
    cls: type
    #: ``chordal``, ``path`` or ``cycle`` (see :func:`family_graph`)
    family: str
    #: the :func:`~repro.localmodel.resilience.stock_validator` kind
    validator_kind: str
    make: Callable[..., Factory]

    def build(
        self,
        graph: Graph,
        *,
        seed: int = 0,
        root: Optional[Vertex] = None,
        radius: int = 2,
        state: Optional[Callable[[Vertex], Any]] = None,
    ) -> Tuple[Factory, Validator]:
        """(program factory, safety validator) on ``graph``.

        ``seed`` is the master seed the randomized programs draw their
        per-vertex seeds from; ``root`` roots ``bfs`` and ``echo`` and
        their validators (default :func:`default_root`); ``radius`` and
        ``state`` (a per-vertex initial state, default ``None``) feed the
        gather programs.  Each program reads only the values it needs.
        """
        if root is None:
            root = default_root(graph)
        factory = self.make(
            self.cls, graph, seed=seed, root=root, radius=radius, state=state or _no_state
        )
        return factory, stock_validator(self.validator_kind, graph, root=root)


#: every stock program, in report order (sanitize suite, fault sweep, chaos)
STOCK: Dict[str, StockProgram] = {
    entry.name: entry
    for entry in (
        StockProgram("bfs", BFSLayerProgram, "chordal", "bfs", _bfs),
        StockProgram("leader", LeaderElectionProgram, "chordal", "leader", _leader),
        StockProgram("echo", EchoCountProgram, "path", "echo", _echo),
        StockProgram("gather", BallGatherProgram, "cycle", "gather", _gather),
        StockProgram(
            "gather-delta", DeltaGatherProgram, "cycle", "gather", _delta_gather
        ),
        StockProgram("luby", LubyMISProgram, "chordal", "mis", _luby),
        StockProgram(
            "coloring", RandomizedColoringProgram, "chordal", "coloring", _coloring
        ),
        StockProgram("linial", LinialPathProgram, "path", "coloring", _linial),
    )
}

#: one program per output invariant (distances, coloring, independence):
#: the ``repro chaos --quick`` suite and the S1 soak cells
QUICK_PROGRAMS = ("bfs", "coloring", "luby")


def family_graph(family: str, n: int, seed: int) -> Graph:
    """The ``family`` instance on n vertices (path and cycle ignore ``seed``)."""
    if family == "chordal":
        return random_chordal_graph(n, seed=seed, tree_size=n)
    if family == "path":
        return path_graph(n)
    if family == "cycle":
        return cycle_graph(n)
    raise ValueError(f"unknown stock graph family {family!r}")


def _tagged(v: Vertex) -> Any:
    return ("s", v)


#: the fixed :func:`stock_suite` graph of each family: (n, seed)
_SUITE_GRAPHS = {"chordal": (14, 7), "path": (9, 0), "cycle": (8, 0)}


def stock_suite() -> List[SuiteEntry]:
    """(name, graph, factory, validator) for every program, on fixed small graphs.

    The suite ``python -m repro.lint --sanitize`` shadow-checks, ``repro
    faults --sweep`` classifies and ``repro chaos`` fuzzes (``repro faults
    --stock`` replays on it): a 14-vertex random chordal graph, a 9-vertex
    path and an 8-cycle, master seed 11, roots at the smallest vertex key,
    gather radius 2 with ``("s", v)`` states.
    """
    graphs = {
        family: family_graph(family, n, seed)
        for family, (n, seed) in _SUITE_GRAPHS.items()
    }
    suite: List[SuiteEntry] = []
    for name, entry in STOCK.items():
        graph = graphs[entry.family]
        factory, validator = entry.build(graph, seed=11, radius=2, state=_tagged)
        suite.append((name, graph, factory, validator))
    return suite


def sized_instance(name: str, n: int, seed: int) -> Tuple[Graph, Factory, Validator]:
    """(graph, factory, validator) for one program on its family graph at size n.

    The instance the C1, F7 and S1 cells run.  The gather radius grows
    with n (``max(2, n // 8)``) so the ``ball`` message class visibly grows
    while every ``const`` program stays flat.  Chordal instances root at
    their busiest vertex: the generator may leave low-id vertices
    isolated, and a silent BFS measures nothing.
    """
    entry = STOCK[name]
    graph = family_graph(entry.family, n, seed)
    root = busiest_vertex(graph) if entry.family == "chordal" else None
    factory, validator = entry.build(
        graph,
        seed=seed * 1_000_003 + 13,
        root=root,
        radius=max(2, n // 8),
        state=_tagged,
    )
    return graph, factory, validator
