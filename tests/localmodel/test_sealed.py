"""Sealed execution: freeze semantics, sealed views, and the guarantee
that sealing is behavior-preserving for every conforming stock program.

Only :class:`SyncNetwork` seals a run: the drivers built on it and
:func:`shadow_check` take no ``sealed`` of their own."""

from __future__ import annotations

import pytest

from repro.baselines.coloring_baselines import distributed_delta_plus_one
from repro.baselines.luby import luby_mis
from repro.coloring import ColoringParameters, message_level_layer_decisions
from repro.graphs import Graph, path_graph, random_chordal_graph
from repro.localmodel import (
    FaultPlan,
    FrozenMessageDict,
    LinialPathProgram,
    NodeProgram,
    SealedContextError,
    SealedInbox,
    SealedNodeContext,
    SyncNetwork,
    freeze,
    shadow_check,
)
from repro.localmodel.programs import BFSLayerProgram, bfs_layers, elect_leader, tree_count
from repro.localmodel.stock import STOCK, stock_suite
from repro.mis.distributed_mis import message_level_mis_decisions
from tests.oracles import scheduling

#: the stock suite's (graph, factory) per program name
SUITE = {name: (graph, factory) for name, graph, factory, _ in stock_suite()}


class TestFreeze:
    def test_freezes_nested_containers(self):
        frozen = freeze({"a": [1, {2}], "b": {"c": [3]}})
        assert isinstance(frozen, FrozenMessageDict)
        assert frozen["a"] == (1, frozenset({2}))
        assert isinstance(frozen["b"], FrozenMessageDict)
        assert frozen["b"]["c"] == (3,)

    def test_scalars_pass_through(self):
        for value in (None, 5, 2.5, "x", True):
            assert freeze(value) is value

    def test_frozen_dict_reads_like_a_dict(self):
        frozen = freeze({"x": 1, "y": 2})
        assert dict(frozen) == {"x": 1, "y": 2}
        assert frozen == {"x": 1, "y": 2}
        assert sorted(frozen) == ["x", "y"]
        assert len(frozen) == 2 and frozen.get("z") is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("x", 9),
            lambda d: d.__delitem__("x"),
            lambda d: d.pop("x"),
            lambda d: d.clear(),
            lambda d: d.update(x=9),
            lambda d: d.setdefault("z", 1),
        ],
    )
    def test_frozen_dict_refuses_mutation(self, mutate):
        with pytest.raises(SealedContextError):
            mutate(freeze({"x": 1}))


class TestSealedInbox:
    def make(self):
        return SealedInbox(1, frozenset({0, 2}), {0: "hello"})

    def test_neighbor_access(self):
        inbox = self.make()
        assert inbox[0] == "hello"
        assert inbox.get(2) is None  # neighbor that sent nothing
        assert 0 in inbox and 2 not in inbox
        assert list(inbox) == [0] and dict(inbox.items()) == {0: "hello"}

    @pytest.mark.parametrize(
        "probe",
        [
            lambda i: i[7],
            lambda i: i.get(7),
            lambda i: 7 in i,
        ],
    )
    def test_non_neighbor_probe_raises(self, probe):
        with pytest.raises(SealedContextError, match="declared neighbors"):
            probe(self.make())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda i: i.__setitem__(0, "x"),
            lambda i: i.pop(0),
            lambda i: i.clear(),
            lambda i: i.update({0: "x"}),
        ],
    )
    def test_mutation_raises(self, mutate):
        with pytest.raises(SealedContextError, match="read-only"):
            mutate(self.make())


class TestSealedNodeContext:
    def test_attribute_reassignment_raises(self):
        ctx = SealedNodeContext(node=1, neighbors=[0], round_number=0, inbox={})
        with pytest.raises(SealedContextError, match="read-only"):
            ctx.round_number = 7
        assert ctx.round_number == 0


class NeighborListVandal(NodeProgram):
    """Empties ctx.neighbors; the engine must not let that corrupt state."""

    def step(self, ctx):
        ctx.neighbors.clear()
        self.done = True
        self.output = len(self.neighbors)
        return {}


class TestEngineAliasing:
    def test_ctx_neighbors_is_a_defensive_copy(self):
        # regression: ctx.neighbors used to alias program.neighbors, so a
        # buggy program could silently destroy its own neighbor list
        net = SyncNetwork(path_graph(3), NeighborListVandal)
        outputs = net.run()
        assert outputs == {0: 1, 1: 2, 2: 1}
        assert all(p.neighbors for p in net.programs.values())


@pytest.mark.parametrize("scheduler", ["active", "dense"])
class TestSealingIsBehaviorPreserving:
    """Acceptance: identical outputs and RunStats with sealing on vs. off.

    Every program of the stock catalogue runs on its stock-suite
    instance, sealed and unsealed.  Parametrized over the scheduler so all four sealed x scheduler
    combinations run: sealing must stay behavior-preserving under both
    the active-set scheduler and the dense oracle (the scheduler x
    scheduler axis is covered by ``test_equivalence.py``).
    """

    @pytest.fixture(autouse=True)
    def _scheduled_by(self, scheduler):
        with scheduling(scheduler):
            yield

    @pytest.mark.parametrize("name", sorted(STOCK))
    def test_stock_program(self, scheduler, name):
        graph, factory = SUITE[name]
        runs = []
        for sealed in (False, True):
            net = SyncNetwork(graph, factory, sealed=sealed)
            runs.append((net.run(), net.stats))
        assert runs[0] == runs[1]

    def test_cole_vishkin_linial(self, scheduler):
        ids = [17, 3, 29, 0, 12, 8, 41, 5]
        g = Graph(vertices=ids, edges=[(a, b) for a, b in zip(ids, ids[1:])])
        runs = {}
        for sealed in (False, True):
            net = SyncNetwork(
                g,
                lambda v, nbrs: LinialPathProgram(v, nbrs, 42),
                sealed=sealed,
            )
            runs[sealed] = (net.run(), net.stats.rounds, net.stats.messages_sent)
        assert runs[False] == runs[True]


#: the drivers that run a LOCAL program for their caller, each on a
#: 4-vertex path
DRIVERS = {
    "bfs_layers": lambda g, **kw: bfs_layers(g, 0, **kw),
    "elect_leader": lambda g, **kw: elect_leader(g, **kw),
    "tree_count": lambda g, **kw: tree_count(g, 0, **kw),
    "luby_mis": lambda g, **kw: luby_mis(g, **kw),
    "distributed_delta_plus_one": lambda g, **kw: distributed_delta_plus_one(g, **kw),
    "message_level_layer_decisions": lambda g, **kw: message_level_layer_decisions(
        g, ColoringParameters.from_k(1), **kw
    ),
    "message_level_mis_decisions": lambda g, **kw: message_level_mis_decisions(
        g, 1, **kw
    ),
}


class TestOnlySyncNetworkSeals:
    """Drivers and the shadow check take no network option of their own."""

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_driver_runs_and_rejects_sealed(self, driver):
        DRIVERS[driver](path_graph(4))
        with pytest.raises(TypeError, match="sealed"):
            DRIVERS[driver](path_graph(4), sealed=True)

    @pytest.mark.parametrize(
        "option,value",
        [("sealed", True), ("max_rounds", 50), ("faults", FaultPlan())],
        ids=["sealed", "max_rounds", "faults"],
    )
    def test_shadow_check_takes_only_seeds(self, option, value):
        factory = lambda v, nbrs: BFSLayerProgram(v, nbrs, 0, 5)
        assert shadow_check(path_graph(4), factory, seeds=(1,)).deterministic
        with pytest.raises(TypeError, match=option):
            shadow_check(path_graph(4), factory, **{option: value})


class TestDeterminismRegressions:
    """Audit results for the stock programs: repeat runs are identical."""

    def test_leader_election_repeats_identically(self):
        g = random_chordal_graph(30, seed=5)
        assert elect_leader(g) == elect_leader(g)

    def test_luby_with_same_seed_repeats_identically(self):
        g = random_chordal_graph(30, seed=5)
        first_set, first_rounds = luby_mis(g, seed=3)
        second_set, second_rounds = luby_mis(g, seed=3)
        assert first_set == second_set and first_rounds == second_rounds

    def test_luby_is_seeded_per_node_not_global(self):
        # different master seeds must be able to produce different runs,
        # proving the randomness is routed through the injected rng
        g = path_graph(40)
        results = {frozenset(luby_mis(g, seed=s)[0]) for s in range(6)}
        assert len(results) > 1
