"""BatchExecutor: whole-round kernels must be observationally per-node.

The equivalence contract is strict and threefold, for every kernel-backed
program family (delta gather, BFS layers, Linial path coloring):

* byte-identical outputs vs a :class:`SyncNetwork` stepped node by node,
* identical ``RunStats`` (rounds, messages sent/delivered, per-round max),
* across the full scheduler{active,dense} x sealed{True,False} matrix on
  the per-node side (dense stepping is the test oracle of
  ``tests/oracles.py``); the batch side is unsealed and must actually
  take the kernel,

plus the selection rule: the executor takes the kernel exactly when
nothing blocks it (a non-empty fault plan, ``sealed=True``, trace sinks,
an inbox order, a kernel-less or heterogeneous network) and otherwise
steps node by node and records why in ``fallback_reason``.  The
``max_rounds`` budget stays exact on the kernel path.  Hypothesis drives
the matrix over generated path / interval / chordal families.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    path_graph,
    random_chordal_graph,
    star_graph,
    unit_interval_chain,
)
from repro.graphs.index import graph_index
from repro.localmodel import (
    BatchExecutor,
    BatchKernel,
    FaultPlan,
    MetricsSink,
    NodeProgram,
    SyncNetwork,
    gather_balls,
)
from repro.localmodel.colorreduction import LinialPathProgram
from repro.localmodel.gather import BallGatherProgram, DeltaGatherProgram
from repro.localmodel.programs import BFSLayerProgram, bfs_layers
from tests.oracles import reference_gather, scheduling

SCHEDULERS = ("active", "dense")


def stats_tuple(net):
    s = net.stats
    return (
        s.rounds,
        s.messages_sent,
        s.messages_delivered,
        s.max_messages_per_round,
    )


def run_both(graph, factory, max_rounds=10_000, scheduler="active", sealed=False):
    """Step node by node, then run the kernel; assert outputs+stats agree."""
    with scheduling(scheduler):
        node = SyncNetwork(graph, factory, sealed=sealed)
        out_node = node.run(max_rounds=max_rounds)
    batch = BatchExecutor(graph, factory)
    out_batch = batch.run(max_rounds=max_rounds)
    assert batch.executed == "batch", batch.fallback_reason
    assert out_node == out_batch
    assert stats_tuple(node) == stats_tuple(batch)
    return out_node, stats_tuple(node)


def graphs_under_test():
    return [
        ("path9", path_graph(9)),
        ("star5", star_graph(5)),
        ("chordal", random_chordal_graph(20, seed=5)),
        ("interval", unit_interval_chain(18, seed=2)),
        ("two-components", _two_components()),
        ("isolated", _with_isolated_vertex()),
        ("single", Graph(vertices=[3], edges=[])),
        ("empty", Graph(vertices=[], edges=[])),
    ]


def _two_components():
    return Graph(
        vertices=range(10),
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)],
    )


def _with_isolated_vertex():
    return Graph(vertices=range(7), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


def gather_factory(graph, radius, states=None):
    index = graph_index(graph)
    state_of = states or {}

    def factory(v, nbrs):
        return DeltaGatherProgram(v, nbrs, radius, state_of.get(v), index)

    return factory


# ---------------------------------------------------------------------------
# equivalence matrix, per kernel
# ---------------------------------------------------------------------------
class TestDeltaGatherKernelEquivalence:
    @pytest.mark.parametrize("name,graph", graphs_under_test())
    @pytest.mark.parametrize("radius", [0, 1, 3])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", [False, True])
    def test_matrix(self, name, graph, radius, scheduler, sealed):
        states = {v: ("s", v) for v in graph.vertices()}
        factory = gather_factory(graph, radius, states)
        outputs, _ = run_both(
            graph,
            factory,
            max_rounds=radius + 1,
            sealed=sealed,
            scheduler=scheduler,
        )
        if len(graph):
            reference, _ = reference_gather(graph, radius, states)
            assert outputs == reference

    def test_gather_balls_matches_node_path(self):
        g = random_chordal_graph(25, seed=9)
        info = {}
        balls, rounds = gather_balls(g, 3, info=info)
        assert info == {"executed": "batch", "fallback_reason": None}
        node = SyncNetwork(g, gather_factory(g, 3))
        assert balls == node.run(max_rounds=4)
        assert rounds == node.stats.rounds

    def test_gather_balls_rejects_unknown_executor(self):
        # the executor picks its path itself; there is no knob to pass
        with pytest.raises(TypeError, match="executor"):
            gather_balls(path_graph(4), 1, executor="batch")

    def test_sealed_gather_takes_the_node_path(self):
        g = random_chordal_graph(25, seed=9)
        info = {}
        sealed_balls, rounds = gather_balls(g, 3, sealed=True, info=info)
        assert info["executed"] == "node"
        assert "sealed" in info["fallback_reason"]
        assert (sealed_balls, rounds) == gather_balls(g, 3)

    def test_reference_program_has_no_kernel_and_falls_back(self):
        g = path_graph(6)
        balls, rounds = reference_gather(g, 2)
        assert rounds == 3
        ex = BatchExecutor(g, lambda v, nbrs: BallGatherProgram(v, nbrs, 2, None))
        assert ex.run(max_rounds=3) == balls
        assert ex.executed == "node"
        assert "declares no batch kernel" in ex.fallback_reason


class TestBFSLayerKernelEquivalence:
    @pytest.mark.parametrize("name,graph", graphs_under_test())
    @pytest.mark.parametrize("budget", [0, 1, 4, 12])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", [False, True])
    def test_matrix(self, name, graph, budget, scheduler, sealed):
        verts = graph.vertices()
        if not verts:
            return
        root = verts[0]
        run_both(
            graph,
            lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget),
            max_rounds=budget + 2,
            sealed=sealed,
            scheduler=scheduler,
        )

    def test_bfs_layers_matches_node_path(self):
        g = random_chordal_graph(20, seed=3)
        root = g.vertices()[0]
        budget = len(g) + 1
        node = SyncNetwork(g, lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget))
        assert bfs_layers(g, root) == node.run(max_rounds=budget + 2)

    def test_bfs_layers_rejects_unknown_executor(self):
        with pytest.raises(TypeError, match="executor"):
            bfs_layers(path_graph(4), 0, executor="batch")

    def test_sealed_bfs_layers_takes_the_node_path(self):
        g = random_chordal_graph(20, seed=3)
        root = g.vertices()[0]
        runs = []
        run = BatchExecutor.run

        def spy(self, max_rounds=10_000):
            out = run(self, max_rounds)
            runs.append((self.executed, self.fallback_reason))
            return out

        with mock.patch.object(BatchExecutor, "run", spy):
            sealed = bfs_layers(g, root, sealed=True)
            plain = bfs_layers(g, root)
        assert sealed == plain
        assert runs[0][0] == "node" and "sealed" in runs[0][1]
        assert runs[1] == ("batch", None)

    def test_multi_source_instances_compile(self):
        # two programs constructed with distance 0: a legitimate
        # multi-source flood, which the frontier kernel handles directly
        g = path_graph(11)
        roots = {0, 10}
        run_both(
            g,
            lambda v, nbrs: BFSLayerProgram(v, nbrs, v if v in roots else -1, 6),
            max_rounds=8,
        )

    def test_rootless_network_compiles(self):
        # no program holds distance 0: nobody ever announces
        g = path_graph(5)
        outputs, stats = run_both(
            g,
            lambda v, nbrs: BFSLayerProgram(v, nbrs, -1, 3),
            max_rounds=5,
        )
        assert all(d is None for d in outputs.values())
        assert stats[1] == 0  # no messages at all

    def test_negative_budget_falls_back_to_node_path(self):
        g = path_graph(4)
        ex = BatchExecutor(g, lambda v, nbrs: BFSLayerProgram(v, nbrs, 0, -1))
        ex.run(max_rounds=1)
        assert ex.executed == "node"


class TestLinialPathKernelEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", [False, True])
    def test_matrix(self, n, scheduler, sealed):
        ids = [3 * i + 1 for i in range(n)]
        g = Graph(vertices=ids, edges=[(ids[i], ids[i + 1]) for i in range(n - 1)])
        id_bound = max(ids) + 1
        outputs, _ = run_both(
            g,
            lambda v, nbrs: LinialPathProgram(v, nbrs, id_bound),
            sealed=sealed,
            scheduler=scheduler,
        )
        for u, v in g.edges():
            assert outputs[u] != outputs[v]
        assert set(outputs.values()) <= {1, 2, 3}

    def test_mismatched_id_bounds_fall_back(self):
        # bounds far enough apart that the reduction schedules differ;
        # nearby bounds can legitimately share a schedule and compile
        g = path_graph(6)
        ex = BatchExecutor(
            g, lambda v, nbrs: LinialPathProgram(v, nbrs, 30 if v % 2 else 5000)
        )
        ex.run()
        assert ex.executed == "node"


# ---------------------------------------------------------------------------
# hypothesis sweep over generated families
# ---------------------------------------------------------------------------
class TestGeneratedFamilies:
    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["path", "interval", "chordal"]),
        n=st.integers(1, 28),
        seed=st.integers(0, 1_000),
        radius=st.integers(0, 4),
        scheduler=st.sampled_from(SCHEDULERS),
        sealed=st.booleans(),
    )
    def test_gather_equivalence(self, family, n, seed, radius, scheduler, sealed):
        graph = _generate(family, n, seed)
        states = {v: v for v in graph.vertices()}
        run_both(
            graph,
            gather_factory(graph, radius, states),
            max_rounds=radius + 1,
            sealed=sealed,
            scheduler=scheduler,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["path", "interval", "chordal"]),
        n=st.integers(1, 28),
        seed=st.integers(0, 1_000),
        budget=st.integers(0, 8),
        scheduler=st.sampled_from(SCHEDULERS),
        sealed=st.booleans(),
    )
    def test_bfs_equivalence(self, family, n, seed, budget, scheduler, sealed):
        graph = _generate(family, n, seed)
        root = graph.vertices()[0]
        run_both(
            graph,
            lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget),
            max_rounds=budget + 2,
            sealed=sealed,
            scheduler=scheduler,
        )


def _generate(family, n, seed):
    if family == "path":
        return path_graph(n)
    if family == "interval":
        return unit_interval_chain(n, seed=seed)
    return random_chordal_graph(n, seed=seed)


# ---------------------------------------------------------------------------
# edge cases and the selection rule
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_graph_completes_in_zero_rounds(self):
        g = Graph(vertices=[], edges=[])
        ex = BatchExecutor(g, gather_factory(g, 2))
        assert ex.run(max_rounds=0) == {}
        assert ex.executed == "batch"
        assert ex.stats.rounds == 0

    def test_single_vertex(self):
        g = Graph(vertices=["v"], edges=[])
        outputs, stats = run_both(g, gather_factory(g, 3), max_rounds=4)
        assert outputs["v"].states == {"v": None}
        assert stats[1] == 0

    def test_radius_zero(self):
        g = path_graph(5)
        outputs, stats = run_both(g, gather_factory(g, 0), max_rounds=1)
        assert stats == (1, 0, 0, 0)
        assert outputs[2].states.keys() == {2}

    def test_max_rounds_exhaustion_mid_kernel(self):
        g = path_graph(8)
        ex = BatchExecutor(g, gather_factory(g, 5))
        with pytest.raises(RuntimeError, match="did not terminate within 3"):
            ex.run(max_rounds=3)
        assert ex.executed == "batch"

    def test_max_rounds_budget_is_exact(self):
        g = path_graph(8)
        ex = BatchExecutor(g, gather_factory(g, 5))
        ex.run(max_rounds=6)  # exactly radius + 1: must succeed
        assert ex.executed == "batch"
        assert ex.stats.rounds == 6

    def test_batch_refuses_nonempty_fault_plan(self):
        g = path_graph(6)
        plan = FaultPlan(drop=0.2, seed=7)
        ex = BatchExecutor(g, gather_factory(g, 2), faults=plan)
        path, blockers = ex.plan()
        assert path == "node"
        assert any("fault plan is non-empty" in b for b in blockers)

    def test_auto_routes_fault_runs_to_node_path(self):
        g = path_graph(6)
        plan = FaultPlan(duplicate=0.4, seed=13)
        ex = BatchExecutor(g, gather_factory(g, 2), faults=plan)
        ex.run(max_rounds=3)
        assert ex.executed == "node"

    def test_empty_fault_plan_does_not_block_batch(self):
        g = path_graph(6)
        ex = BatchExecutor(g, gather_factory(g, 2), faults=FaultPlan())
        ex.run(max_rounds=3)
        assert ex.executed == "batch"

    def test_batch_refuses_trace_sinks(self):
        g = path_graph(6)
        ex = BatchExecutor(g, gather_factory(g, 2), sinks=[MetricsSink()])
        ex.run(max_rounds=3)
        assert ex.executed == "node"
        assert "trace sinks" in ex.fallback_reason

    def test_batch_refuses_inbox_order(self):
        g = path_graph(6)
        ex = BatchExecutor(g, gather_factory(g, 2), inbox_order=3)
        ex.run(max_rounds=3)
        assert ex.executed == "node"
        assert "inbox_order" in ex.fallback_reason

    def test_batch_refuses_kernel_less_programs(self):
        g = path_graph(4)
        ex = BatchExecutor(g, lambda v, nbrs: _KernelLessProgram(v, nbrs))
        assert ex.plan() == ("node", ["_KernelLessProgram declares no batch kernel"])

    def test_auto_falls_back_for_kernel_less_programs(self):
        g = path_graph(4)
        ex = BatchExecutor(g, lambda v, nbrs: _KernelLessProgram(v, nbrs))
        assert ex.run(max_rounds=2) == {v: "ok" for v in g.vertices()}
        assert ex.executed == "node"

    def test_unknown_mode_rejected(self):
        g = path_graph(3)
        with pytest.raises(TypeError, match="mode"):
            BatchExecutor(g, gather_factory(g, 1), mode="batch")

    def test_mode_node_never_consults_kernels(self):
        # the node side of every equivalence test is a plain SyncNetwork
        class Exploding(BatchKernel):
            def __init__(self, net, index):
                raise AssertionError("the per-node path consulted a kernel")

        g = path_graph(5)
        with mock.patch.object(DeltaGatherProgram, "batch_kernel", Exploding):
            SyncNetwork(g, gather_factory(g, 1)).run(max_rounds=2)
            with pytest.raises(AssertionError, match="consulted a kernel"):
                BatchExecutor(g, gather_factory(g, 1)).run(max_rounds=2)

    def test_plan_reports_path_and_blockers(self):
        g = path_graph(5)
        ex = BatchExecutor(g, gather_factory(g, 1))
        path, blockers = ex.plan()
        assert path == "batch" and blockers == []
        ex2 = BatchExecutor(
            g, gather_factory(g, 1), faults=FaultPlan(drop=0.5, seed=1)
        )
        path2, blockers2 = ex2.plan()
        assert path2 == "node" and blockers2


class TestFallbackReason:
    """The diagnostic recording *why* a run left the batch path."""

    def test_none_before_any_run(self):
        g = path_graph(4)
        ex = BatchExecutor(g, gather_factory(g, 1))
        assert ex.executed is None
        assert ex.fallback_reason is None

    def test_batch_path_leaves_reason_none(self):
        g = path_graph(4)
        ex = BatchExecutor(g, gather_factory(g, 1))
        ex.run(max_rounds=3)
        assert ex.executed == "batch"
        assert ex.fallback_reason is None

    def test_auto_fallback_records_joined_blockers(self):
        g = path_graph(4)
        ex = BatchExecutor(
            g,
            gather_factory(g, 1),
            faults=FaultPlan(drop=0.5, seed=1),
            sinks=[MetricsSink()],
        )
        ex.run(max_rounds=4)
        assert ex.executed == "node"
        assert "fault plan is non-empty" in ex.fallback_reason
        assert "trace sinks" in ex.fallback_reason

    def test_sealed_fallback_names_sealing(self):
        g = path_graph(4)
        ex = BatchExecutor(g, gather_factory(g, 1), sealed=True)
        ex.run(max_rounds=3)
        assert ex.executed == "node"
        assert ex.fallback_reason == (
            "sealed=True: sealed contexts are built by per-node dispatch only"
        )

    def test_kernel_less_fallback_names_the_class(self):
        g = path_graph(4)
        ex = BatchExecutor(g, lambda v, nbrs: _KernelLessProgram(v, nbrs))
        ex.run(max_rounds=2)
        assert "_KernelLessProgram declares no batch kernel" in ex.fallback_reason

    def test_kernel_ineligibility_message_recorded(self):
        # mismatched id bounds make the Linial kernel refuse at compile
        # time; the KernelIneligible text is recorded verbatim
        g = path_graph(6)
        ex = BatchExecutor(
            g, lambda v, nbrs: LinialPathProgram(v, nbrs, 30 if v % 2 else 5000)
        )
        ex.run()
        assert ex.executed == "node"
        assert "disagree on the id bound" in ex.fallback_reason


class _KernelLessProgram(NodeProgram):
    """A trivial program with no batch kernel (fallback-path probe)."""

    always_active = True

    def step(self, ctx):
        self.done = True
        self.output = "ok"
        return {}
