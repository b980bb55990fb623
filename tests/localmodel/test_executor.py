"""gather_balls' one path: the kernel must be observationally per-node.

:func:`~repro.localmodel.gather.gather_balls` always runs
:class:`~repro.localmodel.gather.DeltaGatherKernel` straight from the
graph index, the radius and the states; a sealed, traced or faulty
gather is a :class:`SyncNetwork` of :class:`DeltaGatherProgram` nodes
that its caller builds.  The contract:

* byte-identical balls vs a :class:`SyncNetwork` stepped node by node,
  across the scheduler{active,dense} x sealed{True,False} matrix on the
  per-node side (dense stepping is the test oracle of
  ``tests/oracles.py``); the kernel side must actually take the kernel;
* identical ``RunStats`` (rounds, messages sent/delivered, per-round
  max), read from ``info["stats"]``;
* the per-round ``sent`` series pinned against a :class:`MetricsSink`
  on the per-node run, and kernel balls equal to per-node ones before
  their lazily built edge sets are read;
* a kernel ball's ``as_graph()`` equal to the induced ball and to the
  per-node ball's graph, before and after its edges are read, without
  building its edge set or the index's edge-label table;
* the kernel path builds no program and no network, its round state is
  gone before the first ball is built, and ``gather_balls`` takes none
  of the per-node options (``sealed``, ``sinks``, ``faults``);
* an uncounted run (no ``RunStats``, no ``info``) returns the counted
  run's balls without reaching the send count, and after every round
  its spheres are no larger than copies on a path and under twice them
  on a chordal graph.

The message-passing BFS and Linial programs have no kernel: their
per-node runs are pinned against closed forms instead
(``reference_bfs_layers`` in ``tests/oracles.py`` and
:func:`~repro.localmodel.colorreduction.three_color_path`).  Hypothesis
drives the matrix over generated path / interval / chordal families.
"""

import dataclasses
import pickle
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_k_tree,
    random_tree,
    star_graph,
    unit_interval_chain,
)
from repro.graphs.index import graph_index
from repro.localmodel import (
    FaultPlan,
    MetricsSink,
    SyncNetwork,
    gather_balls,
    three_color_path,
)
from repro.localmodel.colorreduction import LinialPathProgram
from repro.localmodel import gather
from repro.localmodel.gather import DeltaGatherKernel, DeltaGatherProgram, KnownBall
from repro.localmodel.network import RunStats
from repro.localmodel.programs import BFSLayerProgram, bfs_layers
from repro.localmodel.trace import jsonable_payload
from tests.conftest import string_labels
from tests.oracles import reference_bfs_layers, reference_gather, scheduling

SCHEDULERS = ("active", "dense")


def stats_tuple(stats):
    return (
        stats.rounds,
        stats.messages_sent,
        stats.messages_delivered,
        stats.max_messages_per_round,
    )


def node_run(graph, factory, max_rounds, scheduler="active", sealed=False):
    """Step ``factory``'s programs node by node: (outputs, stats tuple)."""
    with scheduling(scheduler):
        net = SyncNetwork(graph, factory, sealed=sealed)
        outputs = net.run(max_rounds=max_rounds)
    return outputs, stats_tuple(net.stats)


def kernel_gather(graph, radius, states=None):
    """``gather_balls``, which must take the kernel: (balls, stats tuple)."""
    info = {}
    balls, rounds = gather_balls(graph, radius, states, info=info)
    assert info["executed"] == "batch"
    assert rounds == info["stats"].rounds
    return balls, stats_tuple(info["stats"])


def run_both(graph, radius, states=None, scheduler="active", sealed=False):
    """Gather node by node, then through the kernel; assert both agree."""
    node = node_run(
        graph,
        gather_factory(graph, radius, states),
        radius + 1,
        scheduler=scheduler,
        sealed=sealed,
    )
    kernel = kernel_gather(graph, radius, states)
    assert list(kernel[0]) == list(node[0])  # same key order too
    assert kernel == node
    return node


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
# the gather: kernel path vs per-node path
# ---------------------------------------------------------------------------
class TestDeltaGatherKernelEquivalence:
    @pytest.mark.parametrize("name,graph", graphs_under_test())
    @pytest.mark.parametrize("radius", [0, 1, 3])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", [False, True])
    def test_matrix(self, name, graph, radius, scheduler, sealed):
        states = {v: ("s", v) for v in graph.vertices()}
        outputs, _ = run_both(
            graph, radius, states, sealed=sealed, scheduler=scheduler
        )
        if len(graph):
            reference, _ = reference_gather(graph, radius, states)
            assert outputs == reference

    def test_gather_balls_matches_node_path(self):
        g = random_chordal_graph(25, seed=9)
        info = {}
        balls, rounds = gather_balls(g, 3, info=info)
        assert info["executed"] == "batch"
        node = SyncNetwork(g, gather_factory(g, 3))
        assert balls == node.run(max_rounds=4)
        assert rounds == node.stats.rounds
        assert info["stats"] == node.stats

    def test_gather_balls_rejects_unknown_executor(self):
        # the gather picks its path itself; there is no knob to pass
        with pytest.raises(TypeError, match="executor"):
            gather_balls(path_graph(4), 1, executor="batch")

    def test_sealed_gather_takes_the_node_path(self):
        # only a SyncNetwork seals: a sealed gather steps the delta
        # programs node by node and equals the kernel's run
        g = random_chordal_graph(25, seed=9)
        net = SyncNetwork(g, gather_factory(g, 3), sealed=True)
        sealed_balls = net.run(max_rounds=4)
        assert (sealed_balls, net.stats.rounds) == gather_balls(g, 3)


class TestKernelPathBuildsNoProgram:
    """The kernel reads index, radius and states only."""

    def test_no_program_and_no_network_are_built(self):
        g = random_chordal_graph(30, seed=4)
        states = {v: ("s", v) for v in g.vertices()}
        expected = SyncNetwork(g, gather_factory(g, 3, states)).run(max_rounds=4)

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel path built a per-node object")

        info = {}
        with mock.patch.object(DeltaGatherProgram, "__init__", refuse), \
                mock.patch.object(SyncNetwork, "__init__", refuse):
            balls, _rounds = gather_balls(g, 3, states, info=info)
            # a per-node gather does build them, so the patches are live
            with pytest.raises(AssertionError, match="per-node object"):
                SyncNetwork(g, gather_factory(g, 3, states))
        assert info["executed"] == "batch"
        assert balls == expected


    def test_round_state_is_freed_before_the_first_ball(self):
        """The balls reuse the rounds' memory instead of adding to the peak."""
        g = random_chordal_graph(30, seed=4)
        kernel = DeltaGatherKernel(graph_index(g), 3, {})
        round_state = ("_around", "_fresh", "_older")
        assert all(hasattr(kernel, name) for name in round_state)
        alive = []

        class SpyBall(KnownBall):
            def __new__(cls, *args, **kwargs):
                alive.append([name for name in round_state if hasattr(kernel, name)])
                return super().__new__(cls)

        with mock.patch.object(gather, "KnownBall", SpyBall):
            balls = kernel.run(RunStats())
        assert alive == [[]] * len(g)
        expected, _ = gather_balls(g, 3)
        assert list(map(dataclasses.astuple, balls.values())) == list(
            map(dataclasses.astuple, expected.values())
        )

    @pytest.mark.parametrize("name,graph", graphs_under_test())
    @pytest.mark.parametrize("radius", [0, 1, 3])
    def test_uncounted_run_returns_the_counted_balls(self, name, graph, radius):
        states = {v: ("s", v) for v in graph.vertices()}
        index = graph_index(graph)
        stats = RunStats()
        counted = DeltaGatherKernel(index, radius, states).run(stats)
        uncounted = DeltaGatherKernel(index, radius, states).run(None)
        assert list(uncounted) == list(counted)
        assert list(map(dataclasses.astuple, uncounted.values())) == list(
            map(dataclasses.astuple, counted.values())
        )
        assert gather_balls(graph, radius, states) == (counted, stats.rounds)

    def test_uncounted_run_builds_no_send_table(self):
        # the directed-edge tail list and the subset pass live in the
        # counted rounds alone, which only a caller passing info reaches
        g = random_chordal_graph(30, seed=4)
        expected = gather_balls(g, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("an uncounted run counted its sends")

        with mock.patch.object(DeltaGatherKernel, "_counted_rounds", refuse):
            assert gather_balls(g, 3) == expected
            assert DeltaGatherKernel(graph_index(g), 3, {}).run() == expected[0]
            with pytest.raises(AssertionError, match="counted its sends"):
                gather_balls(g, 3, info={})

    def test_path_spheres_are_as_small_as_their_copies(self):
        # a fresh set of at most four ids keeps its inline table; one
        # thinned in place moved to a 16-slot heap table (472 B vs 216 B)
        sizes = sphere_sizes(path_graph(50), 8)
        assert len(sizes) == 8
        assert all(size <= copy for row in sizes for size, copy in row)

    def test_chordal_spheres_stay_within_one_doubling_of_their_copies(self):
        # a set built by insertion sits at most one doubling above a copy;
        # spheres thinned in place read up to 10.5 times it here
        sizes = sphere_sizes(random_chordal_graph(30, seed=4), 8)
        assert len(sizes) == 8
        assert all(size < 2 * copy for row in sizes for size, copy in row)


def sphere_sizes(graph, radius):
    """Per round of an uncounted run: (getsizeof, that of a copy) per sphere."""
    sizes = []
    merge = DeltaGatherKernel.round

    def spy(kernel):
        merged = merge(kernel)
        sizes.append(
            [(sys.getsizeof(s), sys.getsizeof(set(s))) for s in kernel._fresh]
        )
        return merged

    with mock.patch.object(DeltaGatherKernel, "round", spy):
        DeltaGatherKernel(graph_index(graph), radius, {}).run()
    return sizes


def _disconnected_with_isolated(n, seed):
    """A random tree on ``0..n-1``, a 4-path beside it, two isolated ids."""
    edges = random_tree(n, seed=seed).edges()
    edges += [(n + i, n + i + 1) for i in range(3)]
    return Graph(vertices=range(n + 6), edges=edges)


#: the families the per-round pin covers: (n, seed) -> graph
ROUND_FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "interval": lambda n, seed: unit_interval_chain(n, seed=seed),
    "3-tree": lambda n, seed: random_k_tree(n + 4, 3, seed=seed),
    "tree": lambda n, seed: random_tree(n, seed=seed),
    "cycle": lambda n, seed: cycle_graph(n + 3),
    "star": lambda n, seed: star_graph(n),
    "disconnected": _disconnected_with_isolated,
    "singleton": lambda n, seed: Graph(vertices=[seed], edges=[]),
    "empty": lambda n, seed: Graph(vertices=[], edges=[]),
}


class TestDeltaGatherRoundByRound:
    """The kernel's ``sent`` series equals the per-node run's, round by round."""

    @pytest.mark.parametrize("family", sorted(ROUND_FAMILIES))
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 1_000), radius=st.integers(0, 8))
    def test_sent_per_round_matches_metrics_sink(self, family, n, seed, radius):
        graph = ROUND_FAMILIES[family](n, seed)
        states = {v: v for v in graph.vertices()}
        sink = MetricsSink()
        node = SyncNetwork(graph, gather_factory(graph, radius, states), sinks=[sink])
        out_node = node.run(max_rounds=radius + 1)

        recorded = []
        record_round = RunStats.record_round

        def spy(stats, sent, delivered):
            recorded.append((sent, delivered))
            record_round(stats, sent, delivered)

        info = {}
        with mock.patch.object(RunStats, "record_round", spy):
            out_batch, _rounds = gather_balls(graph, radius, states, info=info)
        assert info["executed"] == "batch"
        assert recorded == [(sent, sent) for sent in sink.message_counts]
        assert out_batch == out_node


class TestLazyBallEdges:
    """A kernel ball builds its edge set on first read and is the same ball."""

    @pytest.fixture
    def both(self):
        g = random_chordal_graph(30, seed=4)
        states = {v: ("s", v) for v in g.vertices()}
        balls, _ = gather_balls(g, 3, states)
        node = SyncNetwork(g, gather_factory(g, 3, states)).run(max_rounds=4)
        return balls, node

    def test_unread_ball_equals_node_ball(self, both):
        balls, node = both
        for v, ball in balls.items():
            assert "edges" not in vars(ball)
            assert ball == node[v]

    def test_unread_ball_is_the_same_dataclass_and_renders_the_same(self, both):
        balls, node = both
        for v, ball in balls.items():
            assert "edges" not in vars(ball)
            assert dataclasses.is_dataclass(ball)
            assert type(ball) is type(node[v])
            assert jsonable_payload(ball) == jsonable_payload(node[v])

    def test_reading_states_builds_no_edge_set(self, both):
        balls, node = both
        total = sum(len(b.states) for b in balls.values())
        assert total == sum(len(b.states) for b in node.values())
        assert not any("edges" in vars(b) for b in balls.values())

    def test_second_read_returns_the_same_set(self, both):
        balls, node = both
        for v, ball in balls.items():
            first = ball.edges
            assert ball.edges is first
            assert first == node[v].edges

    def test_unknown_attribute_and_pickling(self, both):
        balls, _ = both
        ball = next(iter(balls.values()))
        with pytest.raises(AttributeError, match="no attribute 'edge'"):
            ball.edge
        assert pickle.loads(pickle.dumps(ball)) == ball


class TestKernelBallGraph:
    """A kernel ball's ``as_graph()`` reads its ids' index rows, not edges."""

    @pytest.fixture(params=["int", "str"])
    def case(self, request):
        g = random_chordal_graph(30, seed=4)
        g.add_vertex(99)  # an isolated vertex: a one-vertex ball
        if request.param == "str":
            g = string_labels(g)
        balls, _ = gather_balls(g, 3)
        node = SyncNetwork(g, gather_factory(g, 3, {})).run(max_rounds=4)
        return g, balls, node

    def test_equals_the_induced_ball_and_the_node_ball_graph(self, case):
        g, balls, node = case
        for v, ball in balls.items():
            got = ball.as_graph()
            assert "edges" not in vars(ball)
            assert got == g.induced_subgraph(ball.states)
            assert got == node[v].as_graph()
            assert got.edges() == node[v].as_graph().edges()

    def test_same_graph_after_edges_are_first_read(self, case):
        g, balls, node = case
        for v, ball in balls.items():
            assert ball.edges == node[v].edges
            assert "_edge_source" not in vars(ball)
            assert ball.as_graph() == g.induced_subgraph(ball.states)
            assert ball.as_graph() == node[v].as_graph()

    def test_each_call_returns_a_fresh_graph(self, case):
        g, balls, _ = case
        ball = balls[g.vertices()[0]]
        first = ball.as_graph()
        u = next(w for w in first.vertices() if first.degree(w))
        first.remove_vertex(u)
        assert ball.as_graph() == g.induced_subgraph(ball.states)

    def test_builds_neither_edges_nor_edge_labels(self):
        g = random_chordal_graph(30, seed=5)
        balls, _ = gather_balls(g, 3)
        for ball in balls.values():
            ball.as_graph()
        assert graph_index(g)._edge_labels is None
        assert not any("edges" in vars(b) for b in balls.values())
        node = SyncNetwork(g, gather_factory(g, 3, {})).run(max_rounds=4)
        assert all(balls[v].edges == node[v].edges for v in balls)


# ---------------------------------------------------------------------------
# kernel-less programs, pinned against closed forms
# ---------------------------------------------------------------------------
def bfs_run(graph, sources, budget, scheduler="active", sealed=False):
    """Per-node BFS flood from ``sources``; assert the closed form holds."""
    run = node_run(
        graph,
        lambda v, nbrs: BFSLayerProgram(v, nbrs, v if v in sources else None, budget),
        budget + 2,
        scheduler=scheduler,
        sealed=sealed,
    )
    assert run == reference_bfs_layers(graph, sources, budget)
    return run


class TestBFSLayerKernelEquivalence:
    """``BFSLayerProgram`` node by node equals the closed-form BFS accounting."""

    @pytest.mark.parametrize("name,graph", graphs_under_test())
    @pytest.mark.parametrize("budget", [0, 1, 4, 12])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", [False, True])
    def test_matrix(self, name, graph, budget, scheduler, sealed):
        verts = graph.vertices()
        if not verts:
            return
        bfs_run(graph, {verts[0]}, budget, scheduler=scheduler, sealed=sealed)

    def test_bfs_layers_matches_node_path(self):
        g = random_chordal_graph(20, seed=3)
        root = g.vertices()[0]
        outputs, _ = bfs_run(g, {root}, len(g) + 1)
        assert bfs_layers(g, root) == outputs

    def test_bfs_layers_rejects_unknown_executor(self):
        with pytest.raises(TypeError, match="executor"):
            bfs_layers(path_graph(4), 0, executor="batch")

    def test_sealed_bfs_layers_takes_the_node_path(self):
        # bfs_layers builds one plain SyncNetwork; sealing its programs
        # means building a sealed one, which gives the same distances
        g = random_chordal_graph(20, seed=3)
        root = g.vertices()[0]
        built = []
        init = SyncNetwork.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        with mock.patch.object(SyncNetwork, "__init__", spy):
            plain = bfs_layers(g, root)
        assert built == [{}]
        sealed, _ = bfs_run(g, {root}, len(g) + 1, sealed=True)
        assert sealed == plain

    def test_multi_source_instances_compile(self):
        # two programs constructed with distance 0: a legitimate
        # multi-source flood, layered from the nearer source
        outputs, _ = bfs_run(path_graph(11), {0, 10}, 6)
        assert outputs[5] == 5 and outputs[9] == 1

    def test_rootless_network_compiles(self):
        # no program holds distance 0: nobody ever announces
        outputs, stats = bfs_run(path_graph(5), set(), 3)
        assert all(d is None for d in outputs.values())
        assert stats[1] == 0  # no messages at all


def linial_closed_form(ids, edges):
    """:func:`three_color_path`'s colors, and the stats its program pays.

    The program spends one round announcing ids and one silent final
    round on top of the lock-step rounds, and broadcasts in every round
    but the last.
    """
    colors, rounds = three_color_path(ids)
    per_round = 2 * edges
    stats = (rounds + 2, (rounds + 1) * per_round, (rounds + 1) * per_round, per_round)
    return colors, stats


class TestLinialPathKernelEquivalence:
    """``LinialPathProgram`` node by node equals :func:`three_color_path`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("sealed", [False, True])
    def test_matrix(self, n, scheduler, sealed):
        ids = [3 * i + 1 for i in range(n)]
        g = Graph(vertices=ids, edges=[(ids[i], ids[i + 1]) for i in range(n - 1)])
        id_bound = max(ids) + 1
        run = node_run(
            g,
            lambda v, nbrs: LinialPathProgram(v, nbrs, id_bound),
            10_000,
            sealed=sealed,
            scheduler=scheduler,
        )
        assert run == linial_closed_form(ids, n - 1)
        outputs, _ = run
        for u, v in g.edges():
            assert outputs[u] != outputs[v]
        assert set(outputs.values()) <= {1, 2, 3}


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
        run_both(graph, radius, states, sealed=sealed, scheduler=scheduler)

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
        bfs_run(graph, {root}, budget, scheduler=scheduler, sealed=sealed)


def _generate(family, n, seed):
    if family == "path":
        return path_graph(n)
    if family == "interval":
        return unit_interval_chain(n, seed=seed)
    return random_chordal_graph(n, seed=seed)


# ---------------------------------------------------------------------------
# edge cases and the per-node options the gather refuses
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_graph_completes_in_zero_rounds(self):
        g = Graph(vertices=[], edges=[])
        info = {}
        assert gather_balls(g, 2, info=info) == ({}, 0)
        assert info["executed"] == "batch"
        assert info["stats"] == RunStats()

    def test_single_vertex(self):
        g = Graph(vertices=["v"], edges=[])
        outputs, stats = run_both(g, 3)
        assert outputs["v"].states == {"v": None}
        assert stats[1] == 0

    def test_radius_zero(self):
        g = path_graph(5)
        outputs, stats = run_both(g, 0)
        assert stats == (1, 0, 0, 0)
        assert outputs[2].states.keys() == {2}

    def test_max_rounds_budget_is_exact(self):
        # rounds 0..radius on both paths: the per-node budget gather_balls
        # passes leaves no slack
        g = path_graph(8)
        _, stats = kernel_gather(g, 5)
        assert stats[0] == 6
        net = SyncNetwork(g, gather_factory(g, 5))
        net.run(max_rounds=6)
        with pytest.raises(RuntimeError, match="did not terminate within 5"):
            SyncNetwork(g, gather_factory(g, 5)).run(max_rounds=5)

    def test_batch_refuses_nonempty_fault_plan(self):
        # fault injection is per message: a faulty gather is a SyncNetwork
        # its caller builds, and the gather offers no faults= to ask for one
        with pytest.raises(TypeError, match="faults"):
            gather_balls(path_graph(6), 2, faults=FaultPlan(drop=0.2, seed=7))

    def test_batch_refuses_trace_sinks(self):
        with pytest.raises(TypeError, match="sinks"):
            gather_balls(path_graph(6), 2, sinks=[MetricsSink()])

    def test_batch_refuses_sealed(self):
        with pytest.raises(TypeError, match="sealed"):
            gather_balls(path_graph(6), 2, sealed=True)

    def test_batch_refuses_inbox_order(self):
        # the determinism sanitizer permutes real inboxes on a SyncNetwork;
        # the gather offers no inbox_order to ask for one
        with pytest.raises(TypeError, match="inbox_order"):
            gather_balls(path_graph(6), 2, inbox_order=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError, match="mode"):
            gather_balls(path_graph(3), 1, mode="batch")

    def test_mode_node_never_consults_kernels(self):
        # a per-node gather is a SyncNetwork of delta programs; it never
        # builds the kernel, which only gather_balls runs
        def refuse(*args, **kwargs):
            raise AssertionError("the per-node path consulted the kernel")

        g = path_graph(5)
        expected = gather_balls(g, 1)
        with mock.patch.object(DeltaGatherKernel, "__init__", refuse):
            net = SyncNetwork(g, gather_factory(g, 1), sealed=True)
            assert (net.run(max_rounds=2), net.stats.rounds) == expected
            with pytest.raises(AssertionError, match="consulted the kernel"):
                gather_balls(g, 1)

    def test_info_reports_the_batch_run(self):
        g = path_graph(5)
        info = {}
        _balls, rounds = gather_balls(g, 1, info=info)
        assert info == {"executed": "batch", "stats": info["stats"]}
        assert info["stats"].rounds == rounds == 2

    def test_rejected_call_fills_no_info(self):
        info = {}
        with pytest.raises(ValueError, match="non-negative"):
            gather_balls(path_graph(4), -1, info=info)
        assert info == {}
