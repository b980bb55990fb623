"""Equivalence suite: active-set scheduling is observationally invisible.

The acceptance bar for the scheduler rewrite: on every on-simulator
program (BFS, leader election, convergecast, ball gathering, Linial /
Cole-Vishkin, Luby's MIS, randomized (Delta+1)-coloring), the active-set
scheduler must produce **identical outputs, identical RunStats, and
identical traces** to the dense oracle of ``tests/oracles.py`` -- sealed
and unsealed.  The
only permitted difference is work: how many node steps were spent.

Also hosts the regression tests for the two trace bugs fixed alongside
the rewrite: lexicographic (``str``) ordering of integer vertex ids in
traces, and ``RoundTrace.round_number`` drifting from the network's own
round counter when a caller interleaves direct ``step_round()`` calls.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.coloring_baselines import RandomizedColoringProgram
from repro.baselines.luby import LubyMISProgram
from repro.graphs import Graph, path_graph, random_chordal_graph, random_tree, star_graph
from repro.localmodel import (
    BFSLayerProgram,
    EchoCountProgram,
    LeaderElectionProgram,
    LinialPathProgram,
    NodeProgram,
    RecordingSink,
    SyncNetwork,
)
from repro.localmodel.gather import BallGatherProgram
from tests.oracles import dense_scheduling, scheduling


# ---------------------------------------------------------------------------
# the program zoo: every on-simulator program, with a fresh factory per run
# (factories capture seeded RNGs / mutable defaults, so each network build
# must get its own)
# ---------------------------------------------------------------------------

def _bfs_case():
    g = random_chordal_graph(40, seed=3)
    return g, lambda v, nbrs: BFSLayerProgram(v, nbrs, root=0, budget=len(g) + 1)


def _leader_case():
    g = random_tree(30, seed=8)
    return g, lambda v, nbrs: LeaderElectionProgram(v, nbrs, budget=len(g) + 1)


def _echo_case():
    g = random_tree(30, seed=5)
    return g, lambda v, nbrs: EchoCountProgram(v, nbrs, root=0)


def _gather_case():
    g = random_chordal_graph(25, seed=2)
    return g, lambda v, nbrs: BallGatherProgram(v, nbrs, radius=2, state=None)


def _linial_case():
    ids = [17, 3, 29, 0, 12, 8, 41, 5, 23, 36, 2, 19]
    g = Graph(vertices=ids, edges=list(zip(ids, ids[1:])))
    return g, lambda v, nbrs: LinialPathProgram(v, nbrs, id_bound=42)


def _luby_case():
    g = random_chordal_graph(35, seed=11)
    master = random.Random(4)
    seeds = {v: master.randrange(2 ** 62) for v in g.vertices()}
    return g, lambda v, nbrs: LubyMISProgram(v, nbrs, random.Random(seeds[v]))


def _coloring_case():
    g = random_chordal_graph(30, seed=6)
    palette = g.max_degree() + 1
    master = random.Random(9)
    seeds = {v: master.randrange(2 ** 62) for v in g.vertices()}
    return g, lambda v, nbrs: RandomizedColoringProgram(
        v, nbrs, palette, random.Random(seeds[v])
    )


CASES = {
    "bfs": _bfs_case,
    "leader": _leader_case,
    "echo": _echo_case,
    "gather": _gather_case,
    "linial": _linial_case,
    "luby": _luby_case,
    "coloring": _coloring_case,
}


def _run(case, scheduler, sealed):
    graph, factory = CASES[case]()
    sink = RecordingSink()
    with scheduling(scheduler):
        net = SyncNetwork(graph, factory, sealed=sealed, sinks=[sink])
        outputs = net.run()
    stats = net.stats
    return {
        "outputs": outputs,
        "stats": (stats.rounds, stats.messages_sent, stats.max_messages_per_round),
        # active_count is the one field *allowed* to differ (it is the
        # scheduler's work measure); everything else must be identical
        "trace": [(r.round_number, r.messages, r.completed) for r in sink.rounds],
        "steps": sum(r.active_count for r in sink.rounds),
    }


class TestActiveEqualsDense:
    """outputs == outputs, RunStats == RunStats, trace == trace."""

    @pytest.mark.parametrize("sealed", [False, True], ids=["unsealed", "sealed"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equivalent(self, case, sealed):
        dense = _run(case, "dense", sealed)
        active = _run(case, "active", sealed)
        assert active["outputs"] == dense["outputs"]
        assert active["stats"] == dense["stats"]
        assert active["trace"] == dense["trace"]
        # the scheduler may only ever *save* work, never add it
        assert active["steps"] <= dense["steps"]

    def test_event_driven_program_actually_saves_steps(self):
        # convergecast is the purely event-driven case: deep nodes idle
        # while the leaves' reports climb, so the active set must be
        # strictly smaller than "everyone not yet done"
        dense = _run("echo", "dense", False)
        active = _run("echo", "active", False)
        assert active["steps"] < dense["steps"]
        assert active["outputs"] == dense["outputs"]


class TestSchedulerValidation:
    def test_unknown_scheduler_rejected(self):
        # one scheduler ships; dense stepping lives on as a test oracle
        with pytest.raises(TypeError, match="scheduler"):
            SyncNetwork(path_graph(3), lambda v, n: NodeProgram(v, n),
                        scheduler="dense")


# ---------------------------------------------------------------------------
# active-set semantics
# ---------------------------------------------------------------------------

class SilentCountdown(NodeProgram):
    """Acts on silence without declaring it -- the L6 starvation shape."""

    def step(self, ctx):
        if ctx.round_number >= 3:
            self.done = True
            self.output = ctx.round_number
        return {}


class WakingCountdown(SilentCountdown):
    """Same countdown, but conforming: requests its own wakeups."""

    def step(self, ctx):
        result = super().step(ctx)
        if not self.done:
            self.wake_next_round()
        return result


class AlwaysActiveCountdown(SilentCountdown):
    always_active = True


class TestActiveSetSemantics:
    def test_silent_actor_starves_loudly(self):
        net = SyncNetwork(path_graph(4), SilentCountdown)
        with pytest.raises(RuntimeError, match="starv"):
            net.run()

    def test_wake_next_round_keeps_a_quiet_node_scheduled(self):
        net = SyncNetwork(path_graph(4), WakingCountdown)
        assert set(net.run().values()) == {3}

    def test_always_active_keeps_a_quiet_node_scheduled(self):
        net = SyncNetwork(path_graph(4), AlwaysActiveCountdown)
        assert set(net.run().values()) == {3}

    def test_dense_reference_never_starves(self):
        with dense_scheduling():
            net = SyncNetwork(path_graph(4), SilentCountdown)
            assert set(net.run().values()) == {3}

    def test_isolated_vertex_gathers_its_empty_ball(self):
        # the always_active declaration on BallGatherProgram exists for
        # exactly this: an isolated vertex never receives, yet its radius
        # countdown must still run to completion
        g = Graph(vertices=[7], edges=[])
        net = SyncNetwork(g, lambda v, nbrs: BallGatherProgram(v, nbrs, 2, "s"))
        outputs = net.run()
        assert outputs[7].states == {7: "s"}

    def test_inboxes_allocated_only_for_receivers(self):
        # star: after round 0 every leaf messaged the hub and vice versa;
        # once leaves finish, pending inboxes must not accumulate entries
        # for non-receivers
        net = SyncNetwork(
            star_graph(5),
            lambda v, nbrs: BFSLayerProgram(v, nbrs, root=0, budget=7),
        )
        net.step_round()
        assert set(net._pending) <= set(net.graph.vertices())
        for receiver, inbox in net._pending.items():
            assert inbox, f"empty inbox allocated for {receiver!r}"

    def test_run_fast_exits_when_all_programs_finish(self):
        class OneShot(NodeProgram):
            def step(self, ctx):
                self.done = True
                self.output = ctx.node
                return {}

        net = SyncNetwork(path_graph(6), OneShot)
        net.run(max_rounds=10_000)
        assert net.stats.rounds == 1  # did not spin to the budget


# ---------------------------------------------------------------------------
# regression: trace ordering on graphs with >= 11 vertices
# ---------------------------------------------------------------------------

class Chatter(NodeProgram):
    """Round 0: broadcast and finish -- every node sends and completes."""

    def step(self, ctx):
        self.done = True
        self.output = ctx.node
        return self.broadcast(ctx.node)


class TestTraceOrderingRegression:
    """Traces used to sort with key=str: 0, 1, 10, 11, 2, ... for int ids."""

    def test_messages_sort_numerically_past_ten(self):
        g = path_graph(12)  # vertices 0..11: two-digit ids present
        sink = RecordingSink()
        SyncNetwork(g, Chatter, sinks=[sink]).run()
        senders = [m.sender for m in sink.rounds[0].messages]
        assert senders == sorted(senders)  # numeric, not lexicographic
        # the lexicographic bug put 10 and 11 between 1 and 2
        assert senders.index(2) < senders.index(10) < senders.index(11)

    def test_completed_sort_numerically_past_ten(self):
        g = path_graph(12)
        sink = RecordingSink()
        SyncNetwork(g, Chatter, sinks=[sink]).run()
        assert sink.rounds[0].completed == list(range(12))

    def test_vertex_key_orders_naturally(self):
        from repro.localmodel import vertex_key

        # ints numerically; mixed types do not raise; bools are not ints
        assert sorted([11, 2, 10, 1, 0], key=vertex_key) == [0, 1, 2, 10, 11]
        assert sorted([1, "a", 10, "b", 2], key=vertex_key) == [1, 2, 10, "a", "b"]
        assert vertex_key(True)[0] == 1  # grouped with non-numerics, not as 1


# ---------------------------------------------------------------------------
# regression: RoundTrace.round_number vs. the network's round counter
# ---------------------------------------------------------------------------

class TestRoundNumberAgreesWithNetwork:
    """round_number used to be len(recorded rounds), which drifted from
    network.stats.rounds whenever a caller stepped the engine directly."""

    def _traced(self):
        g = path_graph(5)
        sink = RecordingSink()
        net = SyncNetwork(
            g, lambda v, nbrs: BFSLayerProgram(v, nbrs, root=0, budget=6), sinks=[sink]
        )
        return net, sink

    def test_interleaved_direct_steps_stay_in_sync(self):
        net, sink = self._traced()
        net.step_round()  # direct engine calls, then the run loop
        net.step_round()
        net.run()
        assert [r.round_number for r in sink.rounds] == list(range(net.stats.rounds))
        assert sink.rounds[-1].round_number == net.stats.rounds - 1

    def test_full_run_round_numbers_are_the_networks(self):
        net, sink = self._traced()
        net.run()
        assert [r.round_number for r in sink.rounds] == list(range(net.stats.rounds))

    def test_recording_sink_rejects_drift(self):
        sink = RecordingSink()
        sink.on_round(0, [], [], 1)
        with pytest.raises(AssertionError, match="trace drift"):
            sink.on_round(2, [], [], 1)  # a skipped notification
