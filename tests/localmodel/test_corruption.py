"""Transient state corruption: grammar, determinism, between-round
semantics, and the byte-identity regression for empty corruption plans."""

import pytest

from repro.graphs import path_graph, star_graph
from repro.localmodel import (
    CORRUPT_KINDS,
    CorruptSpec,
    FaultPlan,
    FaultPlanError,
    RecordingSink,
    SyncNetwork,
    canonical_transcript,
    corrupt_program,
    gather_balls,
)
from repro.localmodel.faults import _PROTECTED_FIELDS
from repro.localmodel.programs import BFSLayerProgram
from repro.localmodel.stock import STOCK
from tests.oracles import scheduling


def bfs_factory(root=0, budget=12):
    return lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget)


class TestCorruptSpecGrammar:
    def test_round_trip_with_kind(self):
        text = "corrupt=4@6:color,corrupt=2@0:scramble,seed=7"
        plan = FaultPlan.parse(text)
        assert plan.corrupts == (
            CorruptSpec(4, 6, "color"),
            CorruptSpec(2, 0, "scramble"),
        )
        assert FaultPlan.parse(plan.spec()) == plan

    def test_kind_defaults_to_scramble(self):
        plan = FaultPlan.parse("corrupt=3@5")
        assert plan.corrupts == (CorruptSpec(3, 5, "scramble"),)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("corrupt=3@5:voltage")

    def test_negative_round_rejected(self):
        with pytest.raises(FaultPlanError):
            CorruptSpec(3, -1, "color")

    def test_unknown_corrupt_node_rejected_by_network(self):
        with pytest.raises(FaultPlanError, match="unknown node"):
            SyncNetwork(
                path_graph(3),
                bfs_factory(),
                faults=FaultPlan(corrupts=(CorruptSpec(99, 1),)),
            )


class TestCorruptProgramDeterminism:
    def _fresh(self):
        return BFSLayerProgram(1, [0, 2], 0, 12)

    def test_same_spec_same_mutation(self):
        spec = CorruptSpec(1, 4, "scramble")
        states = []
        for _ in range(2):
            program = self._fresh()
            program.output = 17
            corrupt_program(program, spec, seed=9)
            states.append(dict(program.__dict__))
        assert states[0] == states[1]

    def test_round_keys_the_stream(self):
        # the rng is keyed on (seed, round, node, kind): the same flip
        # scheduled at a different round draws a different value
        outputs = set()
        for round_no in range(8):
            program = self._fresh()
            program.output = 17
            corrupt_program(program, CorruptSpec(1, round_no, "color"), seed=9)
            outputs.add(program.output)
        assert len(outputs) > 1

    def test_mis_kind_negates_boolean(self):
        program = self._fresh()
        program.output = True
        assert corrupt_program(program, CorruptSpec(1, 2, "mis"), seed=0)
        assert program.output is False

    def test_protected_fields_survive_scramble(self):
        program = self._fresh()
        program.output = 3
        before = {f: getattr(program, f) for f in _PROTECTED_FIELDS}
        corrupt_program(program, CorruptSpec(1, 2, "scramble"), seed=5)
        after = {f: getattr(program, f) for f in _PROTECTED_FIELDS}
        assert before == after

    def test_ineffective_kind_reports_false(self):
        # a color flip needs an integer output; None is untouchable
        program = self._fresh()
        assert program.output is None
        assert not corrupt_program(program, CorruptSpec(1, 2, "color"), seed=0)


class TestCorruptionSemantics:
    def test_halted_node_keeps_corrupted_output(self):
        # BFS quiesces, then the corruption strikes the halted (and
        # non-repairable) node: the run still terminates, the node stays
        # done, and the corrupted output persists -- the "unsafe" story.
        g = path_graph(4)
        bare = SyncNetwork(g, bfs_factory())
        bare_out = bare.run()
        horizon = bare.stats.rounds + 2
        net = SyncNetwork(
            g,
            bfs_factory(),
            faults=FaultPlan(seed=3, corrupts=(CorruptSpec(2, horizon, "color"),)),
        )
        outputs = net.run(max_rounds=200)
        assert net.programs[2].done
        assert outputs[2] != bare_out[2]
        assert net.fault_summary()["corrupt_events"] == 1

    def test_pending_corruption_keeps_quiesced_network_ticking(self):
        g = path_graph(4)
        bare = SyncNetwork(g, bfs_factory())
        bare.run()
        late = bare.stats.rounds + 5
        net = SyncNetwork(
            g,
            bfs_factory(),
            faults=FaultPlan(seed=1, corrupts=(CorruptSpec(1, late, "scramble"),)),
        )
        net.run(max_rounds=200)
        assert net.stats.rounds > bare.stats.rounds
        assert net.fault_summary()["corrupt_events"] == 1

    def test_corruption_at_round_zero(self):
        # round 0 executes, sinks observe it, then the corruption lands:
        # round 1 is the first corrupted-state round
        g = path_graph(4)
        net = SyncNetwork(
            g,
            bfs_factory(),
            faults=FaultPlan(seed=2, corrupts=(CorruptSpec(0, 0, "scramble"),)),
        )
        net.run(max_rounds=200)
        assert net._fault_runtime.corruption_rounds == [0]

    def test_corruption_of_crashed_node_is_skipped(self):
        g = path_graph(4)
        net = SyncNetwork(
            g,
            bfs_factory(),
            faults=FaultPlan.parse("crash=2@0,corrupt=2@1:scramble,seed=4"),
        )
        net.run(max_rounds=200)
        assert net.fault_summary()["corrupt_events"] == 0

    def test_sinks_see_uncorrupted_round(self):
        # the corruption round's own trace shows the round as executed;
        # the flip is only visible from the next round on
        g = star_graph(4)
        sink = RecordingSink()
        net = SyncNetwork(
            g,
            bfs_factory(budget=4),
            sinks=[sink],
            faults=FaultPlan(seed=6, corrupts=(CorruptSpec(0, 0, "scramble"),)),
        )
        net.run(max_rounds=50)
        statuses = {m.status for r in sink.rounds for m in r.messages}
        assert statuses <= {"delivered"}  # corruption is not a message event


class TestEmptyCorruptionByteIdentity:
    """Acceptance: no corruption + checkpointing disabled == PR 9 baseline."""

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    @pytest.mark.parametrize("sealed", [False, True])
    def test_network_grid(self, scheduler, sealed):
        g = path_graph(7)
        runs = []
        for faults in (None, FaultPlan()):
            sink = RecordingSink()
            with scheduling(scheduler):
                net = SyncNetwork(
                    g,
                    bfs_factory(),
                    sealed=sealed,
                    sinks=[sink],
                    faults=faults,
                    recovery="intact",
                    checkpoint_every=None,
                )
                outputs = net.run()
            runs.append((outputs, net.stats, canonical_transcript(sink)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("path", ["batch", "node"])
    def test_executor_grid(self, path):
        g = path_graph(7)
        factory = (
            bfs_factory() if path == "node" else STOCK["gather-delta"].build(g, radius=3)[0]
        )
        runs = []
        for faults in (None, FaultPlan()):
            net = SyncNetwork(g, factory, faults=faults)
            runs.append((net.run(), net.stats))
        assert runs[0] == runs[1]
        if path == "batch":
            # the gather's per-node programs under an empty plan equal the
            # whole-round kernel gather_balls runs
            info = {}
            balls, _rounds = gather_balls(g, 3, info=info)
            assert runs[1] == (balls, info["stats"])
