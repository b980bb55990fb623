"""The deterministic fault-injection layer (FaultPlan + network hook)."""

import io
import json

import pytest

from repro.graphs import path_graph, star_graph
from repro.localmodel import (
    CrashSpec,
    FaultPlan,
    FaultPlanError,
    JSONLTraceSink,
    MessageMeter,
    MetricsSink,
    RecordingSink,
    SyncNetwork,
    canonical_transcript,
    shadow_check,
)
from repro.localmodel.programs import BFSLayerProgram, EchoCountProgram
from tests.oracles import dense_scheduling


def bfs_factory(root=0, budget=12):
    return lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget)


def echo_factory(root=0):
    return lambda v, nbrs: EchoCountProgram(v, nbrs, root)


class TestFaultPlanValidation:
    def test_probabilities_must_be_probabilities(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(drop=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(delay=-0.1)

    def test_max_delay_positive(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(delay=0.5, max_delay=0)

    def test_burst_window_sane(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(bursts=((5, 3),))

    def test_one_crash_schedule_per_node(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(CrashSpec(1, 2), CrashSpec(1, 5)))

    def test_recover_after_crash(self):
        with pytest.raises(FaultPlanError):
            CrashSpec(0, 5, recover_round=5)

    def test_unknown_crash_node_rejected_by_network(self):
        with pytest.raises(FaultPlanError, match="unknown node"):
            SyncNetwork(
                path_graph(3),
                bfs_factory(),
                faults=FaultPlan(crashes=(CrashSpec(99, 1),)),
            )


class TestGrammar:
    def test_empty_string_is_identity(self):
        plan = FaultPlan.parse("")
        assert plan.is_empty()
        assert plan.spec() == ""

    def test_round_trip(self):
        text = "drop=0.2,dup=0.1,delay=0.05:3,burst=2-4,crash=3@5-9,seed=7"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.spec()) == plan
        assert plan.max_delay == 3
        assert plan.bursts == ((2, 4),)
        assert plan.crashes == (CrashSpec(3, 5, 9),)

    def test_crash_stop_and_recover_forms(self):
        plan = FaultPlan.parse("crash=2@4,crash=5@1-6")
        assert plan.crashes[0].recover_round is None
        assert plan.crashes[1].recover_round == 6

    def test_bad_tokens_raise(self):
        for bad in ("drop", "drop=x", "wibble=1", "crash=3", "burst=9-4"):
            with pytest.raises(FaultPlanError):
                FaultPlan.parse(bad)


class TestDeterminism:
    def test_decide_is_pure(self):
        plan = FaultPlan(seed=3, drop=0.4, delay=0.3, max_delay=4)
        first = [plan.decide(r, 0, 1) for r in range(50)]
        second = [plan.decide(r, 0, 1) for r in range(50)]
        assert first == second

    def test_decide_independent_per_edge(self):
        plan = FaultPlan(seed=3, drop=0.5)
        fates = {(s, r): plan.decide(2, s, r) for s in range(6) for r in range(6)}
        assert len(set(fates.values())) > 1  # not all edges share one fate

    def test_same_plan_same_run(self):
        g = path_graph(8)
        plan = FaultPlan(seed=5, drop=0.25, delay=0.2, duplicate=0.1)
        runs = []
        for _ in range(2):
            sink = RecordingSink()
            net = SyncNetwork(g, bfs_factory(), sinks=[sink], faults=plan)
            outputs = net.run(max_rounds=200)
            runs.append((outputs, canonical_transcript(sink), net.fault_summary()))
        assert runs[0] == runs[1]


class TestEmptyPlanIdentity:
    """The acceptance criterion: an empty plan is byte-identical."""

    def test_transcript_outputs_stats_identical(self):
        g = path_graph(9)
        bare_sink, empty_sink = RecordingSink(), RecordingSink()
        bare = SyncNetwork(g, bfs_factory(), sinks=[bare_sink])
        empty = SyncNetwork(g, bfs_factory(), sinks=[empty_sink], faults=FaultPlan())
        assert bare.run() == empty.run()
        assert bare.stats == empty.stats
        assert canonical_transcript(bare_sink) == canonical_transcript(empty_sink)

    def test_jsonl_byte_identical(self):
        g = star_graph(4)
        streams = []
        for faults in (None, FaultPlan()):
            stream = io.StringIO()
            net = SyncNetwork(
                g, bfs_factory(budget=4), sinks=[JSONLTraceSink(stream)], faults=faults
            )
            net.run()
            streams.append(stream.getvalue())
        assert streams[0] == streams[1]
        assert '"status"' not in streams[0]

    def test_shadow_check_passes_under_empty_plan(self):
        # the shadow check's permuted inboxes on a network carrying an
        # empty plan: the transcript matches the plan-free baseline
        def transcript(**options):
            sink = RecordingSink()
            net = SyncNetwork(
                path_graph(7), bfs_factory(budget=8), sinks=[sink], **options
            )
            return net.run(), canonical_transcript(sink)

        baseline = transcript()
        assert shadow_check(path_graph(7), bfs_factory(budget=8)).deterministic
        for seed in (1, 2, 3):
            assert transcript(faults=FaultPlan(), inbox_order=seed) == baseline

    def test_empty_plan_summary_all_zero(self):
        net = SyncNetwork(path_graph(4), bfs_factory(budget=5), faults=FaultPlan())
        net.run()
        summary = net.fault_summary()
        assert summary == {
            "dropped": 0, "delayed": 0, "duplicated": 0,
            "crash_events": 0, "recover_events": 0, "corrupt_events": 0,
            "still_crashed": 0,
        }


class TestSinksSeeTaggedRecords:
    def _drop_everything_run(self):
        # a burst over every round: all sends drop, BFS ends at budget
        g = path_graph(4)
        sink = RecordingSink()
        metrics = MetricsSink()
        meter = MessageMeter()
        net = SyncNetwork(
            g,
            bfs_factory(budget=3),
            sinks=[sink, metrics, meter],
            faults=FaultPlan(bursts=((0, 99),)),
        )
        net.run()
        return net, sink, metrics, meter

    def test_recording_sink_sees_dropped(self):
        net, sink, _, _ = self._drop_everything_run()
        statuses = {m.status for r in sink.rounds for m in r.messages}
        assert statuses == {"dropped"}
        # nobody but the root learned a distance
        assert net.outputs()[0] == 0
        assert all(net.outputs()[v] is None for v in (1, 2, 3))

    def test_messages_sent_still_counts_drops(self):
        net, _, metrics, _ = self._drop_everything_run()
        assert net.stats.messages_sent > 0
        assert net.stats.messages_sent == sum(metrics.message_counts)
        assert net.fault_summary()["dropped"] == net.stats.messages_sent

    def test_meter_sees_dropped_payloads(self):
        _, _, _, meter = self._drop_everything_run()
        assert meter.total_payload_words > 0

    def test_jsonl_tags_non_default_status(self):
        stream = io.StringIO()
        net = SyncNetwork(
            path_graph(4),
            bfs_factory(budget=3),
            sinks=[JSONLTraceSink(stream)],
            faults=FaultPlan(bursts=((0, 99),)),
        )
        net.run()
        rounds = [json.loads(line) for line in stream.getvalue().splitlines()]
        tagged = [m for r in rounds for m in r["messages"]]
        assert tagged and all(m["status"] == "dropped" for m in tagged)


class TestDelayAndDuplicate:
    def test_delayed_message_arrives_late_with_late_tag(self):
        # one edge, delay forced by an always-delay plan on round 0 only
        g = path_graph(2)
        plan = FaultPlan(seed=1, delay=1.0, max_delay=1)
        sink = RecordingSink()
        net = SyncNetwork(g, echo_factory(), sinks=[sink], faults=plan)
        outputs = net.run(max_rounds=50)
        assert outputs[0] == 2  # still completes, just later
        statuses = [m.status for r in sink.rounds for m in r.messages]
        assert "delayed" in statuses and "late" in statuses
        # a delayed record never reaches an inbox; its late twin does
        for r in sink.rounds:
            for m in r.messages:
                if m.status == "late":
                    late_round = r.round_number
                if m.status == "delayed":
                    sent_round = r.round_number
        assert late_round > sent_round

    def test_delay_extends_rounds_but_preserves_result(self):
        g = path_graph(5)
        bare = SyncNetwork(g, echo_factory())
        bare_out = bare.run()
        delayed = SyncNetwork(
            g, echo_factory(), faults=FaultPlan(seed=2, delay=0.6, max_delay=3)
        )
        delayed_out = delayed.run(max_rounds=200)
        assert delayed_out == bare_out
        assert delayed.stats.rounds > bare.stats.rounds

    def test_duplicates_do_not_break_idempotent_programs(self):
        g = path_graph(6)
        plan = FaultPlan(seed=4, duplicate=0.8)
        net = SyncNetwork(g, bfs_factory(budget=8), sinks=[], faults=plan)
        assert net.run() == {v: v for v in range(6)}
        assert net.fault_summary()["duplicated"] > 0

    def test_duplicate_copies_not_counted_as_sends(self):
        g = path_graph(4)
        bare = SyncNetwork(g, bfs_factory(budget=6))
        bare.run()
        dup = SyncNetwork(
            g, bfs_factory(budget=6), faults=FaultPlan(seed=1, duplicate=1.0)
        )
        dup.run()
        assert dup.stats.messages_sent == bare.stats.messages_sent


class TestCrashes:
    def test_crash_stop_partitions_the_flood(self):
        g = path_graph(6)
        net = SyncNetwork(
            g, bfs_factory(budget=8), faults=FaultPlan.parse("crash=3@1")
        )
        outputs = net.run()
        assert outputs[0] == 0 and outputs[1] == 1 and outputs[2] == 2
        # the crashed node and everything behind it never learn anything
        assert outputs[3] is None and outputs[4] is None and outputs[5] is None
        assert net.crashed_nodes() == [3]

    def test_crash_recover_heals_when_flood_arrives_after_recovery(self):
        # node 4 is back up (round 3) before the BFS frontier reaches it
        # (round 4), so the one-shot flood still covers everyone
        g = path_graph(6)
        net = SyncNetwork(
            g, bfs_factory(budget=12), faults=FaultPlan.parse("crash=4@1-3")
        )
        outputs = net.run()
        assert outputs == {v: v for v in range(6)}
        summary = net.fault_summary()
        assert summary["crash_events"] == 1
        assert summary["recover_events"] == 1
        assert net.crashed_nodes() == []

    def test_sends_to_crashed_node_are_dropped(self):
        g = path_graph(3)
        sink = RecordingSink()
        net = SyncNetwork(
            g,
            bfs_factory(budget=4),
            sinks=[sink],
            faults=FaultPlan.parse("crash=2@0"),
        )
        net.run()
        to_crashed = [
            m for r in sink.rounds for m in r.messages if m.receiver == 2
        ]
        assert to_crashed and all(m.status == "dropped" for m in to_crashed)

    def test_run_waits_for_scheduled_recovery(self):
        # event-driven echo + a recovery far in the future: the active
        # set empties at round 1, but the run must keep ticking until the
        # recovery fires instead of declaring starvation early.  The heal
        # still fails here (the child's one-shot count was dropped), and
        # it fails *loudly* -- after the recovery round, not before it.
        g = path_graph(3)
        net = SyncNetwork(
            g, echo_factory(), faults=FaultPlan.parse("crash=1@0-8")
        )
        with pytest.raises(RuntimeError, match="starved"):
            net.run(max_rounds=60)
        assert net.stats.rounds >= 8
        assert net.fault_summary()["recover_events"] == 1

    def test_dense_scheduler_also_skips_crashed(self):
        g = path_graph(4)
        with dense_scheduling():
            net = SyncNetwork(
                g,
                bfs_factory(budget=6),
                faults=FaultPlan.parse("crash=2@0"),
            )
            outputs = net.run()
        assert outputs[2] is None and outputs[3] is None
