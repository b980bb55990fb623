"""Network tracing: exact communication patterns of the stock programs."""

import pytest

from repro.graphs import path_graph, star_graph
from repro.localmodel import MetricsSink, RecordingSink, SyncNetwork
from repro.localmodel.gather import BallGatherProgram
from repro.localmodel.programs import BFSLayerProgram


def recorded(graph, factory, *sinks):
    """A network with a :class:`RecordingSink` first: (network, sink)."""
    sink = RecordingSink()
    return SyncNetwork(graph, factory, sinks=[sink, *sinks]), sink


class TestTracedRuns:
    def test_ball_gather_floods_exactly_radius_rounds(self):
        g = path_graph(6)
        radius = 2
        net, sink = recorded(
            g, lambda v, nbrs: BallGatherProgram(v, nbrs, radius, None)
        )
        net.run()
        sending = [r for r in sink.rounds if r.message_count > 0]
        assert len(sending) == radius  # one flooding round per hop
        # every sending round uses every edge in both directions
        assert all(r.message_count == 2 * g.num_edges() for r in sending)

    def test_bfs_trace_shows_wavefront(self):
        g = path_graph(5)
        net, sink = recorded(
            g, lambda v, nbrs: BFSLayerProgram(v, nbrs, root=0, budget=6)
        )
        out = net.run()
        assert out == {i: i for i in range(5)}
        # node i first sends in round i (when its distance settles)
        first_send = {}
        for r in sink.rounds:
            for m in r.messages:
                first_send.setdefault(m.sender, r.round_number)
        assert first_send[0] == 0
        assert first_send[1] == 1
        assert first_send[4] == 4

    def test_timeline_rendering(self):
        g = star_graph(3)
        net, sink = recorded(
            g, lambda v, nbrs: BFSLayerProgram(v, nbrs, root=0, budget=3)
        )
        net.run()
        text = sink.timeline(max_messages_per_round=2)
        assert "round 0:" in text
        assert "sent:" in text
        assert "+" in text or "->" in text
        assert text.count("\n") == len(sink.rounds) - 1

    def test_total_and_quiet(self):
        # the metrics summary totals what the recording holds
        g = path_graph(4)
        metrics = MetricsSink()
        net, sink = recorded(
            g, lambda v, nbrs: BFSLayerProgram(v, nbrs, root=0, budget=5), metrics
        )
        net.run()
        summary = metrics.summary()
        assert summary["messages"] == sum(r.message_count for r in sink.rounds) >= 3
        assert summary["quiet_rounds"] == sum(
            1 for r in sink.rounds if r.message_count == 0
        )
        assert summary["rounds"] == len(sink.rounds) == net.stats.rounds

    def test_round_budget(self):
        from repro.localmodel import NodeProgram

        class Stuck(NodeProgram):
            def step(self, ctx):
                return {}

        net, _sink = recorded(path_graph(3), Stuck)
        with pytest.raises(RuntimeError):
            net.run(max_rounds=4)
