"""Static-vs-dynamic cross-validation of the bandwidth pass.

The contract under test is one-sided: the static certificate must
*upper-bound* what the meter observes (`static class >= observed growth
class`), and the shadow checker must find the planted order-dependent
fixture while passing every shipped program.  A `const` certificate on a
program whose measured payload grows would be a certifier soundness bug;
a `ball`/`unbounded` certificate on a flat measurement is mere
pessimism, which is allowed.
"""

from __future__ import annotations

import pytest

from repro.graphs import cycle_graph, path_graph
from repro.lint import CLASS_ORDER, certificates_for_modules, load_modules
from repro.localmodel import MessageMeter, SyncNetwork, shadow_check
from repro.localmodel.stock import stock_suite

from .conftest import BANDWIDTH_CHEATERS
from .fixtures.bandwidth_programs import (
    EndlessFloodProgram,
    GossipOrderProgram,
    LeakyGatherProgram,
)


def measured_max_words(graph, factory, max_rounds=500):
    meter = MessageMeter()
    SyncNetwork(graph, factory, sinks=[meter]).run(max_rounds=max_rounds)
    return meter.max_payload_words


@pytest.fixture(scope="module")
def fixture_certs():
    certs = certificates_for_modules(load_modules([BANDWIDTH_CHEATERS]))
    return {c.program: c for c in certs}


class TestStaticUpperBoundsObserved:
    """`static class >= observed growth class`, program by program."""

    def test_flood_certificate_admits_its_measured_growth(self, fixture_certs):
        small = measured_max_words(cycle_graph(8), EndlessFloodProgram)
        large = measured_max_words(cycle_graph(32), EndlessFloodProgram)
        assert large >= 2 * small  # the fixture genuinely floods
        # growing measurement demands a class above `const`
        cert = fixture_certs["EndlessFloodProgram"]
        assert cert.class_index > CLASS_ORDER.index("const")
        assert cert.message_class == "unbounded"

    def test_leaky_gather_growth_is_bounded_by_its_horizon(self, fixture_certs):
        # ball class: growth follows the radius, not n
        flat_n = [
            measured_max_words(
                cycle_graph(n), lambda v, nbrs: LeakyGatherProgram(v, nbrs, radius=2)
            )
            for n in (16, 48)
        ]
        assert flat_n[0] == flat_n[1]
        by_radius = [
            measured_max_words(
                cycle_graph(64), lambda v, nbrs, r=r: LeakyGatherProgram(v, nbrs, radius=r)
            )
            for r in (2, 4)
        ]
        assert by_radius[1] > by_radius[0]
        assert fixture_certs["LeakyGatherProgram"].message_class == "ball"

    def test_every_const_stock_program_measures_flat(self):
        """The acceptance inequality over the whole shipped suite."""
        from repro.runner.cells import c1_cell

        for program in ("bfs", "leader", "echo", "linial", "luby", "coloring"):
            small = c1_cell(program=program, n=16, seed=0)
            large = c1_cell(program=program, n=64, seed=0)
            assert small["static_class"] == large["static_class"] == "const"
            assert large["max_words"] == small["max_words"], program

    def test_ball_stock_program_growth_tracks_radius(self):
        from repro.runner.cells import c1_cell

        small = c1_cell(program="gather", n=16, seed=0)
        large = c1_cell(program="gather", n=64, seed=0)
        assert small["static_class"] == "ball"
        assert small["horizon"] == "radius"
        # the sweep scales radius with n, so the ball row must grow --
        # and the static class admits it (ball > const in CLASS_ORDER)
        assert large["max_words"] > small["max_words"]
        assert CLASS_ORDER.index(small["static_class"]) > CLASS_ORDER.index("const")


class TestShadowChecker:
    def test_planted_fixture_is_found(self):
        report = shadow_check(cycle_graph(8), GossipOrderProgram)
        assert not report.deterministic
        kinds = {d.kind for d in report.divergences}
        assert "transcript" in kinds or "outputs" in kinds

    def test_divergence_names_the_first_bad_round(self):
        report = shadow_check(cycle_graph(8), GossipOrderProgram)
        transcript_divs = [d for d in report.divergences if d.kind == "transcript"]
        assert transcript_divs and all(d.round_no == 1 for d in transcript_divs)

    def test_leaky_programs_can_still_be_deterministic(self):
        # L7/L8 are bandwidth sins, not determinism sins: dict-merge
        # accumulation is order-insensitive, so the shadow run passes
        for cls in (EndlessFloodProgram, LeakyGatherProgram):
            assert shadow_check(cycle_graph(8), cls).deterministic, cls.__name__

    def test_every_shipped_program_is_deterministic(self):
        for name, graph, factory, _validator in stock_suite():
            report = shadow_check(graph, factory)
            assert report.deterministic, (name, report.divergences)

    def test_order_sensitive_outputs_differ_between_seeds(self):
        base = SyncNetwork(path_graph(6), GossipOrderProgram).run()
        permuted = SyncNetwork(
            path_graph(6), GossipOrderProgram, inbox_order=1
        ).run()
        # degree-2 interior nodes relay whichever neighbor iterates first
        assert base != permuted
