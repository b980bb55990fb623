"""The chaos-soak harness: plan fuzzing, delta-debugging, reproducibility."""

import random

import pytest

from repro.baselines.luby import LubyMISProgram
from repro.graphs import path_graph
from repro.localmodel import (
    CORRUPT_KINDS,
    CorruptSpec,
    FaultPlan,
    chaos_soak,
    independent_set_validator,
    minimize_plan,
    random_fault_plan,
)
from repro.localmodel.programs import BFSLayerProgram


def bfs_suite_entry(n=6):
    g = path_graph(n)

    def validator(graph, outputs):
        return [
            f"node {v} got distance {d}, expected {v}"
            for v, d in outputs.items()
            if d != v
        ]

    return ("bfs", g, lambda v, nbrs: BFSLayerProgram(v, nbrs, 0, 16), validator)


def luby_suite_entry(n=6):
    g = path_graph(n)
    factory = lambda v, nbrs: LubyMISProgram(v, nbrs, random.Random(3_000 + v))
    return ("luby", g, factory, independent_set_validator)


class TestRandomFaultPlan:
    def test_deterministic_in_seed(self):
        nodes = list(range(8))
        assert random_fault_plan(7, nodes) == random_fault_plan(7, nodes)
        plans = {random_fault_plan(s, nodes).spec() for s in range(30)}
        assert len(plans) > 10  # seeds actually vary the draw

    def test_never_empty(self):
        nodes = list(range(5))
        assert not any(
            random_fault_plan(s, nodes).is_empty() for s in range(200)
        )

    def test_events_respect_the_horizon(self):
        nodes = list(range(5))
        for s in range(100):
            plan = random_fault_plan(s, nodes, max_round=9)
            for c in plan.corrupts:
                assert 0 <= c.round_no < 9
            for crash in plan.crashes:
                assert 0 <= crash.crash_round < 9
                assert crash.recover_round is not None

    def test_kinds_filter(self):
        nodes = list(range(5))
        kinds = {
            c.kind
            for s in range(200)
            for c in random_fault_plan(s, nodes, kinds=("mis",)).corrupts
        }
        assert kinds == {"mis"}

    def test_validation(self):
        with pytest.raises(ValueError):
            random_fault_plan(0, [])
        with pytest.raises(ValueError):
            random_fault_plan(0, [1], max_round=0)


class TestMinimizePlan:
    def test_strips_irrelevant_atoms(self):
        plan = FaultPlan(
            seed=3,
            drop=0.2,
            duplicate=0.1,
            bursts=((2, 3),),
            corrupts=(CorruptSpec(1, 4, "scramble"), CorruptSpec(2, 5, "mis")),
        )

        def fails(p):
            return any(c.node == 1 for c in p.corrupts)

        small = minimize_plan(plan, fails)
        assert small.corrupts == (CorruptSpec(1, 4, "scramble"),)
        assert small.drop == 0.0 and small.duplicate == 0.0
        assert small.bursts == ()
        assert fails(small)

    def test_halves_surviving_probabilities(self):
        plan = FaultPlan(seed=3, drop=0.8)
        small = minimize_plan(plan, lambda p: p.drop >= 0.1)
        assert 0.1 <= small.drop < 0.8

    def test_never_returns_empty_plan(self):
        plan = FaultPlan(seed=3, corrupts=(CorruptSpec(1, 4, "scramble"),))
        small = minimize_plan(plan, lambda p: True)
        assert not small.is_empty()


class TestChaosSoak:
    def test_validation(self):
        with pytest.raises(ValueError):
            chaos_soak([], trials=3)
        with pytest.raises(ValueError):
            chaos_soak([bfs_suite_entry()], trials=0)

    def test_replays_bit_for_bit(self):
        suite = [bfs_suite_entry(), luby_suite_entry()]
        first = chaos_soak(suite, trials=6, seed=5)
        second = chaos_soak(suite, trials=6, seed=5)
        assert [t.as_dict() for t in first.trials] == [
            t.as_dict() for t in second.trials
        ]
        assert first.summary() == second.summary()

    def test_trials_round_robin_the_suite(self):
        suite = [bfs_suite_entry(), luby_suite_entry()]
        report = chaos_soak(suite, trials=4, seed=1, minimize=False)
        assert [t.program for t in report.trials] == ["bfs", "luby"] * 2

    def test_failures_minimize_to_reproducing_specs(self):
        suite = [bfs_suite_entry()]
        report = chaos_soak(suite, trials=12, seed=0)
        failures = report.failures()
        assert failures  # drops/crashes on a path BFS do break things
        for t in failures:
            assert t.minimized is not None
            assert t.reproduces is True
            # the minimized spec is a valid grammar string
            assert not FaultPlan.parse(t.minimized).is_empty()

    def test_minimize_off_leaves_fields_none(self):
        report = chaos_soak([bfs_suite_entry()], trials=12, seed=0, minimize=False)
        assert all(t.minimized is None for t in report.trials)

    def test_summary_aggregates(self):
        report = chaos_soak([bfs_suite_entry()], trials=8, seed=0, minimize=False)
        summary = report.summary()
        assert summary["trials"] == 8
        assert summary["failures"] == len(report.failures())
        assert sum(summary["by_kind"].values()) == summary["failures"]
        assert set(summary["by_program"]) <= {"bfs"}
