"""The S1 experiment: plan shape and the stabilization/chaos cells."""

import json

from repro.runner import plan_cells
from repro.runner.cells import s1_cell, s1_chaos_cell


class TestPlan:
    def test_default_plan_shape(self):
        specs = plan_cells(["S1"])
        assert len(specs) == 11
        assert [s.fn for s in specs] == ["s1_cell"] * 8 + ["s1_chaos_cell"] * 3
        matrix = {
            (s.params["program"], s.params["repaired"], s.params["kind"])
            for s in specs
            if s.fn == "s1_cell"
        }
        assert matrix == {
            (p, r, k)
            for p in ("coloring", "mis")
            for r in (False, True)
            for k in ("flip", "scramble")
        }
        assert [s.params["program"] for s in specs if s.fn == "s1_chaos_cell"] == [
            "bfs", "coloring", "luby",
        ]

    def test_overrides_shrink_the_sweep(self):
        specs = plan_cells(["S1"], overrides={"S1": {
            "programs": ("mis",), "kinds": ("flip",),
            "chaos_programs": (), "n": 8,
        }})
        assert len(specs) == 2
        assert all(s.params["n"] == 8 for s in specs)


class TestS1Cell:
    def test_deterministic_and_json_plain(self):
        a = s1_cell(program="mis", repaired=True, kind="flip", n=8, seed=0)
        b = s1_cell(program="mis", repaired=True, kind="flip", n=8, seed=0)
        assert a == b
        assert json.loads(json.dumps(a)) == a

    def test_repaired_flip_self_heals(self):
        payload = s1_cell(program="mis", repaired=True, kind="flip", n=8, seed=0)
        assert payload["classification"] == "self-healing"
        assert payload["recovered"]
        assert payload["repairs"] >= 1
        assert payload["injected"]["corrupt_events"] == 1

    def test_unrepaired_flip_is_unsafe(self):
        payload = s1_cell(program="mis", repaired=False, kind="flip", n=8, seed=0)
        assert payload["classification"] == "unsafe"
        assert payload["problems"]

    def test_flip_provably_violates_for_coloring_too(self):
        # the flip probe must key the corruption stream on the real
        # injection round; a mis-keyed probe shows up here as a flip
        # that never trips the validator
        payload = s1_cell(
            program="coloring", repaired=False, kind="flip", n=8, seed=0
        )
        assert payload["classification"] == "unsafe"

    def test_plan_field_replays_through_the_grammar(self):
        from repro.localmodel import FaultPlan

        payload = s1_cell(program="mis", repaired=True, kind="scramble", n=8, seed=0)
        plan = FaultPlan.parse(payload["plan"])
        assert len(plan.corrupts) == 1
        assert payload["victim"] == str(plan.corrupts[0].node)


class TestS1ChaosCell:
    def test_soak_accounting_and_repro_gate(self):
        payload = s1_chaos_cell(program="bfs", trials=6, seed=0, n=8)
        assert payload["trials"] == 6
        assert payload["failures"] == sum(payload["by_kind"].values())
        assert payload["minimized"] == payload["failures"]
        assert payload["all_reproduce"] is True
        assert len(payload["specs"]) == payload["failures"]
        # every soak trial carries a non-empty plan, so it always steps
        # node by node: there is no dispatch to report
        assert "executor" not in payload

    def test_deterministic(self):
        a = s1_chaos_cell(program="luby", trials=4, seed=1, n=8)
        b = s1_chaos_cell(program="luby", trials=4, seed=1, n=8)
        assert a == b
        assert json.loads(json.dumps(a)) == a
