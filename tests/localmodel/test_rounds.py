"""Per-node completion clocks."""

import pytest

from repro.localmodel import NodeClocks


class TestNodeClocks:
    def test_set_and_query(self):
        clocks = NodeClocks()
        clocks.set_at("a", 5)
        clocks.set_at("b", 9)
        assert clocks.at("a") == 5
        assert "a" in clocks
        assert "z" not in clocks
        assert clocks.ready(["a", "b"]) == 9
        assert clocks.makespan() == 9

    def test_clock_may_stay_or_advance(self):
        clocks = NodeClocks()
        clocks.set_at("a", 5)
        clocks.set_at("a", 5)
        clocks.set_at("a", 8)
        assert clocks.at("a") == 8

    def test_clock_cannot_move_backwards(self):
        clocks = NodeClocks()
        clocks.set_at("a", 5)
        with pytest.raises(ValueError):
            clocks.set_at("a", 4)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            NodeClocks().set_at("a", -1)

    def test_ready_of_nothing(self):
        assert NodeClocks().ready([]) == 0
        assert NodeClocks().makespan() == 0

    def test_as_dict_is_copy(self):
        clocks = NodeClocks()
        clocks.set_at("a", 1)
        d = clocks.as_dict()
        d["a"] = 99
        assert clocks.at("a") == 1
