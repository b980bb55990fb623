"""The D1 and K2 cells at small n: dispatch paths and the K2 witness."""

import json
from unittest import mock

import pytest

from repro.localmodel.gather import DeltaGatherKernel
from repro.runner import REGISTRY, plan_cells
from repro.runner.cells import d1_cell, k2_cell

K2_SMALL = {"pairs": (("path", 300, 6), ("interval", 120, 4)), "large": (), "sample": 8}


class TestK2:
    @pytest.mark.parametrize("family,n,radius", K2_SMALL["pairs"])
    def test_node_and_batch_rows_agree(self, family, n, radius):
        node = k2_cell(family, n, radius, "node", 0, 8)
        batch = k2_cell(family, n, radius, "batch", 0, 8)
        assert node["path"] == "node"
        assert batch["path"] == "batch"
        assert "fallback_reason" not in batch
        for key in ("n", "m", "rounds", "messages", "max_messages_per_round"):
            assert node[key] == batch[key], key
        assert node["agree"] == batch["agree"] == node["sampled"] == 8
        assert json.loads(json.dumps(batch)) == batch

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown K2 path"):
            k2_cell("path", 50, 2, "auto", 0, 4)

    def test_plan_sweeps_the_path_axis(self):
        specs = plan_cells(["K2"], {"K2": K2_SMALL})
        assert [s.params["path"] for s in specs] == ["node", "batch"] * 2

    def test_table_has_no_executor_column(self):
        specs = plan_cells(["K2"], {"K2": K2_SMALL})
        values = [k2_cell(**s.params) for s in specs]
        header = REGISTRY["K2"].render(specs, values).splitlines()[2]
        assert header.split() == [
            "family", "n", "m", "radius", "path", "rounds", "messages", "ball", "oracle",
        ]


class TestD1:
    @pytest.mark.parametrize("pipeline", ["mvc", "mis"])
    def test_cell_takes_the_batch_path(self, pipeline):
        payload = d1_cell(pipeline, "path", 200, 0, 8)
        assert payload["path"] == "batch"
        assert "fallback_reason" not in payload
        assert payload["agree"] == payload["sampled"] == 8
        assert "executor" not in payload

    def test_cell_counts_no_sends(self):
        # D1 reads only the gather's balls and rounds, so it passes no info
        def refuse(*args, **kwargs):
            raise AssertionError("D1 counted the gather's sends")

        expected = d1_cell("mvc", "interval", 60, 0, 8)
        with mock.patch.object(DeltaGatherKernel, "_counted_rounds", refuse):
            payload = d1_cell("mvc", "interval", 60, 0, 8)
        # the second call reuses the worker's graph
        assert payload == {**expected, "graph_cache_hit": True}
        assert payload["path"] == "batch" and payload["rounds"] == 11

    def test_plan_has_no_executor_param(self):
        for spec in plan_cells(["D1"]):
            assert "executor" not in spec.params
