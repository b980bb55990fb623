"""The K1 cell peels every family within Lemma 6's bound, and checks it."""

import math

import pytest

from repro.runner import cells
from repro.runner.cells import k1_cell
from repro.runner.engine import execute_cell

PARAMS = {"family": "path", "n": 200, "seed": 0, "threshold": 12}


@pytest.mark.parametrize("family", ["ktree3", "interval", "path"])
def test_k1_cell_peels_every_family(family):
    value = k1_cell(family, 2000, 0, 12)
    assert value["exhausted"] is True
    assert 1 <= value["layers"] <= math.ceil(math.log2(value["n"]))
    assert value["colors"] == value["omega"]


class _Peeling:
    """A stand-in peeling with a chosen layer count."""

    def __init__(self, layers, exhausted):
        self._layers = layers
        self.exhausted = exhausted

    def num_layers(self):
        return self._layers


def test_k1_cell_fails_when_colors_differ_from_omega(monkeypatch):
    monkeypatch.setattr(cells, "num_colors", lambda coloring: 3)
    status, value, error, _ = execute_cell("K1", "k1_cell", PARAMS)
    assert status == "failed" and value is None
    assert "used 3 colors, but omega = 2" in error


def test_k1_cell_fails_when_an_exhausted_peeling_breaks_lemma_6(monkeypatch):
    bound = math.ceil(math.log2(PARAMS["n"]))
    monkeypatch.setattr(
        cells, "peel_chordal_graph", lambda g, rule: _Peeling(bound + 1, True)
    )
    status, value, error, _ = execute_cell("K1", "k1_cell", PARAMS)
    assert status == "failed" and value is None
    assert f"{bound + 1} layers, over Lemma 6's ceil(log2 n) = {bound}" in error


def test_k1_cell_bounds_only_exhausted_peelings(monkeypatch):
    bound = math.ceil(math.log2(PARAMS["n"]))
    monkeypatch.setattr(
        cells, "peel_chordal_graph", lambda g, rule: _Peeling(bound + 1, False)
    )
    status, value, error, _ = execute_cell("K1", "k1_cell", PARAMS)
    assert status == "ok", error
    assert value["layers"] == bound + 1 and value["exhausted"] is False
