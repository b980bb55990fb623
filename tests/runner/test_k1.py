"""The K1 cell peels every family within Lemma 6's bound."""

import math

import pytest

from repro.runner.cells import k1_cell


@pytest.mark.parametrize("family", ["ktree3", "interval", "path"])
def test_k1_cell_peels_every_family(family):
    value = k1_cell(family, 2000, 0, 12)
    assert value["exhausted"] is True
    assert 1 <= value["layers"] <= math.ceil(math.log2(value["n"]))
