"""Byte-compatibility: the engine reproduces the serial tables exactly.

Ground truth is the ``*_rows`` oracles of ``tests/oracles.py`` — the
original nested serial loops, untouched by the runner — formatted the
way the first serial report formatted them.  The runner must match byte
for byte at any job count, including fold tie-breaks (T3's ``>=`` lets
the latest worst seed win) and the max-over-seeds reductions.
"""

import io

import pytest

from repro.analysis.tables import format_table
from repro.cli import main as cli_main
from repro.runner import run_experiments
from repro.runner.registry import REGISTRY
from tests.oracles import (
    baseline_rows,
    chordal_mis_rows,
    interval_mis_rows,
    lower_bound_rows,
    mvc_approximation_rows,
    mvc_rounds_rows,
    mvc_rounds_vs_epsilon_rows,
    pruning_rows,
)

# small parameterizations, applied identically to both sides
T3_ARGS = {"eps_values": (1.0, 0.5), "n": 40, "seeds": (0, 1)}
T4_ARGS = {"ns": (40, 80), "epsilon": 1.0, "eps_values": (2.0, 1.0), "eps_n": 60}
T56_ARGS = {"eps_values": (0.8, 0.4), "n": 80, "seeds": (0, 1)}
T78_ARGS = {"eps_values": (0.45, 0.3), "n": 50, "seeds": (0,)}
T9_ARGS = {"r_values": (4, 8), "n": 600, "trials": 3}
L6_ARGS = {"ns": (40, 80)}
B1_ARGS = {"n": 60, "seeds": (0, 1)}


def legacy_tables():
    t3 = format_table(
        ["family", "eps", "chi", "colors", "worst ratio", "bound 1+eps"],
        mvc_approximation_rows(**T3_ARGS),
    )
    t4 = (
        format_table(
            ["n", "layers", "pruning rounds", "total rounds"],
            mvc_rounds_rows(ns=T4_ARGS["ns"], epsilon=T4_ARGS["epsilon"]),
        )
        + "\n\n(rounds vs eps at n = 300, random trees)\n\n"
        + format_table(
            ["eps", "k", "total rounds", "colors"],
            mvc_rounds_vs_epsilon_rows(
                eps_values=T4_ARGS["eps_values"], n=T4_ARGS["eps_n"]
            ),
        )
    )
    t56 = format_table(
        ["eps", "worst alpha/|I|", "bound 1+eps", "rounds"],
        interval_mis_rows(**T56_ARGS),
    )
    t78 = format_table(
        ["family", "eps", "worst alpha/|I|", "bound 1+eps", "rounds"],
        chordal_mis_rows(**T78_ARGS),
    )
    t9 = format_table(
        ["r", "E|I|", "optimum", "density gap", "r x gap"],
        lower_bound_rows(**T9_ARGS),
    )
    l6 = format_table(
        ["n", "layers", "ceil(log2 n) + 1"], pruning_rows(ns=L6_ARGS["ns"])
    )
    b1 = format_table(
        ["family", "chi", "greedy colors", "our colors", "alpha", "Luby |I|",
         "our |I|"],
        baseline_rows(**B1_ARGS),
    )
    return {"T3": t3, "T4": t4, "T5/T6": t56, "T7/T8": t78, "T9": t9,
            "L6": l6, "B1": b1}


OVERRIDES = {
    "T3": T3_ARGS,
    "T4": T4_ARGS,
    "T5/T6": T56_ARGS,
    "T7/T8": T78_ARGS,
    "T9": T9_ARGS,
    "L6": L6_ARGS,
    "B1": B1_ARGS,
}


@pytest.fixture(scope="module")
def expected():
    return legacy_tables()


@pytest.mark.parametrize("jobs", [1, 3])
def test_engine_tables_are_byte_identical(expected, jobs):
    ids = list(expected)
    report, results, stats = run_experiments(ids, jobs=jobs, overrides=OVERRIDES)
    assert stats.failed == 0 and stats.timeouts == 0
    chunks = [
        f"== {eid}: {REGISTRY[eid].title} ==\n\n{expected[eid]}\n" for eid in ids
    ]
    assert report == "\n".join(chunks)


def test_full_report_framing_matches_legacy_shape():
    report, _, _ = run_experiments(["L6"], overrides=OVERRIDES)
    assert report.startswith("== L6: Lemma 6: peeling layer count vs log n ==\n\n")
    assert report.endswith("\n")


def report_main(ids):
    """``repro report IDS``: exit code and stdout."""
    out = io.StringIO()
    return cli_main(["report", *ids], out=out), out.getvalue()


class TestUnknownIdExit:
    """Bugfix: ``repro report BOGUS`` must fail loudly."""

    def test_unknown_id_exits_nonzero_listing_known_ids(self, capsys):
        code, out = report_main(["BOGUS"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "unknown experiment id" in err
        assert "known ids are" in err
        assert "T5/T6" in err
        assert err.count("\n") == 1

    def test_known_subset_still_works(self):
        code, out = report_main(["L6"])
        assert code == 0
        assert "Lemma 6" in out

    def test_alias_accepted(self):
        code, out = report_main(["T5"])
        assert code == 0
        assert "Theorems 5-6" in out
