"""End-to-end verification of algorithm runs.

Downstream users (and this repository's integration tests) want one call
that checks *everything* a run promises: legality of the output, the
approximation bound, and the structural invariants of the paper's
analysis.  :func:`verify_coloring_run` and :func:`verify_mis_run` return a
:class:`VerificationReport` listing every check with a pass/fail verdict
and a human-readable detail; ``raise_if_failed`` converts failures into
exceptions for assert-style use.

All checks are polynomial: exact chi and alpha come from the chordal
certificates (omega via maximal cliques, Gavril's greedy), never from
brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from .cliquetree.cliquepath import is_interval_graph
from .coloring.chordal_mvc import ChordalColoringResult
from .graphs.adjacency import Graph
from .graphs.chordal import clique_number, is_chordal
from .graphs.validation import coloring_violation, independent_set_violation
from .mis.chordal_mis import ChordalMISResult
from .mis.exact import independence_number_chordal

__all__ = ["Check", "VerificationReport", "verify_coloring_run", "verify_mis_run"]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: List[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self) -> None:
        bad = self.failures()
        if bad:
            summary = "; ".join(f"{c.name}: {c.detail}" for c in bad)
            raise AssertionError(f"verification failed: {summary}")

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            detail = f" -- {c.detail}" if c.detail else ""
            lines.append(f"[{mark}] {c.name}{detail}")
        return "\n".join(lines)


def verify_coloring_run(graph: Graph, result: ChordalColoringResult) -> VerificationReport:
    """Check a :func:`repro.coloring.color_chordal_graph` run end to end."""
    report = VerificationReport()

    chordal = is_chordal(graph)
    report.add("input is chordal", chordal)
    if not chordal:
        return report

    violation = coloring_violation(graph, result.coloring)
    report.add(
        "coloring is proper and total",
        violation is None,
        "" if violation is None else f"violation at {violation}",
    )

    chi = clique_number(graph)
    report.add(
        "chi recorded correctly", result.chi == chi, f"{result.chi} vs {chi}"
    )

    k = result.parameters.k
    bound = chi + chi // k + 1
    used = result.num_colors()
    report.add(
        "colors within floor((1+1/k)chi)+1",
        used <= bound,
        f"{used} <= {bound}",
    )
    eps = result.parameters.epsilon
    if chi and eps > 2.0 / chi:
        report.add(
            "colors within (1+eps)chi (Theorem 3)",
            used <= (1 + eps) * chi,
            f"{used} <= {(1 + eps) * chi:.2f}",
        )

    peeling = result.peeling
    if len(graph) > 0:
        log_bound = math.ceil(math.log2(max(2, len(graph)))) + 1
        report.add(
            "layers within ceil(log2 n)+1 (Lemma 6)",
            peeling.num_layers() <= log_bound,
            f"{peeling.num_layers()} <= {log_bound}",
        )
        report.add(
            "every node assigned a layer (Corollary 1)",
            set(peeling.layer_of) == set(graph.vertices()),
        )
        interval_layers = all(
            is_interval_graph(graph.induced_subgraph(peeling.nodes_of_layer(i)))
            for i in range(1, peeling.num_layers() + 1)
        )
        report.add("layers induce interval graphs (Lemma 7)", interval_layers)
    return report


def verify_mis_run(graph: Graph, result: ChordalMISResult) -> VerificationReport:
    """Check a :func:`repro.mis.chordal_mis` run end to end."""
    report = VerificationReport()

    chordal = is_chordal(graph)
    report.add("input is chordal", chordal)
    if not chordal:
        return report

    violation = independent_set_violation(graph, result.independent_set)
    report.add(
        "output is an independent set",
        violation is None,
        "" if violation is None else f"violation at {violation}",
    )

    alpha = independence_number_chordal(graph)
    eps = result.epsilon
    report.add(
        "size within (1+eps) of alpha (Theorem 7)",
        result.size() * (1 + eps) >= alpha,
        f"{result.size()} vs alpha={alpha} at eps={eps}",
    )
    report.add(
        "peeling stopped within kappa iterations",
        result.peeling.num_layers() <= result.kappa,
        f"{result.peeling.num_layers()} <= {result.kappa}",
    )
    return report
