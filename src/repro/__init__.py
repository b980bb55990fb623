"""repro: distributed (1 + eps)-approximate MVC and MIS on chordal graphs.

A full reproduction of Konrad & Zamaraev, "Distributed Minimum Vertex
Coloring and Maximum Independent Set in Chordal Graphs" (PODC 2018 brief
announcement / arXiv:1805.04544), as a standalone Python library:

* :mod:`repro.graphs` -- graph substrate (chordal/interval machinery,
  generators, validators, brute-force oracles);
* :mod:`repro.cliquetree` -- clique forests, the canonical maximum-weight
  spanning forest, binary paths, local views (Section 3);
* :mod:`repro.localmodel` -- LOCAL-model simulation (message passing,
  ball gathering, Linial coloring, ruling sets, round accounting);
* :mod:`repro.coloring` -- Algorithms 1-4: the (1 + eps)-approximate
  Minimum Vertex Coloring pipeline (Sections 4-5);
* :mod:`repro.mis` -- Algorithms 5-6: the (1 + eps)-approximate Maximum
  Independent Set algorithms (Sections 6-7);
* :mod:`repro.baselines` -- Luby's MIS and (Delta + 1) colorings;
* :mod:`repro.lowerbounds` -- the Theorem 9 experiment (Section 8);
* :mod:`repro.runner` -- the experiment registry and cells behind
  EXPERIMENTS.md (``repro run``);
* :mod:`repro.analysis` -- table formatting and scaling-law fits.

Quickstart::

    from repro.graphs import random_chordal_graph
    from repro.coloring import color_chordal_graph
    from repro.mis import chordal_mis

    g = random_chordal_graph(200, seed=1)
    coloring = color_chordal_graph(g, epsilon=0.5)
    independent = chordal_mis(g, epsilon=0.4)
"""

__version__ = "1.0.0"

from . import analysis, baselines, cliquetree, coloring, extensions, graphs, localmodel, lowerbounds, mis
from .verify import VerificationReport, verify_coloring_run, verify_mis_run

__all__ = [
    "analysis",
    "baselines",
    "cliquetree",
    "coloring",
    "extensions",
    "graphs",
    "localmodel",
    "lowerbounds",
    "mis",
    "VerificationReport",
    "verify_coloring_run",
    "verify_mis_run",
    "__version__",
]
