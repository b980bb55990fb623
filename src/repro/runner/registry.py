"""The experiment registry: every EXPERIMENTS.md id as a parameterized plan.

Each :class:`Experiment` knows how to

* **plan** — expand its parameter grid into independent
  :class:`CellSpec`\\ s, the units the engine fans out (one graph
  instance / one measurement each);
* **render** — fold the cell payloads back into the exact table text of
  ``EXPERIMENTS.md``.  The folds replicate the loop order and tie-break
  rules of the serial loops kept as oracles in ``tests/oracles.py``
  (e.g. T3's ``>=`` lets the *latest* worst seed win), so a ``--jobs 8``
  run is byte-identical to a serial one;
* **deps** — the root modules whose import closure feeds the cache key,
  next to the bytes of :mod:`repro.runner.cells` (see
  :mod:`repro.runner.sourcehash`).

Ids accept the aliases used across the docs: ``T5``, ``T6``, ``T5-6``
and ``T5/6`` all resolve to the canonical ``T5/T6``; ``F3`` resolves to
``F1-F6``.  Unknown ids raise :class:`UnknownExperimentError` listing
the known ones — never a silent skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..localmodel.stock import QUICK_PROGRAMS
from .cells import GRAPH_FAMILIES

__all__ = [
    "CellSpec",
    "Experiment",
    "UnknownExperimentError",
    "REGISTRY",
    "experiment_ids",
    "get",
    "resolve_ids",
    "plan_cells",
    "render_report",
]


class UnknownExperimentError(ValueError):
    """Raised for ids that resolve to no registered experiment."""

    def __init__(self, unknown: Sequence[str]):
        self.unknown = list(unknown)
        self.known = experiment_ids()
        ids = ", ".join(self.unknown)
        super().__init__(
            f"unknown experiment id(s): {ids}; known ids are "
            + ", ".join(self.known)
        )


@dataclass(frozen=True)
class CellSpec:
    """One unit of work: a cell function plus its JSON-plain parameters."""

    experiment: str
    fn: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    id: str
    title: str
    deps: Tuple[str, ...]
    plan: Callable[..., List[CellSpec]]
    render: Callable[[List[CellSpec], List[Any]], str]


# --------------------------------------------------------------------------
# plans: expand sweeps into cells (loop order mirrors the serial oracles)

def _plan_t3(eps_values=(1.0, 0.5, 0.25), n=150, seeds=(0, 1, 2)):
    return [
        CellSpec("T3", "t3_cell", {"family": f, "eps": e, "n": n, "seed": s})
        for f in GRAPH_FAMILIES
        for e in eps_values
        for s in seeds
    ]


def _plan_t4(
    ns=(100, 200, 400, 800),
    epsilon=1.0,
    eps_values=(2.0, 1.0, 0.5, 0.25),
    eps_n=300,
    family="tree",
    seed=0,
):
    rounds = [
        CellSpec(
            "T4",
            "t4_rounds_cell",
            {"n": n, "epsilon": epsilon, "family": family, "seed": seed},
        )
        for n in ns
    ]
    epsilons = [
        CellSpec(
            "T4",
            "t4_epsilon_cell",
            {"eps": e, "n": eps_n, "family": family, "seed": seed},
        )
        for e in eps_values
    ]
    return rounds + epsilons


def _plan_t56(eps_values=(0.8, 0.4, 0.2), n=300, seeds=(0, 1, 2)):
    return [
        CellSpec("T5/T6", "t56_cell", {"eps": e, "n": n, "seed": s})
        for e in eps_values
        for s in seeds
    ]


def _plan_t78(eps_values=(0.45, 0.3, 0.2), n=150, seeds=(0, 1)):
    return [
        CellSpec("T7/T8", "t78_cell", {"family": f, "eps": e, "n": n, "seed": s})
        for f in GRAPH_FAMILIES
        for e in eps_values
        for s in seeds
    ]


def _plan_t9(r_values=(4, 8, 16, 32, 64), n=4000, trials=8, seed=0):
    return [
        CellSpec("T9", "t9_cell", {"r": r, "n": n, "trials": trials, "seed": seed})
        for r in r_values
    ]


def _plan_l6(ns=(50, 100, 200, 400, 800), family="chordal", seed=0):
    return [
        CellSpec("L6", "l6_cell", {"n": n, "family": family, "seed": seed})
        for n in ns
    ]


def _plan_b1(n=200, seeds=(0, 1, 2)):
    return [
        CellSpec("B1", "b1_cell", {"family": f, "n": n, "seed": s})
        for f in GRAPH_FAMILIES
        for s in seeds[:1]
    ]


def _plan_figures(figures=("F1", "F2", "F3/F4", "F5/F6")):
    return [CellSpec("F1-F6", "figure_cell", {"figure": f}) for f in figures]


def _plan_x1(
    handle_lengths=(3, 5, 7, 9),
    n=20,
    handles=3,
    seeds=(0, 1),
    epsilon=0.5,
    exact_chi_guard=45,
):
    return [
        CellSpec(
            "X1",
            "x1_cell",
            {
                "length": length,
                "n": n,
                "handles": handles,
                "seed": s,
                "epsilon": epsilon,
                "exact_chi_guard": exact_chi_guard,
            },
        )
        for length in handle_lengths
        for s in seeds
    ]


#: the C1 suite: every stock node program, in certificate-table order
C1_PROGRAMS = ("bfs", "leader", "echo", "gather", "linial", "luby", "coloring")


def _plan_c1(programs=C1_PROGRAMS, ns=(16, 32, 64), seed=0):
    return [
        CellSpec("C1", "c1_cell", {"program": p, "n": n, "seed": seed})
        for p in programs
        for n in ns
    ]


#: the F7 suite: the C1 programs measured for fault resilience
F7_PROGRAMS = ("bfs", "leader", "echo", "gather", "luby", "coloring")


def _plan_f7(programs=F7_PROGRAMS, drops=(0.1, 0.3), n=16, seed=0):
    return [
        CellSpec(
            "F7",
            "f7_cell",
            {"program": p, "drop": d, "retry": retry, "n": n, "seed": seed},
        )
        for p in programs
        for retry in (False, True)
        for d in drops
    ]


#: the S1 stabilization matrix: repaired vs plain under state corruption
S1_PROGRAMS = ("coloring", "mis")

def _plan_s1(
    programs=S1_PROGRAMS,
    kinds=("flip", "scramble"),
    chaos_programs=QUICK_PROGRAMS,
    trials=8,
    n=14,
    seed=0,
):
    cells = [
        CellSpec(
            "S1",
            "s1_cell",
            {
                "program": p,
                "repaired": repaired,
                "kind": kind,
                "n": n,
                "seed": seed,
            },
        )
        for p in programs
        for repaired in (False, True)
        for kind in kinds
    ]
    cells.extend(
        CellSpec(
            "S1",
            "s1_chaos_cell",
            {"program": p, "trials": trials, "seed": seed, "n": n},
        )
        for p in chaos_programs
    )
    return cells


#: the D1 sweep: message-level pipelines on large instances
D1_PIPELINES = ("mvc", "mis")


def _plan_d1(
    pipelines=D1_PIPELINES,
    path_ns=(2000, 20000),
    interval_ns=(500, 2000),
    chordal_ns=(200, 500),
    sample=64,
    seed=0,
):
    # paths scale to n = 2 * 10^4; interval chains have denser balls and
    # random chordal graphs peel in several layers (mixed decisions) with
    # balls covering most of the graph.  Both keep their published sizes;
    # with the shared subtree table the gather, not the decisions, is the
    # largest part of their cells, so view reconstruction no longer caps them
    return [
        CellSpec(
            "D1",
            "d1_cell",
            {
                "pipeline": p,
                "family": f,
                "n": n,
                "seed": seed,
                "sample": sample,
            },
        )
        for p in pipelines
        for f, ns in (
            ("path", path_ns),
            ("interval", interval_ns),
            ("chordal", chordal_ns),
        )
        for n in ns
    ]


def _plan_k1(
    families=("ktree3", "interval", "path"),
    ns=(10000, 30000, 100000),
    threshold=12,
    seed=0,
):
    return [
        CellSpec(
            "K1",
            "k1_cell",
            {"family": f, "n": n, "seed": seed, "threshold": threshold},
        )
        for f in families
        for n in ns
    ]


#: the K2 sweep: (family, n, radius) cells run on BOTH paths so the
#: table itself witnesses the rounds/messages equivalence, and
#: batch-only cells at sizes where the per-node path is wasteful
K2_PAIR_CELLS = (("path", 20000, 16), ("interval", 2000, 10))
K2_LARGE_CELLS = (("path", 100000, 10), ("interval", 10000, 8))


def _plan_k2(
    pairs=K2_PAIR_CELLS,
    large=K2_LARGE_CELLS,
    paths=("node", "batch"),
    sample=32,
    seed=0,
):
    cells = [
        CellSpec(
            "K2",
            "k2_cell",
            {
                "family": f,
                "n": n,
                "radius": r,
                "path": p,
                "seed": seed,
                "sample": sample,
            },
        )
        for f, n, r in pairs
        for p in paths
    ]
    # the large cells exist to show whole-round kernel feasibility; they
    # run per node only when batch is excluded outright
    large_path = "batch" if "batch" in paths else paths[-1]
    cells += [
        CellSpec(
            "K2",
            "k2_cell",
            {
                "family": f,
                "n": n,
                "radius": r,
                "path": large_path,
                "seed": seed,
                "sample": sample,
            },
        )
        for f, n, r in large
    ]
    return cells


# --------------------------------------------------------------------------
# renders: fold payloads back into the EXPERIMENTS.md tables

def _groups(specs, values, key):
    """Consecutive (key, [(spec, value), ...]) groups, failed cells dropped."""
    pairs = list(zip(specs, values))
    for group_key, group in groupby(pairs, key=lambda sv: key(sv[0])):
        cells = [(s, v) for s, v in group if v is not None]
        yield group_key, cells


def _render_t3(specs, values):
    rows = []
    for (family, eps), cells in _groups(
        specs, values, lambda s: (s.params["family"], s.params["eps"])
    ):
        worst, chi, colors = 0.0, 0, 0
        for _, val in cells:
            if val["ratio"] >= worst:
                worst, chi, colors = val["ratio"], val["chi"], val["colors"]
        rows.append((family, eps, chi, colors, worst, 1.0 + eps))
    return format_table(
        ["family", "eps", "chi", "colors", "worst ratio", "bound 1+eps"], rows
    )


def _render_t4(specs, values):
    rounds_rows = [
        (v["n"], v["layers"], v["pruning_rounds"], v["total_rounds"])
        for s, v in zip(specs, values)
        if s.fn == "t4_rounds_cell" and v is not None
    ]
    eps_rows = [
        (v["eps"], v["k"], v["total_rounds"], v["colors"])
        for s, v in zip(specs, values)
        if s.fn == "t4_epsilon_cell" and v is not None
    ]
    a = format_table(["n", "layers", "pruning rounds", "total rounds"], rounds_rows)
    b = format_table(["eps", "k", "total rounds", "colors"], eps_rows)
    return a + "\n\n(rounds vs eps at n = 300, random trees)\n\n" + b


def _render_t56(specs, values):
    rows = []
    for eps, cells in _groups(specs, values, lambda s: s.params["eps"]):
        worst, rounds = 1.0, 0
        for _, val in cells:
            worst = max(worst, val["ratio"])
            rounds = max(rounds, val["rounds"])
        rows.append((eps, worst, 1.0 + eps, rounds))
    return format_table(["eps", "worst alpha/|I|", "bound 1+eps", "rounds"], rows)


def _render_t78(specs, values):
    rows = []
    for (family, eps), cells in _groups(
        specs, values, lambda s: (s.params["family"], s.params["eps"])
    ):
        worst, rounds = 1.0, 0
        for _, val in cells:
            worst = max(worst, val["ratio"])
            rounds = max(rounds, val["rounds"])
        rows.append((family, eps, worst, 1.0 + eps, rounds))
    return format_table(
        ["family", "eps", "worst alpha/|I|", "bound 1+eps", "rounds"], rows
    )


def _render_t9(specs, values):
    rows = [
        (
            s.params["r"],
            v["mean_size"],
            v["optimum"],
            v["density_gap"],
            s.params["r"] * v["density_gap"],
        )
        for s, v in zip(specs, values)
        if v is not None
    ]
    return format_table(["r", "E|I|", "optimum", "density gap", "r x gap"], rows)


def _render_l6(specs, values):
    rows = [
        (s.params["n"], v["layers"], v["bound"])
        for s, v in zip(specs, values)
        if v is not None
    ]
    return format_table(["n", "layers", "ceil(log2 n) + 1"], rows)


def _render_b1(specs, values):
    rows = [
        (
            s.params["family"],
            v["chi"],
            v["greedy"],
            v["ours_colors"],
            v["alpha"],
            v["luby"],
            v["ours_mis"],
        )
        for s, v in zip(specs, values)
        if v is not None
    ]
    return format_table(
        ["family", "chi", "greedy colors", "our colors", "alpha", "Luby |I|", "our |I|"],
        rows,
    )


def _render_figures(specs, values):
    rows = []
    for spec, checks in zip(specs, values):
        if checks is None:
            continue
        for check in checks:
            ok = "yes" if check["measured"] == check["expected"] else "NO"
            rows.append(
                (
                    spec.params["figure"],
                    check["check"],
                    check["measured"],
                    check["expected"],
                    ok,
                )
            )
    return format_table(["figure", "check", "measured", "expected", "ok"], rows)


def _plan_a13(
    multipliers=(0.25, 0.5, 1.0, 2.0),
    threshold_n=300,
    k=2,
    chi_values=(4, 16, 64),
    k_values=(1, 2, 4, 8),
    domination_n=300,
    seed=0,
):
    threshold = [
        CellSpec(
            "A1-A3",
            "a1_cell",
            {"multiplier": m, "n": threshold_n, "k": k, "seed": seed},
        )
        for m in multipliers
    ]
    spares = [
        CellSpec("A1-A3", "a2_cell", {"chi": chi, "k": kv})
        for chi in chi_values
        for kv in k_values
    ]
    domination = [
        CellSpec(
            "A1-A3",
            "a3_cell",
            {"family": f, "n": domination_n, "seed": seed},
        )
        for f in ("random lengths", "unit chain")
    ]
    return threshold + spares + domination


def _render_a13(specs, values):
    a1 = format_table(
        ["multiplier", "threshold", "layers", "collection rounds"],
        [
            (s.params["multiplier"], v["threshold"], v["layers"], v["rounds"])
            for s, v in zip(specs, values)
            if s.fn == "a1_cell" and v is not None
        ],
    )
    a2 = format_table(
        ["chi", "k", "palette", "spares", "relay cuts"],
        [
            (s.params["chi"], s.params["k"], v["palette"], v["spares"], v["cuts"])
            for s, v in zip(specs, values)
            if s.fn == "a2_cell" and v is not None
        ],
    )
    a3 = format_table(
        ["family", "n", "survivors", "components", "max diameter"],
        [
            (
                s.params["family"],
                v["n"],
                v["survivors"],
                v["components"],
                v["max_diameter"],
            )
            for s, v in zip(specs, values)
            if s.fn == "a3_cell" and v is not None
        ],
    )
    return (
        "(A1: internal-threshold sweep)\n\n" + a1
        + "\n\n(A2: spare colors vs relay cuts)\n\n" + a2
        + "\n\n(A3: domination-removal fragmentation)\n\n" + a3
    )


def _render_x1(specs, values):
    rows = []
    for length, cells in _groups(specs, values, lambda s: s.params["length"]):
        worst: Optional[float] = None
        fill = 0
        cycle = 0
        for _, val in cells:
            cycle = max(cycle, val["cycle"])
            fill = max(fill, val["fill"])
            ratio = val["ratio"]
            if ratio is not None and (worst is None or ratio > worst):
                worst = ratio
        rows.append((length, cycle, fill, worst))
    return format_table(
        ["handle len", "longest induced cycle", "fill edges", "worst colors/chi"],
        rows,
    )


def _render_c1(specs, values):
    ns = sorted({s.params["n"] for s in specs})
    rows = []
    for program, cells in _groups(specs, values, lambda s: s.params["program"]):
        if not cells:
            continue
        static_class = cells[0][1]["static_class"]
        horizon = cells[0][1]["horizon"] or "-"
        words = {s.params["n"]: v["max_words"] for s, v in cells}
        series = [words.get(n, "-") for n in ns]
        measured = [w for w in series if w != "-"]
        growth = (
            round(measured[-1] / max(1, measured[0]), 2) if len(measured) > 1 else "-"
        )
        rows.append((program, static_class, horizon) + tuple(series) + (growth,))
    header = (
        ["program", "static class", "horizon"]
        + [f"max words n={n}" for n in ns]
        + ["growth"]
    )
    return (
        "(static certificate vs metered payload; a `const` row must stay"
        " flat as n grows, `ball` is bounded by the horizon attribute)\n\n"
        + format_table(header, rows)
    )


def _render_d1(specs, values):
    rows = [
        (
            s.params["pipeline"],
            s.params["family"],
            v["n"],
            v["radius"],
            v["rounds"],
            f"{v['agree']}/{v['sampled']}",
            v["joined"],
        )
        for s, v in zip(specs, values)
        if v is not None
    ]
    return (
        "(message-level layer decisions from delta-gathered balls; `agree`"
        " counts sampled nodes whose from-ball decision matches the"
        " centralized rule, `joined` how many of them enter the current"
        " layer; wall-clock and message-volume vs the full flood live in"
        " BENCH_network.json)\n\n"
        + format_table(
            ["pipeline", "family", "n", "radius", "rounds", "agree", "joined"],
            rows,
        )
    )


def _render_f7(specs, values):
    rows = []
    for (program, retry), cells in _groups(
        specs, values, lambda s: (s.params["program"], s.params["retry"])
    ):
        if not cells:
            continue
        base = cells[0][1]["baseline_rounds"]
        per_drop = []
        worst_recover: Any = "-"
        for _, val in cells:
            per_drop.append(
                f"{val['classification']} ({val['valid']}/{val['runs']} valid)"
            )
            if val["recover"] is not None and (
                worst_recover == "-" or val["recover"] > worst_recover
            ):
                worst_recover = val["recover"]
        rows.append(
            (program, "yes" if retry else "no", base, *per_drop, worst_recover)
        )
    drops = sorted({s.params["drop"] for s in specs})
    header = (
        ["program", "retries", "base rounds"]
        + [f"drop={d}" for d in drops]
        + ["worst extra rounds"]
    )
    return (
        "(classification per drop rate; `valid` counts fault seeds whose"
        " outputs kept the safety invariant, `worst extra rounds` is the"
        " recovery cost over completed runs)\n\n"
        + format_table(header, rows)
    )


def _render_s1(specs, values):
    def fmt(value):
        return "-" if value is None else value

    rows = []
    stab = [(s, v) for s, v in zip(specs, values) if s.fn == "s1_cell"]
    for (program, repaired), cells in _groups(
        [s for s, _ in stab],
        [v for _, v in stab],
        lambda s: (s.params["program"], s.params["repaired"]),
    ):
        for spec, val in cells:
            rows.append((
                program,
                "yes" if repaired else "no",
                spec.params["kind"],
                val["classification"],
                fmt(val["detection_latency"]),
                fmt(val["recovery_rounds"]),
                val["repairs"],
            ))
    table = format_table(
        ["program", "repaired", "corruption", "classification",
         "detect", "recovery rounds", "repairs"],
        rows,
    )
    chaos_lines = []
    for spec, val in zip(specs, values):
        if spec.fn != "s1_chaos_cell" or val is None:
            continue
        chaos_lines.append(
            f"- chaos soak {val['program']}: {val['failures']} failure(s) in "
            f"{val['trials']} trials, minimized specs reproduce: "
            f"{'yes' if val['all_reproduce'] else 'NO'}"
        )
    return (
        "(one transient corruption of a quiesced node; `flip` provably"
        " violates the invariant, `scramble` is an arbitrary seeded field"
        " scramble; `detect`/`recovery rounds` from the validity monitor,"
        " `-` = the corruption landed after the last monitored round)\n\n"
        + table
        + "\n\n"
        + "\n".join(chaos_lines)
    )


def _render_k1(specs, values):
    rows = [
        (
            s.params["family"],
            v["n"],
            v["m"],
            v["omega"],
            v["colors"],
            v["cliques"],
            v["simplicial"],
            v["layers"],
            "yes" if v["exhausted"] else "no",
        )
        for s, v in zip(specs, values)
        if v is not None
    ]
    table = format_table(
        [
            "family", "n", "m", "omega", "colors", "cliques",
            "simplicial", "peel layers", "exhausted",
        ],
        rows,
    )
    return (
        "(kernel substrate at large n, every family peeled; timings in"
        " BENCH_kernels.json)\n\n" + table
    )


def _render_k2(specs, values):
    rows = [
        (
            s.params["family"],
            v["n"],
            v["m"],
            s.params["radius"],
            v["path"],
            v["rounds"],
            v["messages"],
            f"{v['agree']}/{v['sampled']}",
        )
        for s, v in zip(specs, values)
        if v is not None
    ]
    table = format_table(
        [
            "family", "n", "m", "radius", "path",
            "rounds", "messages", "ball oracle",
        ],
        rows,
    )
    return (
        "(whole-round batch kernels vs per-node dispatch; `path` is the"
        " dispatch that actually ran, node/batch rows of the same cell"
        " must agree on rounds and messages, and `ball oracle` counts"
        " sampled balls equal to the BFS ground truth; wall-clock in"
        " BENCH_network.json)\n\n" + table
    )


# --------------------------------------------------------------------------
# the registry itself (order = report order; legacy ids first)

_GENERATOR_DEPS = ("repro.graphs.generators",)

REGISTRY: Dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment(
            "T3",
            "Theorem 3: MVC approximation factor (Algorithm 1)",
            ("repro.coloring",) + _GENERATOR_DEPS,
            _plan_t3,
            _render_t3,
        ),
        Experiment(
            "T4",
            "Theorem 4: distributed MVC round complexity",
            ("repro.coloring", "repro.localmodel") + _GENERATOR_DEPS,
            _plan_t4,
            _render_t4,
        ),
        Experiment(
            "T5/T6",
            "Theorems 5-6: interval MIS (Algorithm 5)",
            ("repro.mis",) + _GENERATOR_DEPS,
            _plan_t56,
            _render_t56,
        ),
        Experiment(
            "T7/T8",
            "Theorems 7-8: chordal MIS (Algorithm 6)",
            ("repro.mis",) + _GENERATOR_DEPS,
            _plan_t78,
            _render_t78,
        ),
        Experiment(
            "T9",
            "Theorem 9: Omega(1/eps) lower bound shape",
            ("repro.lowerbounds",),
            _plan_t9,
            _render_t9,
        ),
        Experiment(
            "L6",
            "Lemma 6: peeling layer count vs log n",
            ("repro.coloring.prune",) + _GENERATOR_DEPS,
            _plan_l6,
            _render_l6,
        ),
        Experiment(
            "B1",
            "Baselines: maximal-IS / greedy coloring gaps",
            ("repro.baselines", "repro.coloring", "repro.mis") + _GENERATOR_DEPS,
            _plan_b1,
            _render_b1,
        ),
        Experiment(
            "F1-F6",
            "Figures 1-6: the worked structural example",
            ("repro.cliquetree", "repro.graphs.examples"),
            _plan_figures,
            _render_figures,
        ),
        Experiment(
            "X1",
            "Section 9 open question: l-chordal triangulation detour",
            ("repro.extensions.k_chordal",),
            _plan_x1,
            _render_x1,
        ),
        Experiment(
            "A1-A3",
            "Ablations: threshold / spare colors / domination removal",
            (
                "repro.coloring.parameters",
                "repro.coloring.prune",
                "repro.graphs.interval",
            ) + _GENERATOR_DEPS,
            _plan_a13,
            _render_a13,
        ),
        Experiment(
            "K1",
            "Kernel substrate: large-n chordal pipeline scaling",
            ("repro.graphs", "repro.coloring.prune", "repro.coloring.greedy"),
            _plan_k1,
            _render_k1,
        ),
        Experiment(
            "C1",
            "CONGEST readiness: metered payload words vs static certificate",
            (
                "repro.localmodel",
                "repro.localmodel.stock",
                "repro.lint",
                "repro.baselines",
                "repro.graphs.generators",
            ),
            _plan_c1,
            _render_c1,
        ),
        Experiment(
            "D1",
            "Distributed pipeline at scale: message-level decisions via delta gathering",
            (
                "repro.localmodel",
                "repro.coloring",
                "repro.mis",
                "repro.graphs.generators",
            ),
            _plan_d1,
            _render_d1,
        ),
        Experiment(
            "K2",
            "Batch executor: whole-round kernel gathering at large n",
            ("repro.localmodel", "repro.localmodel.stock", "repro.graphs"),
            _plan_k2,
            _render_k2,
        ),
        Experiment(
            "F7",
            "Fault resilience: classification and recovery vs drop rate",
            (
                "repro.localmodel",
                "repro.localmodel.stock",
                "repro.baselines",
                "repro.graphs.generators",
            ),
            _plan_f7,
            _render_f7,
        ),
        Experiment(
            "S1",
            "Self-stabilization: repair under state corruption + chaos soak",
            (
                "repro.localmodel",
                "repro.localmodel.stock",
                "repro.baselines",
                "repro.graphs.generators",
            ),
            _plan_s1,
            _render_s1,
        ),
    ]
}

#: alternative spellings accepted everywhere an id is accepted
ALIASES: Dict[str, str] = {
    "T5": "T5/T6",
    "T6": "T5/T6",
    "T5-6": "T5/T6",
    "T5/6": "T5/T6",
    "T7": "T7/T8",
    "T8": "T7/T8",
    "T7-8": "T7/T8",
    "T7/8": "T7/T8",
    "F3/F4": "F1-F6",
    "F5/F6": "F1-F6",
    **{f"F{i}": "F1-F6" for i in range(1, 7)},
    "F1-6": "F1-F6",
    **{f"A{i}": "A1-A3" for i in range(1, 4)},
    "A1-3": "A1-A3",
}


def experiment_ids() -> List[str]:
    return list(REGISTRY)


def get(experiment_id: str) -> Experiment:
    resolved = resolve_ids([experiment_id])
    return REGISTRY[resolved[0]]


def resolve_ids(ids: Iterable[str]) -> List[str]:
    """Canonicalise ids (aliases allowed) preserving registry order.

    An empty input selects every experiment.  Unknown ids raise
    :class:`UnknownExperimentError`.
    """
    requested = list(ids)
    if not requested:
        return experiment_ids()
    canonical = []
    unknown = []
    lookup = {i.upper(): i for i in REGISTRY}
    lookup.update({a.upper(): target for a, target in ALIASES.items()})
    for raw in requested:
        resolved = lookup.get(str(raw).upper())
        if resolved is None:
            unknown.append(str(raw))
        elif resolved not in canonical:
            canonical.append(resolved)
    if unknown:
        raise UnknownExperimentError(unknown)
    return [i for i in REGISTRY if i in canonical]


def plan_cells(
    ids: Optional[Iterable[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[CellSpec]:
    """Expand the chosen experiments into the full, ordered cell list.

    ``overrides`` maps canonical ids to plan kwargs — the tests use it to
    shrink sweeps; ``repro run`` always plans the documented defaults.
    """
    specs: List[CellSpec] = []
    for experiment_id in resolve_ids(ids or []):
        kwargs = (overrides or {}).get(experiment_id, {})
        specs.extend(REGISTRY[experiment_id].plan(**kwargs))
    return specs


def render_report(
    specs: List[CellSpec], values: List[Any], ids: Optional[Iterable[str]] = None
) -> str:
    """The full report text: one ``== id: title ==`` section per experiment."""
    selected = resolve_ids(ids or [])
    chunks = []
    for experiment_id in selected:
        exp = REGISTRY[experiment_id]
        exp_specs = []
        exp_values = []
        for spec, value in zip(specs, values):
            if spec.experiment == experiment_id:
                exp_specs.append(spec)
                exp_values.append(value)
        if not exp_specs:
            continue
        chunks.append(
            f"== {experiment_id}: {exp.title} ==\n\n{exp.render(exp_specs, exp_values)}\n"
        )
    return "\n".join(chunks)
