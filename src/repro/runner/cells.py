"""The cell functions the experiment engine fans out.

A *cell* is the atomic unit of work: one (experiment, family, n, seed,
ε, …) point of a sweep.  Every function here is

* **top-level** — so a ``ProcessPoolExecutor`` worker can address it by
  name without pickling code objects;
* **pure and deterministic** — output depends only on the keyword
  arguments (all generators are seeded), which is what makes the
  content-addressed cache sound;
* **JSON-valued** — payloads survive the disk cache round-trip exactly
  (binary64 floats round-trip through ``json`` bit-for-bit).

The one sanctioned exception to purity is the diagnostics family: the
``graph_cache_hit`` flag (the large-instance cells share a per-worker
graph cache, :func:`_cached_graph`, and each payload records whether
its instance was rebuilt or reused) and the executor ``fallback_reason``
(why a D1/K2 run left the batch path, verbatim from
:class:`~repro.localmodel.executor.BatchExecutor`).  Both reach the
per-cell JSONL log only — no render consumes them — so reports stay
byte-identical across ``--jobs`` counts and cache states.

The reduction from cell payloads back to EXPERIMENTS.md rows lives in
:mod:`repro.runner.registry`.  Its folds replicate the nested serial
loops the tables were first computed with (kept as test oracles in
``tests/oracles.py``), so the tables are byte-identical to them.

This module is the only place an experiment is implemented, so every
cache key hashes its bytes (see :mod:`repro.runner.sourcehash`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple

from ..baselines import luby_mis, sequential_greedy_coloring
from ..coloring import (
    color_chordal_graph,
    diameter_rule,
    distributed_color_chordal,
    peel_chordal_graph,
    peeling_layers,
)
from ..coloring.greedy import peo_greedy_coloring
from ..graphs import (
    Graph,
    clique_number,
    maximal_cliques,
    num_colors,
    path_graph,
    random_chordal_graph,
    random_interval_graph,
    random_k_tree,
    random_tree,
    simplicial_vertices,
    unit_interval_chain,
)
from ..lowerbounds import measure_r_round_mis
from ..mis import chordal_mis, independence_number_chordal, interval_mis

__all__ = [
    "GRAPH_FAMILIES",
    "a1_cell",
    "a2_cell",
    "a3_cell",
    "t3_cell",
    "t4_rounds_cell",
    "t4_epsilon_cell",
    "t56_cell",
    "t78_cell",
    "t9_cell",
    "l6_cell",
    "b1_cell",
    "figure_cell",
    "x1_cell",
    "k1_cell",
    "k2_cell",
    "c1_cell",
    "d1_cell",
    "f7_cell",
    "s1_cell",
    "s1_chaos_cell",
]

#: name -> generator(n, seed); the families the T3, T7/T8 and B1 sweeps
#: run over, and the ``family`` choices of T4 and L6
GRAPH_FAMILIES: Dict[str, Callable[[int, int], Graph]] = {
    "tree": lambda n, seed: random_tree(n, seed=seed),
    "interval": lambda n, seed: random_interval_graph(n, seed=seed, max_length=0.05),
    "k-tree(3)": lambda n, seed: random_k_tree(n, 3, seed=seed),
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed, tree_size=n),
}


def _family_graph(family: str, n: int, seed: int):
    return GRAPH_FAMILIES[family](n, seed)


#: builders for the per-worker graph cache; every family here is fully
#: determined by ``(n, seed)``, which is what makes the cache sound
_CACHE_BUILDERS: Dict[str, Callable[[int, int], Any]] = {
    "path": lambda n, seed: path_graph(n),
    "interval": lambda n, seed: unit_interval_chain(n, seed=seed),
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "ktree3": lambda n, seed: random_k_tree(n, 3, seed=seed),
}

#: per-worker instance cache: (family, n, seed) -> Graph.  Pool workers
#: are reused across cells, so sweeps that revisit an instance (the D1
#: pipelines, K2's node/batch comparison) skip the generator — and the
#: CSR :class:`~repro.graphs.index.GraphIndex` cached on the
#: graph object (keyed by ``Graph.version``) comes along for free.
_GRAPH_CACHE: Dict[Tuple[str, int, int], Any] = {}

#: large instances are worth whole seconds to rebuild but also megabytes
#: to keep; a small FIFO bound keeps long sweeps from accreting every
#: graph they ever touched
_GRAPH_CACHE_CAP = 8


def _cached_graph(family: str, n: int, seed: int) -> Tuple[Any, bool]:
    """``(graph, cache_hit)`` for one named instance.

    Cells must treat the returned graph as read-only: it is shared with
    every later cell of the same worker that asks for the same key.
    """
    key = (family, n, seed)
    graph = _GRAPH_CACHE.get(key)
    if graph is not None:
        return graph, True
    builder = _CACHE_BUILDERS.get(family)
    if builder is None:
        raise ValueError(f"unknown cached graph family {family!r}")
    graph = builder(n, seed)
    while len(_GRAPH_CACHE) >= _GRAPH_CACHE_CAP:
        _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
    _GRAPH_CACHE[key] = graph
    return graph, False


def _sleep_cell(seconds: float) -> Dict[str, Any]:
    """Test hook: a cell that only burns wall clock.

    The engine's timeout tests address it by name; it is never planned
    by the registry.
    """
    import time

    time.sleep(seconds)
    return {"slept": seconds}


def _exit_cell(code: int) -> Dict[str, Any]:
    """Test hook: a cell that hard-kills its process (``os._exit``).

    Simulates a segfault-style crash that no in-worker exception handler
    can catch; the engine's crash-isolation tests address it by name.  It
    is never planned by the registry.
    """
    import os

    os._exit(code)


def t3_cell(family: str, eps: float, n: int, seed: int) -> Dict[str, Any]:
    """T3: one Algorithm 1 run; ratio/chi/colors for the worst-seed fold."""
    g = _family_graph(family, n, seed)
    result = color_chordal_graph(g, epsilon=eps)
    return {
        "ratio": result.approximation_ratio(),
        "chi": result.chi,
        "colors": result.num_colors(),
    }


def t4_rounds_cell(n: int, epsilon: float, family: str, seed: int) -> Dict[str, Any]:
    """T4 (rounds vs n): one distributed MVC run at fixed ε."""
    g = _family_graph(family, n, seed)
    report = distributed_color_chordal(g, epsilon=epsilon)
    return {
        "n": n,
        "layers": report.result.peeling.num_layers(),
        "pruning_rounds": report.pruning_rounds,
        "total_rounds": report.total_rounds,
    }


def t4_epsilon_cell(eps: float, n: int, family: str, seed: int) -> Dict[str, Any]:
    """T4 (rounds vs ε): one distributed MVC run at fixed n."""
    g = _family_graph(family, n, seed)
    report = distributed_color_chordal(g, epsilon=eps)
    return {
        "eps": eps,
        "k": report.result.parameters.k,
        "total_rounds": report.total_rounds,
        "colors": report.num_colors(),
    }


def t56_cell(eps: float, n: int, seed: int) -> Dict[str, Any]:
    """T5/T6: one Algorithm 5 run on a unit-interval chain."""
    g = unit_interval_chain(n, seed=seed)
    result = interval_mis(g, eps)
    alpha = independence_number_chordal(g)
    return {"ratio": alpha / max(1, result.size()), "rounds": result.rounds}


def t78_cell(family: str, eps: float, n: int, seed: int) -> Dict[str, Any]:
    """T7/T8: one Algorithm 6 run."""
    g = _family_graph(family, n, seed)
    result = chordal_mis(g, eps)
    alpha = independence_number_chordal(g)
    return {"ratio": alpha / max(1, result.size()), "rounds": result.rounds}


def t9_cell(r: int, n: int, trials: int, seed: int) -> Dict[str, Any]:
    """T9: the r-round MIS experiment on the labeled path."""
    sample = measure_r_round_mis(n, r, trials=trials, seed=seed)
    return {
        "mean_size": sample.mean_size,
        "optimum": sample.optimum,
        "density_gap": sample.density_gap,
    }


def l6_cell(n: int, family: str, seed: int) -> Dict[str, Any]:
    """L6: peeling layer count vs the ⌈log₂ n⌉ + 1 bound."""
    g = _family_graph(family, n, seed)
    peeling = peel_chordal_graph(g, internal_rule=diameter_rule(4))
    return {
        "layers": peeling.num_layers(),
        "bound": math.ceil(math.log2(max(2, len(g)))) + 1,
    }


#: the K1/K2 graph families that scale to n = 10^5 (cache-builder keys)
_K1_FAMILIES = ("ktree3", "interval", "path")

#: families whose weighted clique-intersection graph stays sparse at
#: large n; random k-trees have hub vertices in Theta(n) maximal
#: cliques, so their WCIG is superlinearly dense and the peeling
#: column is skipped for them
_K1_PEEL_FAMILIES = ("interval", "path")


def k1_cell(family: str, n: int, seed: int, threshold: int) -> Dict[str, Any]:
    """K1: the whole chordal pipeline on one large-n instance.

    Runs the kernel-dispatched public API end to end — PEO via LexBFS,
    maximal cliques, greedy coloring, simplicial vertices, and (on the
    sparse-WCIG families) the Lemma 6 peeling — and reports structural
    invariants.  The speedup shows as feasibility: these cells sat far
    beyond the per-cell timeout on the pre-kernel substrate; wall-clock
    comparisons live in ``BENCH_kernels.json``.
    """
    if family not in _K1_FAMILIES:
        raise ValueError(f"unknown K1 family {family!r}")
    g, cache_hit = _cached_graph(family, n, seed)
    cliques = maximal_cliques(g)
    coloring = peo_greedy_coloring(g)
    payload: Dict[str, Any] = {
        "n": len(g),
        "m": g.num_edges(),
        "omega": max((len(c) for c in cliques), default=0),
        "colors": num_colors(coloring),
        "cliques": len(cliques),
        "simplicial": len(simplicial_vertices(g)),
        "layers": None,
        "exhausted": None,
        "graph_cache_hit": cache_hit,
    }
    if family in _K1_PEEL_FAMILIES:
        peel = peeling_layers(g, threshold)
        payload["layers"] = peel.num_layers()
        payload["exhausted"] = peel.exhausted
    return payload


def k2_cell(
    family: str, n: int, radius: int, path: str, seed: int, sample: int
) -> Dict[str, Any]:
    """K2: one delta gather at large n, per node or as whole rounds.

    ``path="node"`` steps a :class:`~repro.localmodel.network.SyncNetwork`
    node by node; ``path="batch"`` hands the same network to
    :class:`~repro.localmodel.executor.BatchExecutor` and reports the
    path it actually took.  Rows of the same cell must agree on rounds
    and messages, which is the table-level witness of the executor
    equivalence contract.  ``sample`` evenly spaced balls are checked
    against the BFS ground truth.  Wall-clock comparisons live in
    ``BENCH_network.json``.
    """
    from ..graphs.index import graph_index
    from ..localmodel import BatchExecutor, DeltaGatherProgram, SyncNetwork

    if path not in ("node", "batch"):
        raise ValueError(f"unknown K2 path {path!r}")
    g, cache_hit = _cached_graph(family, n, seed)
    index = graph_index(g)

    def factory(v, nbrs):
        return DeltaGatherProgram(v, nbrs, radius, None, index)

    if path == "node":
        net = SyncNetwork(g, factory)
        balls = net.run(max_rounds=radius + 1)
        executed, fallback_reason = "node", None
    else:
        net = BatchExecutor(g, factory)
        balls = net.run(max_rounds=radius + 1)
        executed, fallback_reason = net.executed, net.fallback_reason
    stats = net.stats
    verts = sorted(g.vertices())
    step = max(1, len(verts) // sample)
    sampled = verts[::step][:sample]
    agree = sum(
        1
        for v in sampled
        if set(balls[v].states) == set(g.bfs_distances(v, cutoff=radius))
    )
    return {
        "family": family,
        "n": len(g),
        "m": g.num_edges(),
        "radius": radius,
        "path": executed,
        "rounds": stats.rounds,
        "messages": stats.messages_sent,
        "max_messages_per_round": stats.max_messages_per_round,
        "sampled": len(sampled),
        "agree": agree,
        "graph_cache_hit": cache_hit,
        "fallback_reason": fallback_reason,
    }


def b1_cell(family: str, n: int, seed: int) -> Dict[str, Any]:
    """B1: our pipelines vs greedy coloring and Luby on one instance."""
    g = _family_graph(family, n, seed)
    luby_set, luby_rounds = luby_mis(g, seed=seed)
    return {
        "chi": clique_number(g),
        "greedy": num_colors(sequential_greedy_coloring(g)),
        "ours_colors": color_chordal_graph(g, epsilon=0.5).num_colors(),
        "alpha": independence_number_chordal(g),
        "luby": len(luby_set),
        "luby_rounds": luby_rounds,
        "ours_mis": chordal_mis(g, 0.45).size(),
    }


def a1_cell(multiplier: float, n: int, k: int, seed: int) -> Dict[str, Any]:
    """A1: peeling layers/rounds at one internal-threshold multiplier."""
    from ..coloring.parameters import ColoringParameters

    params = ColoringParameters.from_k(k)
    from ..graphs import random_chordal_graph

    g = random_chordal_graph(n, seed=seed, tree_size=n)
    threshold = max(4, int(params.internal_threshold * multiplier))
    peeling = peel_chordal_graph(g, internal_rule=diameter_rule(threshold))
    return {
        "threshold": threshold,
        "layers": peeling.num_layers(),
        "rounds": peeling.num_layers() * params.collect_radius,
    }


def a2_cell(chi: int, k: int) -> Dict[str, Any]:
    """A2: morph relay-cut budget at one (chi, k) point."""
    from ..coloring.parameters import ColoringParameters, morph_cut_budget

    params = ColoringParameters.from_k(k)
    spares = params.minimum_spares(chi)
    return {
        "palette": params.palette_size(chi),
        "spares": spares,
        "cuts": morph_cut_budget(chi, spares),
    }


def a3_cell(family: str, n: int, seed: int) -> Dict[str, Any]:
    """A3: what Algorithm 5's domination removal dissolves per family."""
    from ..graphs import (
        random_connected_interval_graph,
        remove_dominated_vertices,
    )

    families = {
        "random lengths": lambda s: random_connected_interval_graph(n, seed=s),
        "unit chain": lambda s: unit_interval_chain(n, seed=s),
    }
    g = families[family](seed)
    h = remove_dominated_vertices(g)
    comps = h.connected_components()
    max_diam = max((h.induced_subgraph(c).diameter() for c in comps), default=0)
    return {
        "n": len(g),
        "survivors": len(h),
        "components": len(comps),
        "max_diameter": max_diam,
    }


def figure_cell(figure: str) -> List[Dict[str, Any]]:
    """F1-F6: verify one figure of the worked 23-node example.

    Returns ``[{check, measured, expected}, ...]`` rows; ``measured`` and
    ``expected`` are stringified so the payload stays JSON-plain.
    """
    from ..cliquetree import (
        build_clique_forest,
        compute_local_view,
        nodes_with_subtree_in,
    )
    from ..graphs import (
        FIGURE3_CENTER,
        FIGURE5_PATH,
        PAPER_CLIQUES,
        paper_example_cliques,
        paper_example_graph,
    )

    g = paper_example_graph()
    checks: List[Dict[str, Any]] = []

    def add(check: str, measured: Any, expected: Any) -> None:
        checks.append(
            {"check": check, "measured": str(measured), "expected": str(expected)}
        )

    if figure == "F1":
        add("nodes", len(g), 23)
        add("edges", g.num_edges(), 35)
    elif figure == "F2":
        forest = build_clique_forest(g)
        add("maximal cliques", forest.num_cliques(), 15)
        add(
            "cliques match Figure 2",
            set(forest.cliques()) == set(paper_example_cliques()),
            True,
        )
        add("forest edges", len(forest.edges()), 14)
        add("valid tree decomposition", forest.is_valid_decomposition(g), True)
    elif figure == "F3/F4":
        forest = build_clique_forest(g)
        view = compute_local_view(g, FIGURE3_CENTER, 3)
        names = {"C1", "C2", "C3", "C5", "C6", "C7", "C8", "C9"}
        add(
            "radius-3 view of node 10",
            set(view.forest.cliques()) == {PAPER_CLIQUES[n] for n in names},
            True,
        )
        global_edges = {frozenset(e) for e in forest.edges()}
        add(
            "view edges are global forest edges",
            {frozenset(e) for e in view.forest.edges()} <= global_edges,
            True,
        )
    elif figure == "F5/F6":
        forest = build_clique_forest(g)
        path = [PAPER_CLIQUES[name] for name in FIGURE5_PATH]
        u = nodes_with_subtree_in(forest, path)
        add("removed nodes U", sorted(u), sorted({9, 10, 11, 12, 13, 14}))
        add(
            "T - P equals forest of G[V - U] (Lemma 3)",
            forest.without_cliques(path) == build_clique_forest(g.subgraph_without(u)),
            True,
        )
    else:  # pragma: no cover - registry only plans known figures
        raise ValueError(f"unknown figure {figure!r}")
    return checks


def _c1_instance(program: str, n: int, seed: int):
    """(class, graph, factory) for one named stock program at size n.

    The graph family per program matches the ``--sanitize`` suite of
    :mod:`repro.lint.cli`: the ball-structured programs run on chordal
    instances, the path/cycle specialists on their native topology.
    """
    import random

    from ..baselines.coloring_baselines import RandomizedColoringProgram
    from ..baselines.luby import LubyMISProgram
    from ..graphs import cycle_graph, path_graph, random_chordal_graph
    from ..localmodel import (
        BallGatherProgram,
        BFSLayerProgram,
        EchoCountProgram,
        LeaderElectionProgram,
        LinialPathProgram,
        vertex_key,
    )

    if program in ("bfs", "leader", "luby", "coloring"):
        g = random_chordal_graph(n, seed=seed, tree_size=n)
    elif program == "gather":
        g = cycle_graph(n)
    else:
        g = path_graph(n)

    def seeded(cls, *extra):
        master = random.Random(seed * 1_000_003 + 13)
        seeds = {v: master.randrange(2**62) for v in g.vertices()}
        return lambda v, nbrs: cls(v, nbrs, *extra, random.Random(seeds[v]))

    if program == "bfs":
        # a max-degree root: the generator may leave low-id vertices
        # isolated, and a silent BFS measures nothing
        root = min(
            g.vertices(),
            key=lambda v: (-len(list(g.neighbors_view(v))), vertex_key(v)),
        )
        return BFSLayerProgram, g, (
            lambda v, nbrs: BFSLayerProgram(v, nbrs, root, n + 1)
        )
    if program == "leader":
        return LeaderElectionProgram, g, (
            lambda v, nbrs: LeaderElectionProgram(v, nbrs, n + 1)
        )
    if program == "echo":
        return EchoCountProgram, g, (lambda v, nbrs: EchoCountProgram(v, nbrs, 0))
    if program == "gather":
        # radius scales with n so the `ball` class visibly grows while
        # every `const` program stays flat
        radius = max(2, n // 8)
        return BallGatherProgram, g, (
            lambda v, nbrs: BallGatherProgram(v, nbrs, radius, ("s", v))
        )
    if program == "linial":
        return LinialPathProgram, g, (
            lambda v, nbrs: LinialPathProgram(v, nbrs, id_bound=n)
        )
    if program == "luby":
        return LubyMISProgram, g, seeded(LubyMISProgram)
    if program == "coloring":
        return RandomizedColoringProgram, g, seeded(
            RandomizedColoringProgram, g.max_degree() + 1
        )
    raise ValueError(f"unknown C1 program {program!r}")


def c1_cell(program: str, n: int, seed: int) -> Dict[str, Any]:
    """C1: one metered run of a stock program vs its static certificate.

    Runs the program with a :class:`~repro.localmodel.meter.MessageMeter`
    sink and re-derives the static bandwidth certificate from the class's
    defining module, so the payload pairs the *measured* per-round words
    with the *certified* message-size class.  The render (and
    ``tests/lint/test_bandwidth.py``) check the one-sided contract:
    a ``const`` certificate must measure flat ``max_words`` as n grows.
    """
    import inspect
    from pathlib import Path

    from ..lint import certificates_for_modules, load_modules
    from ..localmodel import MessageMeter, SyncNetwork

    cls, g, factory = _c1_instance(program, n, seed)
    meter = MessageMeter()
    net = SyncNetwork(g, factory, sinks=[meter])
    net.run(max_rounds=4 * n + 8)

    source = Path(inspect.getsourcefile(cls) or "")
    cert = next(
        c
        for c in certificates_for_modules(load_modules([source]))
        if c.program == cls.__name__
    )
    return {
        "program": program,
        "n": len(g),
        "rounds": len(meter.per_round),
        "max_words": meter.max_payload_words,
        "total_words": meter.total_payload_words,
        "static_class": cert.message_class,
        "horizon": cert.horizon,
    }


#: the D1 pipelines and their decision parameters (built lazily per cell)
_D1_PIPELINES = ("mvc", "mis")


def _d1_params(pipeline: str):
    from ..coloring.parameters import ColoringParameters
    from ..mis import mis_local_parameters

    if pipeline == "mvc":
        # the literal Algorithm 3 constants at k=1: threshold 3, radius 10
        return ColoringParameters.paper_constants(1)
    if pipeline == "mis":
        # the MIS peeling rule at a scaled-down d=1: threshold 5, radius 15
        return mis_local_parameters(1)
    raise ValueError(f"unknown D1 pipeline {pipeline!r}")


def d1_cell(
    pipeline: str,
    family: str,
    n: int,
    seed: int,
    sample: int,
) -> Dict[str, Any]:
    """D1: message-level layer decisions at scale via delta gathering.

    Runs the real delta-gather program over the whole instance, then has
    ``sample`` evenly spaced nodes decide layer membership from their
    gathered balls alone, each validated against the centralized decision
    rule on the global graph.  Feasibility is the point — these sizes
    were unreachable under the full flood — and the wall-clock /
    message-volume comparison against the flood lives in
    ``BENCH_network.json``.  The gather takes the whole-round batch
    kernel; ``path`` reports the dispatch it actually took.

    The from-ball decisions share one subtree table, and the global-graph
    validations another: filling the oracle's table from ``g`` rather
    than from the gathered balls keeps it independent of the gather.
    """
    from ..cliquetree import SubtreeTable
    from ..coloring import local_layer_decision, local_layer_decision_from_ball
    from ..localmodel import gather_balls

    if family not in ("path", "interval", "chordal"):
        raise ValueError(f"unknown D1 family {family!r}")
    g, cache_hit = _cached_graph(family, n, seed)
    params = _d1_params(pipeline)
    info: Dict[str, Any] = {}
    balls, rounds = gather_balls(g, params.collect_radius, info=info)
    verts = sorted(g.vertices())
    step = max(1, len(verts) // sample)
    sampled = verts[::step][:sample]
    ball_subtrees: SubtreeTable = {}
    global_subtrees: SubtreeTable = {}
    agree = 0
    joined = 0
    for v in sampled:
        from_ball = local_layer_decision_from_ball(balls[v], params, ball_subtrees)
        joined += 1 if from_ball else 0
        if from_ball == local_layer_decision(g, v, params, global_subtrees):
            agree += 1
    return {
        "pipeline": pipeline,
        "family": family,
        "n": len(g),
        "radius": params.collect_radius,
        "rounds": rounds,
        "sampled": len(sampled),
        "agree": agree,
        "joined": joined,
        "path": info.get("executed"),
        "graph_cache_hit": cache_hit,
        "fallback_reason": info.get("fallback_reason"),
    }


def x1_cell(
    length: int,
    n: int,
    handles: int,
    seed: int,
    epsilon: float,
    exact_chi_guard: int,
) -> Dict[str, Any]:
    """X1: one triangulate-then-color detour on an l-chordal instance."""
    from ..extensions.k_chordal import (
        chordal_with_handles,
        longest_induced_cycle,
        triangulate_and_color,
    )

    g = chordal_with_handles(n, handles, length, seed=seed)
    outcome = triangulate_and_color(g, epsilon=epsilon, exact_chi_guard=exact_chi_guard)
    return {
        "cycle": longest_induced_cycle(g, cap=length + 6),
        "fill": outcome.fill_edges,
        "ratio": outcome.detour_ratio,
    }


def f7_cell(program: str, drop: float, retry: bool, n: int, seed: int) -> Dict[str, Any]:
    """F7: resilience of one stock program at one Bernoulli drop rate.

    Runs :func:`~repro.localmodel.resilience.resilience_check` on the
    same program/graph pairing as C1 (``_c1_instance``) against three
    seeded fault plans at ``drop``, optionally wrapping the program in
    the :class:`~repro.localmodel.resilience.ReliableProgram` retry/ack
    envelope.  Returns the classification plus the validity/recovery
    accounting the F7 table pins.
    """
    from ..localmodel import (
        fault_grid,
        resilience_check,
        stock_validator,
        vertex_key,
        with_retries,
    )

    _cls, g, factory = _c1_instance(program, n, seed)
    kind = {
        "bfs": "bfs", "leader": "leader", "echo": "echo", "gather": "gather",
        "luby": "mis", "coloring": "coloring", "linial": "coloring",
    }[program]
    root = None
    if kind == "bfs":
        # must match the root _c1_instance wired into the program
        root = min(
            g.vertices(),
            key=lambda v: (-len(list(g.neighbors_view(v))), vertex_key(v)),
        )
    validator = stock_validator(kind, g, root=root)
    if retry:
        factory = with_retries(factory)
    report = resilience_check(
        g,
        factory,
        validator,
        grid=fault_grid(drop_rates=(drop,), seeds=(1, 2, 3), burst=None),
        max_rounds=4_000,
    )
    recover = report.rounds_to_recover
    return {
        "program": program,
        "n": len(g),
        "drop": drop,
        "retry": retry,
        "classification": report.classification,
        "baseline_rounds": report.baseline_rounds,
        "recover": recover,
        "runs": len(report.outcomes),
        "completed": sum(1 for o in report.outcomes if o.complete),
        "valid": sum(1 for o in report.outcomes if o.valid),
    }


def _s1_instance(program: str, n: int, seed: int, repaired: bool):
    """(graph, factory, validator, flip kind) for one S1 stabilization cell.

    ``program`` is ``coloring`` (randomized Delta+1) or ``mis`` (Luby).
    The repaired variants wrap the same seeded inner factory in the
    :class:`~repro.localmodel.stabilize.RepairableProgram` envelope with
    the matching policy; MIS is validated against the *maximality*-aware
    invariant, since a member flipped out of the set is invisible to the
    independence-only check.
    """
    from ..localmodel import (
        ColoringRepair,
        MISRepair,
        maximal_independent_set_validator,
        proper_coloring_validator,
        repairable,
    )

    inner_name = "coloring" if program == "coloring" else "luby"
    _cls, g, inner = _c1_instance(inner_name, n, seed)
    if program == "coloring":
        validator = proper_coloring_validator
        palette = g.max_degree() + 1
        policy = lambda: ColoringRepair(palette, first_color=1)  # noqa: E731
        flip = "color"
    elif program == "mis":
        validator = maximal_independent_set_validator
        policy = MISRepair
        flip = "mis"
    else:
        raise ValueError(f"unknown S1 program {program!r}")
    factory = repairable(inner, policy) if repaired else inner
    return g, factory, validator, flip


def _s1_violating_flip(g, outputs, flip: str, corrupt_round: int):
    """A (victim, corrupt seed) whose flip provably violates the invariant.

    The corruption kinds are seeded value shifts, so a color flip can
    land on a free color and change nothing the invariant sees; the
    pinned stabilization table wants the adversarial case, so this scans
    victims (largest key first) and seeds for a flip that collides with
    a neighbor.  The probe must use the real ``corrupt_round`` -- the
    corruption stream is keyed on it.  The MIS flip is a deterministic
    negation -- flipping the largest-key member out always breaks
    maximality.
    """
    from ..localmodel import CorruptSpec, corrupt_program, vertex_key

    if flip == "mis":
        members = sorted(
            (v for v, joined in outputs.items() if joined is True),
            key=vertex_key,
        )
        return members[-1], 1

    class _Probe:
        pass

    for v in sorted(g.vertices(), key=vertex_key, reverse=True):
        neighbor_colors = {outputs[u] for u in g.neighbors_view(v)}
        for cseed in range(1, 65):
            probe = _Probe()
            probe.output = outputs[v]
            corrupt_program(probe, CorruptSpec(v, corrupt_round, "color"), cseed)
            if probe.output in neighbor_colors:
                return v, cseed
    raise RuntimeError("no conflicting color flip found in 64 seeds")


def s1_cell(program: str, repaired: bool, kind: str, n: int, seed: int) -> Dict[str, Any]:
    """S1: one single-node corruption against one (un)repaired program.

    Runs the fault-free baseline, schedules one
    :class:`~repro.localmodel.faults.CorruptSpec` two rounds past
    quiescence (the hardest case: every node already halted), and
    returns the :func:`~repro.localmodel.stabilize.stabilization_run`
    profile.  ``kind`` is ``flip`` (an output flip chosen to provably
    violate the invariant, see ``_s1_violating_flip``) or ``scramble``
    (a seeded arbitrary field scramble, reported as measured).
    """
    from ..localmodel import (
        CorruptSpec,
        FaultPlan,
        SyncNetwork,
        stabilization_run,
        vertex_key,
    )

    g, factory, validator, flip = _s1_instance(program, n, seed, repaired)
    net = SyncNetwork(g, factory)
    outputs = net.run(max_rounds=4_000)
    corrupt_round = net.stats.rounds + 2
    if kind == "flip":
        victim, cseed = _s1_violating_flip(g, outputs, flip, corrupt_round)
        spec = CorruptSpec(victim, corrupt_round, flip)
    elif kind == "scramble":
        victim, cseed = max(g.vertices(), key=vertex_key), 7
        spec = CorruptSpec(victim, corrupt_round, "scramble")
    else:
        raise ValueError(f"unknown S1 corruption kind {kind!r}")
    plan = FaultPlan(seed=cseed, corrupts=(spec,))
    report = stabilization_run(g, factory, validator, plan, max_rounds=4_000)
    return {
        "program": program,
        "repaired": repaired,
        "kind": kind,
        "n": len(g),
        "victim": str(victim),
        "plan": plan.spec(),
        **report.as_dict(),
    }


def s1_chaos_cell(program: str, trials: int, seed: int, n: int) -> Dict[str, Any]:
    """S1: a seeded chaos soak of one stock program, repro-gated.

    Fuzzes ``trials`` randomized fault plans (channel + corruption) at
    the program and reports the failure/minimization accounting; the
    render asserts every failure carries a minimized spec that
    reproduces (``all_reproduce``), which is what makes chaos findings
    actionable.
    """
    from ..localmodel import stock_validator, vertex_key
    from ..localmodel.chaos import chaos_soak

    _cls, g, factory = _c1_instance(program, n, seed)
    kind = {
        "bfs": "bfs", "leader": "leader", "echo": "echo", "gather": "gather",
        "luby": "mis", "coloring": "coloring", "linial": "coloring",
    }[program]
    root = None
    if kind == "bfs":
        root = min(
            g.vertices(),
            key=lambda v: (-len(list(g.neighbors_view(v))), vertex_key(v)),
        )
    validator = stock_validator(kind, g, root=root)
    report = chaos_soak(
        [(program, g, factory, validator)],
        trials=trials,
        seed=seed,
        max_rounds=4_000,
    )
    summary = report.summary()
    failures = report.failures()
    return {
        "program": program,
        "n": len(g),
        "trials": summary["trials"],
        "failures": summary["failures"],
        "by_kind": summary["by_kind"],
        "minimized": summary["minimized"],
        "reproduced": summary["reproduced"],
        "all_reproduce": all(t.reproduces for t in failures),
        "executor": report.executors.get(program, {}),
        "specs": [t.minimized for t in failures],
    }
