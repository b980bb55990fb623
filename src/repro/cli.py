"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info GRAPH``       -- structural summary (chordality, chi, alpha, ...)
* ``color GRAPH``      -- run Algorithm 1/2, print or save the coloring
* ``mis GRAPH``        -- run Algorithm 6, print or save the set
* ``generate FAMILY``  -- write a seeded random instance as an edge list
* ``report [IDS...]``  -- alias of ``run --jobs 1 --no-cache --ids IDS``
* ``run``              -- the parallel cached experiment engine
  (``--list``, ``--ids``, ``--jobs``, ``--no-cache``, ``--clean-cache``,
  ``--bench``, ``--profile``; see :mod:`repro.runner`
  and docs/runner.md)
* ``lint [PATHS...]``  -- LOCAL-model conformance linter (see ``repro.lint``)
* ``trace GRAPH``      -- run a stock message-passing program with trace
  sinks attached: per-round metrics, an optional ``--timeline``, and
  ``--jsonl`` export (schema in docs/tracing.md); ``--faults SPEC``
  attaches a fault plan (grammar in docs/faults.md).  Sinks observe
  every message, so a trace always steps node by node (docs/executor.md)
* ``faults``           -- fault-injection front-end: a single run under a
  ``--plan`` with validity monitoring (``--stock`` replays a plan on a
  program's generated sweep graph), or ``--sweep`` to classify every
  stock program as self-healing / degraded-but-valid / unsafe
* ``chaos``            -- chaos soak: N seeded randomized fault plans
  (channel + state corruption) against the stock suite, every failure
  delta-debugged to a minimal deterministic repro spec (docs/stabilize.md)

``GRAPH`` is an edge-list file (see :mod:`repro.graphs.io`); ``-`` reads
stdin.  Non-chordal inputs are rejected unless ``--triangulate`` is given,
in which case the min-fill completion is used (colorings remain valid for
the original graph; independent sets too, with the guarantee referring to
the completion).

Bad input (an unreadable or malformed ``GRAPH``, an out-of-range option)
exits 2 with one ``repro <command>: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .coloring import ColoringParameters, color_chordal_graph, distributed_color_chordal
from .graphs import (
    Graph,
    clique_number,
    degeneracy,
    density,
    dump_json,
    from_edge_list,
    is_chordal,
    random_chordal_graph,
    random_connected_interval_graph,
    random_interval_graph,
    random_k_tree,
    random_tree,
    to_edge_list,
    triangulate,
    unit_interval_chain,
)
from .mis import chordal_mis, independence_number_chordal, mis_peeling_parameters

__all__ = ["main", "build_parser"]

GENERATORS = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed, tree_size=n),
    "tree": lambda n, seed: random_tree(n, seed=seed),
    "interval": lambda n, seed: random_interval_graph(n, seed=seed),
    "interval-chain": lambda n, seed: random_connected_interval_graph(n, seed=seed),
    "unit-chain": lambda n, seed: unit_interval_chain(n, seed=seed),
    "k-tree": lambda n, seed: random_k_tree(n, 3, seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed (1+eps)-approximate MVC and MIS on chordal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="structural summary of a graph file")
    info.add_argument("graph")

    color = sub.add_parser("color", help="run the (1+eps) coloring pipeline")
    color.add_argument("graph")
    color.add_argument("--epsilon", type=float, default=0.5)
    color.add_argument("--triangulate", action="store_true")
    color.add_argument("--distributed", action="store_true",
                       help="also report LOCAL-model rounds")
    color.add_argument("--output", help="write the coloring as JSON")

    mis = sub.add_parser("mis", help="run the (1+eps) independent set pipeline")
    mis.add_argument("graph")
    mis.add_argument("--epsilon", type=float, default=0.4)
    mis.add_argument("--triangulate", action="store_true")
    mis.add_argument("--output", help="write the set as JSON")

    gen = sub.add_parser("generate", help="write a random instance")
    gen.add_argument("family", choices=sorted(GENERATORS))
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", help="file to write (default stdout)")

    rep = sub.add_parser(
        "report", help="regenerate experiment tables (run --jobs 1 --no-cache)"
    )
    rep.add_argument("ids", nargs="*",
                     help="experiment ids (default: all; aliases like T5 ok)")

    run = sub.add_parser(
        "run", help="parallel cached experiment engine (see docs/runner.md)"
    )
    run.add_argument("--ids", nargs="*", default=[], metavar="ID",
                     help="experiment ids (default: all registered)")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: CPU count; 1 = in-process)")
    run.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the result cache")
    run.add_argument("--cache-dir",
                     help="cache directory (default: $REPRO_CACHE or .repro-cache)")
    run.add_argument("--clean-cache", action="store_true",
                     help="remove every cached cell result and exit")
    run.add_argument("--list", action="store_true", dest="list_experiments",
                     help="list registered experiments and exit")
    run.add_argument("--timeout", type=float, default=600.0,
                     help="per-cell wall-clock budget in seconds (default: 600)")
    run.add_argument("--jsonl", metavar="PATH",
                     help="write one JSON object per cell to PATH")
    run.add_argument("--bench", action="store_true",
                     help="benchmark serial vs parallel vs warm cache")
    run.add_argument("--bench-output", default="BENCH_runner.json", metavar="PATH",
                     help="where --bench writes its summary")
    run.add_argument("--profile", action="store_true",
                     help="profile under cProfile (forces --jobs 1) and print "
                     "the top 15 functions by cumulative time")
    run.add_argument("--profile-out", metavar="PATH",
                     help="with --profile: dump the raw pstats data to PATH")

    trace = sub.add_parser(
        "trace", help="run a stock program with trace sinks attached"
    )
    trace.add_argument("graph")
    trace.add_argument("--program", choices=sorted(TRACE_PROGRAMS), default="bfs",
                       help="which stock NodeProgram to run (default: bfs)")
    trace.add_argument("--root", type=int, default=None,
                       help="root vertex for bfs/echo (default: smallest id)")
    trace.add_argument("--radius", type=int, default=2,
                       help="gathering radius for --program gather/gather-delta")
    trace.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized programs (luby, coloring)")
    trace.add_argument("--profile", action="store_true",
                       help="profile under cProfile and print the top 15 "
                       "functions by cumulative time")
    trace.add_argument("--profile-out", metavar="PATH",
                       help="with --profile: dump the raw pstats data to PATH")
    trace.add_argument("--sealed", action="store_true",
                       help="run under sealed contexts (runtime LOCAL enforcement)")
    trace.add_argument("--timeline", action="store_true",
                       help="print the per-round timeline after the summary")
    trace.add_argument("--jsonl", metavar="PATH",
                       help="write one JSON object per round to PATH")
    trace.add_argument("--no-payloads", action="store_true",
                       help="omit message payloads from the JSONL trace")
    trace.add_argument("--faults", default="", metavar="SPEC",
                       help="fault plan, e.g. 'drop=0.1,delay=0.05:2,seed=3' "
                       "(grammar in docs/faults.md)")
    trace.add_argument("--max-rounds", type=int, default=10_000)

    faults = sub.add_parser(
        "faults", help="fault-injection runs and the resilience sweep"
    )
    faults.add_argument("graph", nargs="?",
                        help="edge-list file for a single run (omit with --sweep)")
    faults.add_argument("--plan", default="", metavar="SPEC",
                        help="fault plan: drop=P,dup=P,delay=P:K,burst=R1-R2,"
                        "crash=V@R[-R2],seed=N (grammar in docs/faults.md)")
    faults.add_argument("--program", choices=sorted(TRACE_PROGRAMS), default="bfs",
                        help="stock NodeProgram for a single run (default: bfs)")
    faults.add_argument("--root", type=int, default=None,
                        help="root vertex for bfs/echo (default: smallest id)")
    faults.add_argument("--radius", type=int, default=2,
                        help="gathering radius for --program gather")
    faults.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized programs (luby, coloring)")
    faults.add_argument("--sweep", action="store_true",
                        help="classify every stock program under the default "
                        "fault grid (self-healing / degraded-but-valid / unsafe)")
    faults.add_argument("--retries", action="store_true",
                        help="wrap programs in the retry/ack envelope "
                        "(ReliableProgram)")
    faults.add_argument("--drops", default=None, metavar="P1,P2,...",
                        help="sweep drop rates (default: 0.05,0.15,0.3)")
    faults.add_argument("--format", choices=("text", "json"), default="text")
    faults.add_argument("--timeline", action="store_true",
                        help="print the per-round timeline of a single run")
    faults.add_argument("--max-rounds", type=int, default=10_000)
    faults.add_argument("--stock", action="store_true",
                        help="run --program on its stock sweep graph instead "
                        "of a GRAPH file (replays 'repro chaos' repro specs)")
    faults.add_argument("--recovery", choices=("intact", "restart", "checkpoint"),
                        default="intact",
                        help="crash-recover state policy (default: intact; "
                        "see docs/faults.md)")
    faults.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="checkpoint node state every N rounds (required "
                        "for --recovery checkpoint)")

    chaos = sub.add_parser(
        "chaos", help="chaos soak: fuzz randomized fault plans, minimize failures"
    )
    chaos.add_argument("--trials", type=int, default=50,
                       help="seeded fuzz trials across the stock suite "
                       "(default: 50)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed; the whole soak replays bit-for-bit")
    chaos.add_argument("--programs", default=None, metavar="P1,P2,...",
                       help="restrict the suite to these stock programs")
    chaos.add_argument("--quick", action="store_true",
                       help="three-program quick suite (the CI smoke subset)")
    chaos.add_argument("--no-minimize", action="store_true",
                       help="skip delta-debugging the failing plans")
    chaos.add_argument("--check", action="store_true",
                       help="exit 1 unless every failure minimized to a spec "
                       "that reproduces on replay")
    chaos.add_argument("--format", choices=("text", "json"), default="text")
    chaos.add_argument("--max-rounds", type=int, default=4_000)

    lint = sub.add_parser(
        "lint", help="check NodeProgram classes for LOCAL-model conformance"
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: the repro package)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", default="all",
                      help="comma-separated rule codes (default: all)")
    lint.add_argument("--show-suppressed", action="store_true")
    lint.add_argument("--congest", action="store_true",
                      help="print the per-program bandwidth certificate table")
    lint.add_argument("--sanitize", action="store_true",
                      help="shadow-execution determinism suite (permuted "
                      "inbox order, transcript diff)")

    return parser


class _BadInput(Exception):
    """Bad input at the CLI boundary: :func:`main` prints it and exits 2."""


def _read_graph(path: str) -> Graph:
    try:
        if path == "-":
            return from_edge_list(sys.stdin.read())
        with open(path) as handle:
            return from_edge_list(handle.read())
    except OSError as exc:
        raise _BadInput(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise _BadInput(f"{path}: {exc}") from None


def _epsilon_error(command: str, check, epsilon: float) -> Optional[int]:
    """Exit status 2 with a one-line message if ``check`` rejects epsilon."""
    try:
        check(epsilon)
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 2
    return None


def _prepare(graph: Graph, allow_triangulate: bool, out) -> Graph:
    if is_chordal(graph):
        return graph
    if not allow_triangulate:
        raise SystemExit(
            "input graph is not chordal; pass --triangulate to use its "
            "min-fill completion"
        )
    tri = triangulate(graph)
    print(
        f"triangulated: +{len(tri.fill_edges)} fill edges, "
        f"treewidth <= {tri.width}",
        file=out,
    )
    return tri.chordal_graph


#: The stock programs ``repro trace`` can put on the wire.
TRACE_PROGRAMS = (
    "bfs", "leader", "echo", "gather", "gather-delta", "luby", "coloring"
)


def _trace_factory(args, graph: Graph):
    """(program factory, describe(outputs) -> str) for ``repro trace``."""
    import random as _random

    n = len(graph)
    root = args.root
    if root is None:
        from .localmodel import vertex_key

        root = min(graph.vertices(), key=vertex_key)
    elif root not in graph:
        raise _BadInput(f"--root {root} is not a vertex of the graph")
    if args.radius < 0:
        raise _BadInput(f"--radius must be >= 0, got {args.radius}")
    if args.program == "bfs":
        from .localmodel import BFSLayerProgram

        budget = n + 1
        factory = lambda v, nbrs: BFSLayerProgram(v, nbrs, root, budget)
        describe = lambda outputs: (
            f"bfs from {root}: eccentricity "
            f"{max((d for d in outputs.values() if d is not None), default=0)}"
        )
    elif args.program == "leader":
        from .localmodel import LeaderElectionProgram

        budget = n + 1
        factory = lambda v, nbrs: LeaderElectionProgram(v, nbrs, budget)
        describe = lambda outputs: f"leader: {min(outputs.values(), default=None)}"
    elif args.program == "echo":
        from .localmodel import EchoCountProgram

        factory = lambda v, nbrs: EchoCountProgram(v, nbrs, root)
        describe = lambda outputs: f"echo count at root {root}: {outputs[root]}"
    elif args.program == "gather":
        from .localmodel import BallGatherProgram

        factory = lambda v, nbrs: BallGatherProgram(v, nbrs, args.radius, None)
        describe = lambda outputs: (
            f"gathered radius-{args.radius} balls; largest has "
            f"{max(len(ball.states) for ball in outputs.values())} vertices"
        )
    elif args.program == "gather-delta":
        from .graphs.index import graph_index
        from .localmodel import DeltaGatherProgram

        index = graph_index(graph)
        factory = lambda v, nbrs: DeltaGatherProgram(
            v, nbrs, args.radius, None, index
        )
        describe = lambda outputs: (
            f"delta-gathered radius-{args.radius} balls; largest has "
            f"{max(len(ball.states) for ball in outputs.values())} vertices"
        )
    elif args.program == "luby":
        from .baselines.luby import LubyMISProgram

        master = _random.Random(args.seed)
        seeds = {v: master.randrange(2**62) for v in graph.vertices()}
        factory = lambda v, nbrs: LubyMISProgram(v, nbrs, _random.Random(seeds[v]))
        describe = lambda outputs: (
            f"luby MIS size: {sum(1 for joined in outputs.values() if joined)}"
        )
    else:  # coloring
        from .baselines.coloring_baselines import RandomizedColoringProgram

        palette = graph.max_degree() + 1
        master = _random.Random(args.seed)
        seeds = {v: master.randrange(2**62) for v in graph.vertices()}
        factory = lambda v, nbrs: RandomizedColoringProgram(
            v, nbrs, palette, _random.Random(seeds[v])
        )
        describe = lambda outputs: (
            f"(Delta+1)-coloring used {len(set(outputs.values()))} colors "
            f"(palette {palette})"
        )
    return factory, describe


def _cmd_trace(args, out) -> int:
    """The ``repro trace`` front-end over the trace sinks."""
    from .localmodel import JSONLTraceSink, MetricsSink, TracedNetwork

    graph = _read_graph(args.graph)
    if len(graph) == 0:
        print("graph is empty; nothing to trace", file=out)
        return 0
    factory, describe = _trace_factory(args, graph)

    plan = None
    if args.faults:
        from .localmodel import FaultPlan, FaultPlanError

        try:
            plan = FaultPlan.parse(args.faults)
        except FaultPlanError as exc:
            raise SystemExit(f"bad --faults spec: {exc}")

    metrics = MetricsSink()
    sinks = [metrics]
    jsonl_sink = None
    if args.jsonl:
        jsonl_sink = JSONLTraceSink(args.jsonl, payloads=not args.no_payloads)
        sinks.append(jsonl_sink)
    traced = TracedNetwork(
        graph,
        factory,
        sealed=args.sealed,
        sinks=sinks,
        faults=plan,
    )
    try:
        outputs = traced.run(max_rounds=args.max_rounds)
    except RuntimeError as exc:
        # starvation / round-budget exhaustion: e.g. --program echo on a
        # non-tree graph, where the convergecast can never complete
        raise SystemExit(
            f"trace aborted after {traced.network.stats.rounds} round(s): {exc}"
        )
    finally:
        if jsonl_sink is not None:
            jsonl_sink.close()

    summary = metrics.summary()
    print(
        f"{args.program} on {len(graph)} vertices"
        f"{' (sealed)' if args.sealed else ''}",
        file=out,
    )
    print(
        f"rounds: {summary['rounds']}  messages: {summary['messages']}  "
        f"max/round: {summary['max_messages_per_round']}",
        file=out,
    )
    print(
        f"node steps: {summary['total_steps']}  "
        f"max active: {summary['max_active']}  "
        f"quiet rounds: {summary['quiet_rounds']}",
        file=out,
    )
    print(describe(outputs), file=out)
    if plan is not None and not plan.is_empty():
        summary_faults = traced.network.fault_summary() or {}
        print(
            "faults injected: "
            + "  ".join(f"{k}: {v}" for k, v in summary_faults.items()),
            file=out,
        )
    if jsonl_sink is not None:
        print(
            f"trace written to {args.jsonl} ({jsonl_sink.rounds_written} rounds)",
            file=out,
        )
    if args.timeline:
        print(traced.timeline(), file=out)
    return 0


#: ``repro faults`` validator kind per stock program (see ``stock_validator``).
FAULT_VALIDATORS = {
    "bfs": "bfs",
    "leader": "leader",
    "echo": "echo",
    "gather": "gather",
    "gather-delta": "gather",
    "luby": "mis",
    "coloring": "coloring",
    "linial": "coloring",
}


def _faults_suite():
    """(name, graph, factory, validator) for the ``--sweep`` classification.

    Programs and graphs come from the ``lint --sanitize`` suite so the
    classification covers exactly the stock inventory; each entry pairs
    the program with its safety validator (properness, independence,
    distance lower bounds, ...) from :mod:`repro.localmodel.resilience`.
    """
    from .lint.cli import _sanitize_suite
    from .localmodel import stock_validator, vertex_key

    suite = []
    for name, graph, factory in _sanitize_suite():
        kind = FAULT_VALIDATORS[name]
        root = None
        if kind == "bfs":
            root = min(graph.vertices(), key=vertex_key)
        suite.append((name, graph, factory, stock_validator(kind, graph, root=root)))
    return suite


def _cmd_faults_sweep(args, out) -> int:
    """``repro faults --sweep``: classify every stock program."""
    from .analysis.tables import format_table
    from .localmodel import fault_grid, resilience_check, with_retries

    grid = fault_grid(
        drop_rates=tuple(
            float(tok) for tok in args.drops.split(",") if tok
        ) if args.drops else (0.05, 0.15, 0.3)
    )
    results = []
    for name, graph, factory, validator in _faults_suite():
        if args.retries:
            factory = with_retries(factory)
        report = resilience_check(
            graph, factory, validator, grid=grid, max_rounds=args.max_rounds
        )
        results.append((name, len(graph), report))

    if args.format == "json":
        payload = {
            "retries": args.retries,
            "grid": [plan.spec() for plan in grid],
            "programs": [
                {
                    "program": name,
                    "vertices": n,
                    "classification": report.classification,
                    "baseline_rounds": report.baseline_rounds,
                    "rounds_to_recover": report.rounds_to_recover,
                    "outcomes": [
                        {
                            "plan": o.plan,
                            "complete": o.complete,
                            "valid": o.valid,
                            "matches_baseline": o.matches_baseline,
                            "rounds": o.rounds,
                            "extra_rounds": o.extra_rounds,
                            "injected": o.injected,
                            "problems": list(o.problems),
                            "error": o.error,
                        }
                        for o in report.outcomes
                    ],
                }
                for name, n, report in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        rows = []
        for name, n, report in results:
            incomplete = sum(1 for o in report.outcomes if not o.complete)
            invalid = sum(1 for o in report.outcomes if not o.valid)
            recover = report.rounds_to_recover
            rows.append((
                name,
                report.classification,
                report.baseline_rounds,
                "-" if recover is None else recover,
                f"{len(report.outcomes) - incomplete}/{len(report.outcomes)}",
                invalid,
            ))
        print(
            format_table(
                ["program", "classification", "base rounds", "worst extra",
                 "completed", "invalid"],
                rows,
            ),
            file=out,
        )
    return 0


def _cmd_faults(args, out) -> int:
    """The ``repro faults`` front-end (single run or classification sweep)."""
    from .localmodel import (
        FaultPlan,
        FaultPlanError,
        MetricsSink,
        TracedNetwork,
        ValidityMonitor,
        stock_validator,
        vertex_key,
        with_retries,
    )

    if args.sweep:
        return _cmd_faults_sweep(args, out)
    try:
        plan = FaultPlan.parse(args.plan)
    except FaultPlanError as exc:
        raise SystemExit(f"bad --plan spec: {exc}")

    if args.stock:
        # the generated sweep graph + seeded factory: the environment
        # every `repro chaos` repro spec refers to
        entry = next(
            (e for e in _faults_suite() if e[0] == args.program), None
        )
        if entry is None:
            raise SystemExit(
                f"no stock suite entry for --program {args.program}"
            )
        _, graph, factory, validator = entry

        def describe(outputs):
            committed = sum(1 for v in outputs.values() if v is not None)
            return f"committed outputs: {committed}/{len(graph)}"
    else:
        if not args.graph:
            raise SystemExit(
                "repro faults: provide a GRAPH file or use --stock / --sweep"
            )
        graph = _read_graph(args.graph)
        if len(graph) == 0:
            print("graph is empty; nothing to run", file=out)
            return 0
        factory, describe = _trace_factory(args, graph)
        kind = FAULT_VALIDATORS[args.program]
        root = args.root
        if root is None:
            root = min(graph.vertices(), key=vertex_key)
        validator = stock_validator(
            kind, graph, root=root if kind == "bfs" else None
        )
    if args.retries:
        factory = with_retries(factory)

    metrics = MetricsSink()
    try:
        traced = TracedNetwork(
            graph,
            factory,
            sinks=[metrics],
            faults=plan,
            recovery=args.recovery,
            checkpoint_every=args.checkpoint_every,
        )
    except ValueError as exc:
        raise _BadInput(str(exc)) from None
    monitor = ValidityMonitor(traced.network, validator)
    traced.network.add_sink(monitor)

    outputs = None
    error = None
    try:
        outputs = traced.run(max_rounds=args.max_rounds)
    except RuntimeError as exc:
        error = str(exc).splitlines()[0]

    summary = metrics.summary()
    print(
        f"{args.program} on {len(graph)} vertices under "
        f"plan '{plan.spec() or 'none'}'"
        f"{' with retries' if args.retries else ''}",
        file=out,
    )
    print(
        f"rounds: {summary['rounds']}  messages: {summary['messages']}  "
        f"quiet rounds: {summary['quiet_rounds']}",
        file=out,
    )
    injected = traced.network.fault_summary()
    if injected is not None:
        print(
            "faults injected: "
            + "  ".join(f"{k}: {v}" for k, v in injected.items()),
            file=out,
        )
    crashed = traced.network.crashed_nodes()
    if crashed:
        print(f"still crashed: {', '.join(str(v) for v in crashed)}", file=out)
    if error is not None:
        print(f"run did not complete: {error}", file=out)
    elif outputs is not None:
        print(describe(outputs), file=out)
    # validate the *final* outputs too: a corruption landing after the
    # last monitored round (e.g. on a quiesced network) is invisible to
    # the per-round monitor but must still fail the replay
    final = {v: p.output for v, p in traced.network.programs.items()}
    final_problems = validator(graph, final)
    if monitor.first_violation_round is None and not final_problems:
        print("output validity: OK (no round ever violated the invariant)",
              file=out)
    elif monitor.first_violation_round is not None:
        _, problems = monitor.violations[-1]
        print(
            f"output validity: VIOLATED from round "
            f"{monitor.first_violation_round}: {problems[0]}",
            file=out,
        )
    else:
        print(
            f"output validity: VIOLATED in the final outputs: "
            f"{final_problems[0]}",
            file=out,
        )
    if args.timeline:
        print(traced.timeline(), file=out)
    return 0 if monitor.first_violation_round is None and not final_problems else 1


#: the CI smoke subset for ``repro chaos --quick``: one representative per
#: output invariant (distances, coloring, independence)
CHAOS_QUICK_PROGRAMS = ("bfs", "coloring", "luby")


def _cmd_chaos(args, out) -> int:
    """``repro chaos``: the seeded fuzz soak with failure minimization."""
    from .analysis.tables import format_table
    from .localmodel.chaos import chaos_soak

    if args.trials < 1:
        raise _BadInput(f"--trials must be >= 1, got {args.trials}")
    suite = _faults_suite()
    if args.quick:
        suite = [e for e in suite if e[0] in CHAOS_QUICK_PROGRAMS]
    if args.programs:
        wanted = {tok for tok in args.programs.split(",") if tok}
        unknown = wanted - {e[0] for e in suite}
        if unknown:
            raise SystemExit(
                f"unknown chaos programs: {', '.join(sorted(unknown))} "
                f"(have: {', '.join(e[0] for e in suite)})"
            )
        suite = [e for e in suite if e[0] in wanted]

    report = chaos_soak(
        suite,
        trials=args.trials,
        seed=args.seed,
        max_rounds=args.max_rounds,
        minimize=not args.no_minimize,
    )
    summary = report.summary()
    failures = report.failures()
    unreproduced = [
        t for t in failures if not args.no_minimize and not t.reproduces
    ]

    if args.format == "json":
        payload = {
            "summary": summary,
            "executors": report.executors,
            "trials": [t.as_dict() for t in report.trials],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(
            f"chaos soak: {summary['trials']} trials over "
            f"{len(suite)} programs (seed {args.seed})",
            file=out,
        )
        rows = []
        for name, _graph, _factory, _validator in suite:
            info = report.executors.get(name, {})
            rows.append((
                name,
                sum(1 for t in report.trials if t.program == name),
                summary["by_program"].get(name, 0),
                info.get("executed", "?"),
            ))
        print(
            format_table(["program", "trials", "failures", "executor"], rows),
            file=out,
        )
        for t in failures:
            print(f"{t.program} trial {t.trial}: {t.kind}", file=out)
            detail = t.problems[0] if t.problems else (t.error or "")
            if detail:
                print(f"  {detail}", file=out)
            print(f"  plan: {t.plan}", file=out)
            if t.minimized is not None:
                status = "reproduces" if t.reproduces else "DOES NOT reproduce"
                print(f"  minimized ({status}): {t.minimized}", file=out)
                print(
                    f"  replay: repro faults --stock --program {t.program} "
                    f"--plan '{t.minimized}'",
                    file=out,
                )
        print(
            f"failures: {summary['failures']}  minimized: "
            f"{summary['minimized']}  reproduced: {summary['reproduced']}",
            file=out,
        )
    if args.check and unreproduced:
        print(
            f"chaos --check: {len(unreproduced)} failure(s) lack a "
            "reproducing minimized spec",
            file=out,
        )
        return 1
    return 0


def _cmd_run(args, out) -> int:
    """The ``repro run`` front-end over :mod:`repro.runner`.

    Tables go to ``out`` (byte-identical at any ``--jobs`` and cache
    state); progress and cache statistics go to stderr so stdout stays
    diffable.
    """
    import json as _json

    from . import runner

    requested = [part for token in args.ids for part in token.split(",") if part]
    try:
        ids = runner.resolve_ids(requested)
    except runner.UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_experiments:
        from .analysis.tables import format_table

        rows = [
            (eid, len(exp.plan()), ", ".join(exp.deps), exp.title)
            for eid, exp in runner.REGISTRY.items()
        ]
        print(format_table(["id", "cells", "cache deps (roots)", "title"], rows),
              file=out)
        return 0

    cache_dir = args.cache_dir
    if args.clean_cache:
        cache = runner.ResultCache(cache_dir)
        removed = cache.clean()
        print(f"removed {removed} cached cell result(s) from {cache.directory}",
              file=out)
        return 0

    if args.bench:
        summary = runner.run_bench(ids, jobs=args.jobs, timeout=args.timeout)
        with open(args.bench_output, "w") as handle:
            _json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"serial {summary['serial']['wall_seconds']:.2f}s  "
            f"parallel(x{summary['parallel']['jobs']}) "
            f"{summary['parallel']['wall_seconds']:.2f}s  "
            f"warm cache {summary['cached_rerun']['wall_seconds']:.2f}s  "
            f"({summary['cells']} cells, {summary['cpu_count']} CPUs, "
            f"reports identical: {summary['reports_identical']})",
            file=out,
        )
        print(f"bench summary written to {args.bench_output}", file=out)
        return 0

    import os

    jobs = args.jobs or os.cpu_count() or 1
    if args.profile:
        # pool workers escape the profiler; keep every cell in-process
        jobs = 1
    cache = None if args.no_cache else runner.ResultCache(cache_dir)
    report, results, stats = runner.run_experiments(
        ids,
        jobs=jobs,
        cache=cache,
        timeout=args.timeout,
        jsonl=args.jsonl,
    )
    print(report, file=out)
    print(stats.summary_line(), file=sys.stderr)
    failures = [r for r in results if not r.ok]
    for res in failures:
        first_line = (res.error or "").splitlines()[0] if res.error else ""
        print(
            f"  {res.status}: {res.experiment} {res.fn}{res.params}: {first_line}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _with_profile(args, command, out) -> int:
    """Run ``command()`` under cProfile when ``--profile`` was given.

    The top 15 functions by cumulative time print after the command's
    own output; ``--profile-out`` additionally dumps the raw ``pstats``
    data for offline analysis (``python -m pstats``, snakeviz, ...).
    """
    if not getattr(args, "profile", False):
        return command()
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return command()
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(15)
        print(stream.getvalue().rstrip(), file=out)
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"raw profile stats written to {args.profile_out}", file=out)


def main(argv: Optional[list] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "report":
        args = build_parser().parse_args(
            ["run", "--jobs", "1", "--no-cache", "--ids", *args.ids]
        )
    try:
        return _run_command(args, out)
    except _BadInput as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _run_command(args, out) -> int:
    if args.command == "info":
        g = _read_graph(args.graph)
        chordal = is_chordal(g)
        print(f"vertices: {len(g)}", file=out)
        print(f"edges:    {g.num_edges()}", file=out)
        print(f"density:  {density(g):.4f}", file=out)
        print(f"chordal:  {chordal}", file=out)
        print(f"degeneracy: {degeneracy(g)}", file=out)
        if chordal:
            print(f"chi (= omega): {clique_number(g)}", file=out)
            print(f"alpha:         {independence_number_chordal(g)}", file=out)
        return 0

    if args.command == "color":
        bad = _epsilon_error("color", ColoringParameters.from_epsilon, args.epsilon)
        if bad is not None:
            return bad
        g = _prepare(_read_graph(args.graph), args.triangulate, out)
        if args.distributed:
            report = distributed_color_chordal(g, epsilon=args.epsilon)
            result = report.result
            print(f"LOCAL rounds: {report.total_rounds}", file=out)
        else:
            result = color_chordal_graph(g, epsilon=args.epsilon)
        print(f"colors used: {result.num_colors()} "
              f"(chi = {result.chi}, bound = "
              f"{result.chi + result.chi // result.parameters.k + 1})", file=out)
        if args.output:
            with open(args.output, "w") as f:
                json.dump({str(v): c for v, c in result.coloring.items()}, f)
            print(f"coloring written to {args.output}", file=out)
        return 0

    if args.command == "mis":
        bad = _epsilon_error("mis", mis_peeling_parameters, args.epsilon)
        if bad is not None:
            return bad
        g = _prepare(_read_graph(args.graph), args.triangulate, out)
        result = chordal_mis(g, args.epsilon)
        alpha = independence_number_chordal(g)
        print(f"independent set size: {result.size()} "
              f"(alpha = {alpha}, guarantee >= {alpha / (1 + args.epsilon):.1f})",
              file=out)
        if args.output:
            with open(args.output, "w") as f:
                json.dump(sorted(result.independent_set, key=str), f)
            print(f"set written to {args.output}", file=out)
        return 0

    if args.command == "generate":
        g = GENERATORS[args.family](args.n, args.seed)
        text = to_edge_list(g)
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
            print(f"{args.family} instance (n={len(g)}) written to {args.output}",
                  file=out)
        else:
            out.write(text)
        return 0

    if args.command == "run":
        return _with_profile(args, lambda: _cmd_run(args, out), out)

    if args.command == "trace":
        return _with_profile(args, lambda: _cmd_trace(args, out), out)

    if args.command == "faults":
        return _cmd_faults(args, out)

    if args.command == "chaos":
        return _cmd_chaos(args, out)

    if args.command == "lint":
        from .lint.cli import main as lint_main

        lint_argv = [*args.paths, "--format", args.format, "--select", args.select]
        if args.show_suppressed:
            lint_argv.append("--show-suppressed")
        if args.congest:
            lint_argv.append("--congest")
        if args.sanitize:
            lint_argv.append("--sanitize")
        return lint_main(lint_argv, out=out)

    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
