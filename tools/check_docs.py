#!/usr/bin/env python3
"""Docs-consistency checker (stdlib only; runs in CI).

Cross-validates the prose against the code so the reproduction
instructions can never silently rot:

* every experiment id referenced by ``EXPERIMENTS.md`` (section
  headings) and ``DESIGN.md`` (the per-experiment index table) must
  resolve in the ``repro.runner`` registry;
* every CLI subcommand exposed by ``repro.cli.build_parser()`` must be
  documented in ``README.md`` (as ``repro <cmd>`` or
  ``python -m repro <cmd>``) and at least named in ``docs/index.md``;
* every ``docs/*.md`` page must be linked from both ``README.md`` and
  the ``docs/index.md`` subsystem map (the index itself only needs the
  README link), so no page can exist unreachable from the front door;
* ``docs/architecture.md`` must inventory every top-level ``repro``
  subpackage, and ``docs/runner.md`` must exist and name every
  registered experiment id;
* ``docs/tracing.md`` must exist and document the trace-sink surface
  (``TraceSink``, ``on_round``, the stock sinks, ``repro trace``);
* ``docs/lint.md`` must exist, carry a ``### Lx — ...`` section (with a
  minimal triggering example) for every registered lint rule, and name
  the bandwidth/sanitizer surface (``--congest``, ``--sanitize``,
  ``MessageMeter``, ``shadow_check``);
* ``docs/kernels.md`` must exist and document the kernel substrate
  (``GraphIndex``, the ``graph_index`` version-keyed cache,
  ``bench_kernels`` / ``BENCH_kernels.json``) and the early-stopping
  scale guards (``Graph.diameter``, ``compute_parent``,
  ``greedy_distance_k_selection``);
* ``docs/faults.md`` must exist and document the fault-injection and
  resilience surface (``FaultPlan``, the plan grammar including
  ``corrupt=``, the three classifications, ``ReliableProgram``,
  ``resilience_check``, ``repro faults``, the ``--recovery`` /
  ``--checkpoint-every`` knobs, ``BENCH_faults.json``);
* ``docs/stabilize.md`` must exist and document the self-stabilization
  surface (``RepairableProgram``, the repair policies,
  ``stabilization_run``, ``CorruptSpec``, the chaos soak and its
  minimize/reproduce gate, ``repro chaos``, the recovery modes,
  ``BENCH_chaos.json``);
* ``docs/gather.md`` must exist and document the ball-gathering surface
  (``KnownBall``, the delta/reference program pair, the shared
  ``SubtreeTable`` of the local views, the counting contract's status
  sets, ``bench_network`` / ``BENCH_network.json``) and the gather's one
  path (``DeltaGatherKernel`` on "vertex facts", its ``RunStats`` and
  the ``info["executed"]`` entry, ``--profile``);
* no page names the retired batch-executor framework
  (:data:`RETIRED_EXECUTOR_TERMS`): ``gather_balls`` dispatches itself;
* no page names the retired per-node fallback of ``gather_balls`` or the
  ``TracedNetwork`` wrapper (:data:`RETIRED_FALLBACK_TERMS`):
  ``SyncNetwork`` alone seals, traces or faults a run;
* no page names a retired experiment path (:data:`RETIRED_PATHS`):
  experiments live only in ``repro.runner``;
* ``docs/kernels.md`` names the clique-forest builder
  ``clique_forest_from_peo``, and no page names the W_G kernels it
  retired (:data:`RETIRED_KERNELS`), which are test oracles now;
* no page names the retired layer-only peeling
  (:data:`RETIRED_PEELING_TERMS`): ``peel_chordal_graph`` is the one
  peeling;
* no page names a retired stock-program inventory or harness helper
  (:data:`RETIRED_STOCK_TERMS`): ``repro.localmodel.stock`` is the one
  catalogue;
* no docs page describes the gather kernel's retired "fact-id" space;
* ``docs/index.md`` holds the table of accepted epsilon ranges
  (:data:`EPSILON_RANGES`), one row per entry point.

Usage::

    PYTHONPATH=src python tools/check_docs.py [--root PATH]

Exit status 0 when consistent, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: module paths that no longer exist: every experiment is implemented once,
#: in ``repro.runner`` (registry + cells); ``repro report`` is a ``run`` alias
RETIRED_PATHS = (
    "repro.analysis.report",
    "repro.analysis.experiments",
    "repro.analysis.ablations",
)


#: W_G kernels the separator-based clique-forest builder replaced
RETIRED_KERNELS = (
    "clique_intersection_edges",
    "maximum_weight_spanning_forest_ids",
)


#: the layer-only peeling kernel and its wrapper; ``peel_chordal_graph``
#: is the one peeling
RETIRED_PEELING_TERMS = (
    "peeling_layers",
    "PeelingLayers",
    "_RestrictedBFS",
)


#: per-harness inventories of the stock programs and harness helpers with
#: no caller; ``repro.localmodel.stock`` is the one catalogue
RETIRED_STOCK_TERMS = (
    "corruption_grid",
    "RoundLedger",
    "FAULT_VALIDATORS",
    "_c1_instance",
    "_sanitize_suite",
)


#: the generic executor framework ``gather_balls``' own dispatch replaced
RETIRED_EXECUTOR_TERMS = (
    "BatchExecutor",
    "BatchKernel",
    "KernelIneligible",
    "BFSLayerKernel",
    "LinialPathKernel",
    "batch_kernel",
)


#: the per-node path ``gather_balls`` no longer has, and the wrapper that
#: only passed ``SyncNetwork``'s own options on
RETIRED_FALLBACK_TERMS = (
    "TracedNetwork",
    "fallback_reason",
    "_per_node_blockers",
)


#: the gather kernel's representation, and the one it replaced
GATHER_KERNEL_TERM = "vertex facts"
RETIRED_GATHER_TERM = "fact-id"

#: docs/index.md's accepted-epsilon table: entry point -> its range
EPSILON_RANGES = {
    "ColoringParameters.from_epsilon": "ε > 0 and finite",
    "interval_mis": "0 < ε < 1",
    "mis_peeling_parameters": "0 < ε < ½",
}


def _normalize(raw: str) -> str:
    """Map typographic dashes to ASCII so F1–F6 matches the registry."""
    return raw.replace("–", "-").replace("—", "-")


def experiment_ids_in_experiments_md(text: str) -> List[str]:
    """Ids from section headings: ``## T4 — Theorem 4: ...``."""
    found = []
    for match in re.finditer(
        r"^## +([A-Z]\d+(?:[/–-][A-Z]?\d+)*) +[—-] ", text, flags=re.MULTILINE
    ):
        raw = _normalize(match.group(1))
        if raw not in BENCH_ONLY_IDS:
            found.append(raw)
    return found


#: ids whose reproduction is a pytest-benchmark target only (DESIGN.md's
#: substrate microbenchmarks) — they have no table to regenerate, so they
#: are legitimately absent from the runner registry.
BENCH_ONLY_IDS = {"S0"}


def experiment_ids_in_design_md(text: str) -> List[str]:
    """Ids from the per-experiment index table: ``| T4 | Theorem 4 | ...``.

    An experiment id is letter(s)+digits, optionally ranged or slashed
    (``F3/F4``, ``A1-A3``) — which is what keeps the subsystem table's
    prose cells out.
    """
    found = []
    for match in re.finditer(
        r"^\| +([A-Z]\d+(?:[/–-][A-Z]?\d+)*) +\|", text, flags=re.MULTILINE
    ):
        raw = _normalize(match.group(1))
        if raw not in BENCH_ONLY_IDS:
            found.append(raw)
    return found


def cli_subcommands() -> List[str]:
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # argparse internals, but stable
        return sorted(action.choices)
    return []


def package_inventory(src_root: Path) -> List[str]:
    return sorted(
        p.parent.name
        for p in (src_root / "repro").glob("*/__init__.py")
        if p.parent.name != "__pycache__"
    )


def check(root: Path) -> List[str]:
    problems: List[str] = []

    sys.path.insert(0, str(root / "src"))
    from repro.runner import UnknownExperimentError, experiment_ids, resolve_ids

    registered = experiment_ids()

    # 1. experiment ids referenced in the docs resolve in the registry
    for name, extractor in [
        ("EXPERIMENTS.md", experiment_ids_in_experiments_md),
        ("DESIGN.md", experiment_ids_in_design_md),
    ]:
        path = root / name
        if not path.is_file():
            problems.append(f"{name}: file missing")
            continue
        referenced = extractor(path.read_text())
        if not referenced:
            problems.append(f"{name}: found no experiment ids to check")
        for experiment_id in referenced:
            try:
                resolve_ids([experiment_id])
            except UnknownExperimentError:
                problems.append(
                    f"{name}: experiment id {experiment_id!r} is not in the "
                    f"repro.runner registry (known: {', '.join(registered)})"
                )

    # 2. every CLI subcommand is documented in the README
    readme_path = root / "README.md"
    if not readme_path.is_file():
        problems.append("README.md: file missing")
    else:
        readme = readme_path.read_text()
        for command in cli_subcommands():
            pattern = rf"(python -m repro|\brepro) +{re.escape(command)}\b"
            if not re.search(pattern, readme):
                problems.append(
                    f"README.md: CLI subcommand {command!r} is undocumented "
                    f"(expected 'repro {command}' or 'python -m repro {command}')"
                )

    # 3. docs/ inventory stays complete
    architecture = root / "docs" / "architecture.md"
    if not architecture.is_file():
        problems.append("docs/architecture.md: file missing")
    else:
        text = architecture.read_text()
        for package in package_inventory(root / "src"):
            if f"repro.{package}" not in text:
                problems.append(
                    f"docs/architecture.md: package 'repro.{package}' missing "
                    "from the layer map"
                )

    runner_doc = root / "docs" / "runner.md"
    if not runner_doc.is_file():
        problems.append("docs/runner.md: file missing")
    else:
        text = _normalize(runner_doc.read_text())
        for experiment_id in registered:
            if experiment_id not in text:
                problems.append(
                    f"docs/runner.md: registered experiment {experiment_id!r} "
                    "is never mentioned"
                )

    tracing_doc = root / "docs" / "tracing.md"
    if not tracing_doc.is_file():
        problems.append("docs/tracing.md: file missing")
    else:
        text = tracing_doc.read_text()
        for term in (
            "TraceSink",
            "on_round",
            "RecordingSink",
            "MetricsSink",
            "JSONLTraceSink",
            "repro trace",
        ):
            if term not in text:
                problems.append(
                    f"docs/tracing.md: {term!r} is never mentioned (the "
                    "trace-sink surface must stay documented)"
                )

    lint_doc = root / "docs" / "lint.md"
    if not lint_doc.is_file():
        problems.append("docs/lint.md: file missing")
    else:
        text = lint_doc.read_text()
        from repro.lint import ALL_RULE_CODES

        for code in sorted(ALL_RULE_CODES):
            if f"### {code} " not in text:
                problems.append(
                    f"docs/lint.md: rule {code!r} has no '### {code} — ...' "
                    "section (every rule needs a minimal triggering example)"
                )
        for term in (
            "--congest",
            "--sanitize",
            "MessageMeter",
            "shadow_check",
            "inbox_order",
            "suppressed_count",
        ):
            if term not in text:
                problems.append(
                    f"docs/lint.md: {term!r} is never mentioned (the "
                    "conformance surface must stay documented)"
                )

    faults_doc = root / "docs" / "faults.md"
    if not faults_doc.is_file():
        problems.append("docs/faults.md: file missing")
    else:
        text = faults_doc.read_text()
        for term in (
            "FaultPlan",
            "drop=",
            "crash=",
            "self-healing",
            "degraded-but-valid",
            "unsafe",
            "ReliableProgram",
            "resilience_check",
            "ValidityMonitor",
            "repro faults",
            "--faults",
            "corrupt=",
            "--recovery",
            "--checkpoint-every",
            "--stock",
            "BENCH_faults.json",
        ):
            if term not in text:
                problems.append(
                    f"docs/faults.md: {term!r} is never mentioned (the "
                    "fault/resilience surface must stay documented)"
                )

    stabilize_doc = root / "docs" / "stabilize.md"
    if not stabilize_doc.is_file():
        problems.append("docs/stabilize.md: file missing")
    else:
        text = stabilize_doc.read_text()
        for term in (
            "RepairableProgram",
            "ColoringRepair",
            "MISRepair",
            "stabilization_run",
            "CorruptSpec",
            "CORRUPT_KINDS",
            "detection_latency",
            "recovery_rounds",
            "chaos_soak",
            "minimize_plan",
            "repro chaos",
            "--check",
            "RECOVERY_MODES",
            "checkpoint_every",
            "rollback",
            "BENCH_chaos.json",
        ):
            if term not in text:
                problems.append(
                    f"docs/stabilize.md: {term!r} is never mentioned (the "
                    "self-stabilization surface must stay documented)"
                )

    gather_doc = root / "docs" / "gather.md"
    if not gather_doc.is_file():
        problems.append("docs/gather.md: file missing")
    else:
        text = gather_doc.read_text()
        for term in (
            "KnownBall",
            "gather_balls",
            "BallGatherProgram",
            "DeltaGatherProgram",
            "as_graph",
            "local_view_from_ball",
            "SubtreeTable",
            "DELIVERY_STATUSES",
            "WIRE_STATUSES",
            "radius + 1",
            "bench_network",
            "BENCH_network.json",
            "DeltaGatherKernel",
            'info["executed"]',
            "RunStats",
            "--profile",
            GATHER_KERNEL_TERM,
        ):
            if term not in text:
                problems.append(
                    f"docs/gather.md: {term!r} is never mentioned (the "
                    "ball-gathering contract must stay documented)"
                )

    # 4. every docs page is reachable: linked from the README and from
    # the docs/index.md subsystem map (the index needs only the README)
    index_doc = root / "docs" / "index.md"
    index_text = index_doc.read_text() if index_doc.is_file() else ""
    if not index_doc.is_file():
        problems.append("docs/index.md: file missing")
    readme_text = readme_path.read_text() if readme_path.is_file() else ""
    for page in sorted((root / "docs").glob("*.md")):
        name = page.name
        if f"docs/{name}" not in readme_text:
            problems.append(
                f"README.md: docs page 'docs/{name}' is never linked"
            )
        if name != "index.md" and index_text and f"({name})" not in index_text:
            problems.append(
                f"docs/index.md: docs page {name!r} is missing from the "
                "subsystem map"
            )
    if index_text:
        rows = [line for line in index_text.splitlines() if line.startswith("|")]
        for entry, accepted in EPSILON_RANGES.items():
            if not any(f"`{entry}`" in row and accepted in row for row in rows):
                problems.append(
                    f"docs/index.md: the accepted-epsilon table has no row "
                    f"for {entry!r} with {accepted!r}"
                )
        for command in cli_subcommands():
            if not re.search(rf"\b{re.escape(command)}\b", index_text):
                problems.append(
                    f"docs/index.md: CLI subcommand {command!r} is never "
                    "mentioned"
                )

    kernels_doc = root / "docs" / "kernels.md"
    if not kernels_doc.is_file():
        problems.append("docs/kernels.md: file missing")
    else:
        text = kernels_doc.read_text()
        for term in (
            "GraphIndex",
            "graph_index",
            "Graph.version",
            "neighbors_view",
            "bench_kernels",
            "BENCH_kernels.json",
            "Graph.diameter",
            "compute_parent",
            "greedy_distance_k_selection",
            "clique_forest_from_peo",
        ):
            if term not in text:
                problems.append(
                    f"docs/kernels.md: {term!r} is never mentioned (the "
                    "kernel-substrate contract must stay documented)"
                )

    # 5. no page sends readers to a retired experiment path
    pages = [root / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    pages += sorted((root / "docs").glob("*.md"))
    for page in pages:
        if not page.is_file():
            continue
        text = page.read_text()
        if page.parent == root / "docs" and RETIRED_GATHER_TERM in text:
            problems.append(
                f"{page.relative_to(root)}: describes the retired "
                f"{RETIRED_GATHER_TERM!r} gather kernel (it tracks "
                f"{GATHER_KERNEL_TERM} now)"
            )
        for retired in RETIRED_PATHS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired "
                    f"{retired!r} (experiments live in repro.runner)"
                )
        for retired in RETIRED_KERNELS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired kernel "
                    f"{retired!r} (the clique forest comes from "
                    "clique_forest_from_peo)"
                )
        for retired in RETIRED_PEELING_TERMS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired "
                    f"{retired!r} (peel_chordal_graph is the one peeling)"
                )
        for retired in RETIRED_EXECUTOR_TERMS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired "
                    f"{retired!r} (gather_balls dispatches itself)"
                )
        for retired in RETIRED_FALLBACK_TERMS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired "
                    f"{retired!r} (only SyncNetwork seals, traces or faults "
                    "a run)"
                )
        for retired in RETIRED_STOCK_TERMS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired "
                    f"{retired!r} (repro.localmodel.stock is the one catalogue)"
                )

    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="repository root (default: the checkout)")
    args = parser.parse_args(argv)

    problems = check(Path(args.root))
    if problems:
        for problem in problems:
            print(f"docs-check: {problem}", file=sys.stderr)
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-check: EXPERIMENTS.md, DESIGN.md, README.md, and docs/ are "
          "consistent with the code")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
