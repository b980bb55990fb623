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
  sets, ``bench_network`` / ``BENCH_network.json``);
* ``docs/executor.md`` must exist and document the whole-round batch
  executor (``BatchExecutor``, ``BatchKernel``, ``KernelIneligible``,
  the three stock kernels, the blockers that select the per-node path
  including ``sealed=True``, and the ``fallback_reason`` that records
  the selection);
* no page names a retired experiment path (:data:`RETIRED_PATHS`):
  experiments live only in ``repro.runner``.

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
        for command in cli_subcommands():
            if not re.search(rf"\b{re.escape(command)}\b", index_text):
                problems.append(
                    f"docs/index.md: CLI subcommand {command!r} is never "
                    "mentioned"
                )

    executor_doc = root / "docs" / "executor.md"
    if not executor_doc.is_file():
        problems.append("docs/executor.md: file missing")
    else:
        text = executor_doc.read_text()
        for term in (
            "BatchExecutor",
            "BatchKernel",
            "KernelIneligible",
            "DeltaGatherKernel",
            "BFSLayerKernel",
            "LinialPathKernel",
            "batch_kernel",
            "sealed=True",
            "FaultPlan",
            "fallback_reason",
            "--profile",
            "RunStats",
            "bench_network",
            "BENCH_network.json",
        ):
            if term not in text:
                problems.append(
                    f"docs/executor.md: {term!r} is never mentioned (the "
                    "batch-executor contract must stay documented)"
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
        for retired in RETIRED_PATHS:
            if retired in text:
                problems.append(
                    f"{page.relative_to(root)}: names the retired "
                    f"{retired!r} (experiments live in repro.runner)"
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
