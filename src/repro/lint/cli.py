"""``python -m repro.lint`` -- the conformance linter's command line.

Usage::

    python -m repro.lint                      # lint the installed repro package
    python -m repro.lint src/ tests/myprog.py # lint explicit paths
    python -m repro.lint --format=json        # machine-readable report
    python -m repro.lint --select L1,L3       # only some rules
    python -m repro.lint --list-rules         # print the rule set
    python -m repro.lint --congest            # bandwidth certificate table
    python -m repro.lint --sanitize           # shadow-execution determinism run

Exit status: 0 when no active findings, 1 when violations were found,
2 on usage/parse errors.  Inline ``# repro-lint: disable=`` comments are
the one suppression mechanism; stale ones are *warnings* (reported,
never failing).  The same entry point backs the ``repro lint``
subcommand of :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .analyzer import active_findings, analyze_modules, analyze_paths, load_modules
from .bandwidth import (
    certificates_for_modules,
    format_certificates_json,
    format_certificates_text,
)
from .findings import Finding, format_json, format_text
from .rules import ALL_RULE_CODES, RULES, normalize_codes

__all__ = ["main", "build_parser", "default_paths", "run_lint"]


def default_paths() -> List[Path]:
    """The repro package directory itself (lint ourselves by default)."""
    return [Path(__file__).resolve().parent.parent]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="LOCAL-model conformance linter for NodeProgram classes",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default="all",
        help="comma-separated rule codes to enforce (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include findings disabled by repro-lint comments in the report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule set and exit",
    )
    parser.add_argument(
        "--congest",
        action="store_true",
        help="print the per-program bandwidth certificate table instead of "
        "findings (message-size class: const / ball / unbounded / silent)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the shadow-execution determinism suite: every stock "
        "program re-runs with permuted inbox iteration order and its "
        "transcript/outputs are diffed against the baseline run",
    )
    return parser


def run_lint(
    paths: List[Path], select: Optional[str] = None
) -> List[Finding]:
    """Analyze ``paths`` and return findings filtered to ``select`` rules."""
    findings = analyze_paths(paths)
    if select:
        keep = normalize_codes(select)
        findings = [f for f in findings if f.rule in keep]
    return findings


def _stale_suppressions(modules) -> List[Tuple[str, int, str]]:
    """(path, line, rule) for every inline marker that suppressed nothing."""
    out: List[Tuple[str, int, str]] = []
    for info in modules:
        for line, rule in info.suppressions.stale_markers():
            out.append((info.path, line, rule))
    return out


# ---------------------------------------------------------------------------
# the shadow-execution suite (``--sanitize``)
# ---------------------------------------------------------------------------

def _run_sanitize(fmt: str, out) -> int:
    """Shadow-check every stock program on its suite graph.

    Imported lazily: the static linter must stay importable (and fast)
    without pulling in the graph substrate.
    """
    from ..localmodel import shadow_check
    from ..localmodel.stock import stock_suite

    results: List[Dict[str, Any]] = []
    failures = 0
    for name, graph, factory, _validator in stock_suite():
        report = shadow_check(graph, factory)
        results.append(
            {
                "program": name,
                "vertices": len(graph),
                "rounds": report.rounds,
                "seeds": list(report.seeds),
                "deterministic": report.deterministic,
                "divergences": [
                    {
                        "seed": d.seed,
                        "kind": d.kind,
                        "round": d.round_no,
                        "detail": d.detail,
                    }
                    for d in report.divergences
                ],
            }
        )
        if not report.deterministic:
            failures += 1
    if fmt == "json":
        print(
            json.dumps(
                {"programs": results, "failures": failures},
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        for r in results:
            verdict = "ok" if r["deterministic"] else "DIVERGES"
            print(
                f"{r['program']:<10} {verdict:<9} "
                f"({r['vertices']} vertices, {r['rounds']} rounds, "
                f"seeds {r['seeds']})",
                file=out,
            )
            for d in r["divergences"]:
                print(f"  seed {d['seed']} [{d['kind']}]: {d['detail']}", file=out)
        noun = "program" if failures == 1 else "programs"
        print(
            f"{failures} {noun} schedule-dependent out of {len(results)}",
            file=out,
        )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for code in sorted(ALL_RULE_CODES):
            rule = RULES[code]
            print(f"{code}  {rule.name}: {rule.summary}", file=out)
        return 0

    if args.sanitize:
        return _run_sanitize(args.format, out)

    paths = [Path(p) for p in args.paths] or default_paths()
    for path in paths:
        if not path.exists():
            print(f"repro.lint: no such path: {path}", file=sys.stderr)
            return 2

    try:
        modules = load_modules(paths)
        if args.congest:
            certs = certificates_for_modules(modules)
            render_certs = (
                format_certificates_json
                if args.format == "json"
                else format_certificates_text
            )
            out.write(render_certs(certs))
            out.flush()
            return 0
        findings = analyze_modules(modules)
        keep = normalize_codes(args.select) if args.select else ALL_RULE_CODES
        findings = [f for f in findings if f.rule in keep]
    except (ValueError, SyntaxError) as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    stale = _stale_suppressions(modules)

    if args.format == "json":
        data = json.loads(format_json(findings, show_suppressed=args.show_suppressed))
        data["stale_suppressions"] = [
            {"path": p, "line": line, "rule": rule} for p, line, rule in stale
        ]
        rendered = json.dumps(data, indent=2, sort_keys=True)
    else:
        lines = [format_text(findings, show_suppressed=args.show_suppressed)]
        for p, line, rule in stale:
            lines.append(
                f"warning: {p}:{line}: stale suppression of {rule} "
                "(nothing to suppress; delete the marker)"
            )
        rendered = "\n".join(lines)

    try:
        print(rendered, file=out)
        out.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. ``| head``) closed the pipe; the exit
        # status still reports whether violations were found
        sys.stderr.close()
    return 1 if active_findings(findings) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
