"""Findings produced by the conformance analyzer, and their two renderings.

A :class:`Finding` pins a rule violation to ``path:line:col`` plus the
enclosing ``Class.method`` so it is actionable from a terminal or CI log.
Formatting mirrors the two consumers: ``format_text`` for humans (the
``repro lint`` default) and ``format_json`` for tooling, following the
plain-text table idiom of :mod:`repro.analysis.tables` (plain strings,
no third-party dependencies).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from .rules import RULES

__all__ = ["Finding", "format_text", "format_json", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str  # "L1".."L5"
    path: str  # file the violation lives in
    line: int  # 1-based line number
    col: int  # 0-based column, as reported by ast
    message: str  # what exactly is wrong, with the offending symbol named
    symbol: str = ""  # enclosing "Class.method" when known
    suppressed: bool = False  # True when a repro-lint comment disabled it

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "rule_name": RULES[self.rule].name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "suppressed": self.suppressed,
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def format_text(findings: Sequence[Finding], show_suppressed: bool = False) -> str:
    """Human-readable report, one ``path:line:col: CODE [name] message`` line each."""
    lines = []
    active = 0
    for f in sort_findings(findings):
        if f.suppressed and not show_suppressed:
            continue
        tag = " (suppressed)" if f.suppressed else ""
        where = f" (in {f.symbol})" if f.symbol else ""
        lines.append(
            f"{f.location()}: {f.rule} [{RULES[f.rule].name}] {f.message}{where}{tag}"
        )
        if not f.suppressed:
            active += 1
    noun = "finding" if active == 1 else "findings"
    lines.append(f"{active} {noun}")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], show_suppressed: bool = False) -> str:
    """Machine-readable report: findings list plus per-rule summary.

    ``summary.suppressed_count`` counts the findings disabled by
    ``repro-lint`` comments whether or not they are shown, so a JSON
    consumer can tell "this code is clean" (total 0, suppressed_count 0)
    from "every violation here has been waved through" (total 0,
    suppressed_count > 0) without re-running with ``--show-suppressed``.
    """
    shown = [
        f for f in sort_findings(findings) if show_suppressed or not f.suppressed
    ]
    active = [f for f in shown if not f.suppressed]
    suppressed_count = sum(1 for f in findings if f.suppressed)
    by_rule: Dict[str, int] = {}
    for f in active:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return json.dumps(
        {
            "findings": [f.as_dict() for f in shown],
            "summary": {
                "total": len(active),
                "by_rule": by_rule,
                "suppressed_count": suppressed_count,
            },
        },
        indent=2,
        sort_keys=True,
    )
