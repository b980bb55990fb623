"""Bandwidth certificates: from dataflow facts to CONGEST-readiness claims.

:mod:`repro.lint.dataflow` reduces every ``NodeProgram`` subclass to a
small fact base -- payload sites with abstract sizes, cross-round
accumulators, round horizons, order hazards.  This module turns those
facts into two consumer-facing artifacts:

* a :class:`BandwidthCertificate` per program, classifying its per-round
  message size as ``const`` (O(1) words / opaque forwarding), ``ball``
  (accumulated state bounded by a round horizon -- the Konrad-Zamaraev
  ``Gamma^r(v)`` gathering shape), ``unbounded`` (accumulated state
  re-broadcast with no horizon), or ``silent`` (never sends);

* :class:`~repro.lint.findings.Finding` objects for the three bandwidth
  rules --

  L7  unbounded payload growth: an accumulator reaches the wire with no
      round horizon bounding the flood;
  L8  ball-radius leak: the program declares a ``radius`` attribute but
      ships accumulated state past it (no horizon, or a horizon keyed to
      a different attribute -- the payload then encodes state older than
      the declared radius);
  L9  schedule dependence: message or output content derived from set /
      dict-view iteration order (``next(iter(..))``, ``list()`` over a
      set or inbox view, ``set.pop()``) or from float-literal equality.
      The dynamic counterpart is the shadow-execution checker in
      :mod:`repro.localmodel.shadow`, which permutes inbox iteration
      order and diffs transcripts.

The certificate is sound in one direction only: ``static class >=
observed growth class``.  The test suite cross-validates this against
:class:`~repro.localmodel.meter.MessageMeter` measurements -- a program
certified ``const`` must measure flat payloads across ``n``, and a
program that measures growing payloads must be certified ``ball`` or
worse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .dataflow import (
    ACC,
    MSG,
    WORD,
    ClassDataflow,
    ModuleLike,
    analyze_dataflow,
)
from .findings import Finding

__all__ = [
    "BandwidthCertificate",
    "CLASS_ORDER",
    "certify",
    "certificates_for_modules",
    "bandwidth_findings",
    "format_certificates_text",
    "format_certificates_json",
]

#: Growth classes, weakest claim first.  ``observed_class_index`` from the
#: meter must never exceed the static index for shipped programs.
CLASS_ORDER: Tuple[str, ...] = ("silent", "const", "ball", "unbounded")


@dataclass(frozen=True)
class BandwidthCertificate:
    """The per-program result of the static bandwidth pass."""

    program: str
    path: str
    line: int
    message_class: str  # one of CLASS_ORDER
    horizon: Optional[str]  # bounding attribute for the ``ball`` class
    payloads: Tuple[str, ...]  # human-readable payload descriptions
    accumulators: Tuple[str, ...]  # attributes that grow across rounds
    hazards: int  # count of L9 order hazards
    assumptions: Tuple[str, ...]  # compositional caveats (e.g. forwarding)

    @property
    def class_index(self) -> int:
        return CLASS_ORDER.index(self.message_class)


def certify(df: ClassDataflow) -> BandwidthCertificate:
    """Classify one program's dataflow facts."""
    assumptions: List[str] = []
    horizon: Optional[str] = None

    if not df.sends:
        message_class = "silent"
    else:
        acc_sites = [s for s in df.payload_sites if s.size == ACC]
        if not acc_sites:
            message_class = "const"
            if any(s.size == MSG for s in df.payload_sites):
                assumptions.append(
                    "forwards received payloads opaquely; O(1) words only if "
                    "every upstream sender is O(1) words"
                )
        else:
            bounded = [s for s in acc_sites if s.bounded_by is not None]
            if len(bounded) == len(acc_sites):
                message_class = "ball"
                horizon = bounded[0].bounded_by
                assumptions.append(
                    f"payload is the accumulated ball up to round "
                    f"self.{horizon}; size is O(|ball(horizon)|) words"
                )
            else:
                message_class = "unbounded"

    payloads = tuple(
        f"{s.description} [{_size_word(s.size)}"
        + (f", bounded by self.{s.bounded_by}" if s.bounded_by else "")
        + "]"
        for s in df.payload_sites
    )
    accumulators = tuple(sorted(df.accumulators))
    return BandwidthCertificate(
        program=df.name,
        path=df.path,
        line=df.line,
        message_class=message_class,
        horizon=horizon,
        payloads=payloads,
        accumulators=accumulators,
        hazards=len(df.order_hazards),
        assumptions=tuple(assumptions),
    )


def _size_word(size: int) -> str:
    return {WORD: "O(1) words", MSG: "forwarded message", ACC: "accumulated"}[size]


def certificates_for_modules(
    modules: Sequence[ModuleLike],
) -> List[BandwidthCertificate]:
    """One certificate per NodeProgram subclass under ``modules``."""
    certs = [certify(df) for df in analyze_dataflow(modules)]
    certs.sort(key=lambda c: (c.path, c.line))
    return certs


# ---------------------------------------------------------------------------
# findings (rules L7 / L8 / L9)
# ---------------------------------------------------------------------------

def bandwidth_findings(modules: Sequence[ModuleLike]) -> List[Finding]:
    """L7/L8/L9 findings for every NodeProgram subclass under ``modules``.

    Suppression state is read from each module's ``suppressions``
    attribute when present (the analyzer's ``_ModuleInfo`` carries one);
    modules without it produce unsuppressed findings.
    """
    by_path: Dict[str, ModuleLike] = {info.path: info for info in modules}
    findings: List[Finding] = []
    for df in analyze_dataflow(modules):
        suppressions = getattr(by_path.get(df.path), "suppressions", None)

        def emit(rule: str, line: int, col: int, message: str, method: str = "") -> None:
            symbol = f"{df.name}.{method}" if method else df.name
            suppressed = (
                suppressions.is_suppressed(rule, line)
                if suppressions is not None
                else False
            )
            findings.append(
                Finding(
                    rule=rule,
                    path=df.path,
                    line=line,
                    col=col,
                    message=message,
                    symbol=symbol,
                    suppressed=suppressed,
                )
            )

        acc_sites = [s for s in df.payload_sites if s.size == ACC]
        unbounded = [s for s in acc_sites if s.bounded_by is None]
        inbox_accs = sorted(
            a.attr for a in df.accumulators.values() if a.inbox_fed
        )

        for site in unbounded:
            if df.declares_radius:
                emit(
                    "L8",
                    site.line,
                    site.col,
                    f"payload {site.description!r} ships accumulated state "
                    f"({', '.join(inbox_accs) or 'inbox capture'}) with no "
                    "round horizon, but the program declares a radius -- the "
                    "message encodes state older than the declared radius; "
                    "guard the broadcast with a ctx.round_number cutoff on "
                    "self.radius",
                    method="step",
                )
            else:
                emit(
                    "L7",
                    site.line,
                    site.col,
                    f"payload {site.description!r} re-broadcasts accumulated "
                    f"state ({', '.join(inbox_accs) or 'inbox capture'}) with "
                    "no round horizon; per-round message size grows without "
                    "bound -- bound the flood with a ctx.round_number cutoff "
                    "or ship an O(1)-word digest",
                    method="step",
                )
        if df.declares_radius:
            for site in acc_sites:
                if site.bounded_by is not None and site.bounded_by != "radius":
                    emit(
                        "L8",
                        site.line,
                        site.col,
                        f"payload {site.description!r} is bounded by "
                        f"self.{site.bounded_by}, not the declared "
                        "self.radius -- the ball shipped on the wire can "
                        "encode state older than the declared radius",
                        method="step",
                    )

        for hazard in df.order_hazards:
            emit(
                "L9",
                hazard.line,
                hazard.col,
                f"schedule-dependent value: {hazard.description}; run "
                "`repro lint --sanitize` to check whether outputs and "
                "transcripts actually diverge under permuted inbox order",
                method=hazard.method,
            )
    return findings


# ---------------------------------------------------------------------------
# rendering (``repro lint --congest``)
# ---------------------------------------------------------------------------

def format_certificates_text(certs: Sequence[BandwidthCertificate]) -> str:
    if not certs:
        return "no NodeProgram subclasses found\n"
    rows = [("program", "class", "horizon", "accumulators", "L9 hazards")]
    for cert in certs:
        rows.append(
            (
                cert.program,
                cert.message_class,
                f"self.{cert.horizon}" if cert.horizon else "-",
                ", ".join(cert.accumulators) or "-",
                str(cert.hazards) if cert.hazards else "-",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    for cert in certs:
        for note in cert.assumptions:
            lines.append(f"note [{cert.program}]: {note}")
    return "\n".join(lines) + "\n"


def format_certificates_json(certs: Sequence[BandwidthCertificate]) -> str:
    payload = {
        "certificates": [
            {
                "program": c.program,
                "path": c.path,
                "line": c.line,
                "class": c.message_class,
                "horizon": c.horizon,
                "payloads": list(c.payloads),
                "accumulators": list(c.accumulators),
                "order_hazards": c.hazards,
                "assumptions": list(c.assumptions),
            }
            for c in certs
        ],
        "class_order": list(CLASS_ORDER),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
