"""LOCAL-model conformance checking for node programs.

Round counts in this repository are only meaningful if every
:class:`~repro.localmodel.network.NodeProgram` plays by the LOCAL-model
rules: no access to global graph state, no state shared between node
instances, no hidden nondeterminism, no reading beyond the declared
neighborhood, no mutation of delivered messages.  This package checks
that contract statically:

* :mod:`repro.lint.rules` -- the rule set L1-L10 and its rationale;
* :mod:`repro.lint.analyzer` -- the AST analysis (NodeProgram subclass
  closure + per-method visitors, rules L1-L6 and L10);
* :mod:`repro.lint.dataflow` -- interprocedural message-size abstract
  interpretation (the WORD < MSG < ACC lattice);
* :mod:`repro.lint.bandwidth` -- bandwidth certificates (``const`` /
  ``ball`` / ``unbounded`` per program) and rules L7-L9;
* :mod:`repro.lint.findings` -- findings and text/JSON rendering;
* :mod:`repro.lint.suppressions` -- ``# repro-lint: disable=...`` comments;
* :mod:`repro.lint.cli` -- ``python -m repro.lint`` / ``repro lint``.

The dynamic counterparts live in :mod:`repro.localmodel`: sealed-context
mode (``sealed=True``) enforces L4/L5 at runtime, the
:class:`~repro.localmodel.meter.MessageMeter` sink measures what L7/L8
bound statically, and the shadow-execution checker
(:func:`~repro.localmodel.shadow.shadow_check`, ``repro lint
--sanitize``) is the dynamic face of L9, and the repair envelope
(:class:`~repro.localmodel.stabilize.RepairableProgram`) is the
sanctioned form of what L10 forbids; ``tests/lint`` cross-validates
static against dynamic on deliberately cheating programs.
"""

from .analyzer import (
    NODE_PROGRAM_ROOT,
    active_findings,
    analyze_modules,
    analyze_paths,
    analyze_source,
    iter_python_files,
    load_modules,
)
from .bandwidth import (
    CLASS_ORDER,
    BandwidthCertificate,
    bandwidth_findings,
    certificates_for_modules,
    certify,
    format_certificates_json,
    format_certificates_text,
)
from .cli import default_paths, main, run_lint
from .dataflow import ACC, MSG, WORD, ClassDataflow, analyze_dataflow
from .findings import Finding, format_json, format_text, sort_findings
from .rules import ALL_RULE_CODES, RULES, Rule, normalize_codes
from .suppressions import Suppressions, parse_suppressions

__all__ = [
    "NODE_PROGRAM_ROOT",
    "active_findings",
    "analyze_modules",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "load_modules",
    "CLASS_ORDER",
    "BandwidthCertificate",
    "bandwidth_findings",
    "certificates_for_modules",
    "certify",
    "format_certificates_json",
    "format_certificates_text",
    "default_paths",
    "main",
    "run_lint",
    "ACC",
    "MSG",
    "WORD",
    "ClassDataflow",
    "analyze_dataflow",
    "Finding",
    "format_json",
    "format_text",
    "sort_findings",
    "ALL_RULE_CODES",
    "RULES",
    "Rule",
    "normalize_codes",
    "Suppressions",
    "parse_suppressions",
]
