"""LOCAL-model simulation: message passing, ball gathering, round accounting.

* :mod:`repro.localmodel.network` -- synchronous message-passing engine
  (:class:`SyncNetwork`) driving per-node :class:`NodeProgram` instances,
  with active-set scheduling and pluggable :class:`TraceSink` observers.
* :mod:`repro.localmodel.trace` -- the stock sinks (recording with its
  timeline, metrics, JSONL export).
* :mod:`repro.localmodel.gather` -- ball gathering, the executable
  witness of the "r rounds = radius-r knowledge" equivalence: the
  whole-round delta kernel :func:`gather_balls` runs, the per-node
  delta program it is equivalence-tested against, and the full-flood
  program.
* :mod:`repro.localmodel.rounds` -- per-node completion clocks
  (:class:`NodeClocks`) the layered algorithms use to account rounds
  under that equivalence.
* :mod:`repro.localmodel.colorreduction` -- Linial/Cole-Vishkin O(log* n)
  3-coloring of paths, both lock-step and message-passing.
* :mod:`repro.localmodel.rulingset` -- distance-k selections on paths and
  ordered structures, with the round-cost model for the paper's black-box
  subroutines.
* :mod:`repro.localmodel.sealed` -- sealed execution contexts: runtime
  enforcement of the LOCAL contract (the dynamic counterpart of the
  :mod:`repro.lint` static rules), enabled with ``SyncNetwork(...,
  sealed=True)``.
* :mod:`repro.localmodel.meter` -- :class:`MessageMeter`, a trace sink
  measuring serialized payload sizes per round (the dynamic counterpart
  of the static bandwidth certificates, lint rules L7/L8).
* :mod:`repro.localmodel.shadow` -- shadow-execution determinism checker:
  re-runs a program with permuted inbox iteration order and diffs
  transcripts and outputs (the dynamic counterpart of lint rule L9).
* :mod:`repro.localmodel.faults` -- deterministic fault injection:
  seeded :class:`FaultPlan`\\ s (drop / duplicate / delay / burst /
  crash) consulted by ``SyncNetwork(..., faults=...)`` at delivery time,
  plus transient state corruption (:class:`CorruptSpec`) applied
  strictly between rounds.
* :mod:`repro.localmodel.resilience` -- the robustness harness: validity
  monitors (now with the stabilization profile: corruption round,
  detection latency, recovery rounds), the :class:`ReliableProgram`
  retry/ack wrapper, and the :func:`resilience_check` sweep classifying
  programs as self-healing / degraded-but-valid / unsafe (the ``repro
  faults`` CLI).
* :mod:`repro.localmodel.stabilize` -- self-stabilizing repair: the
  :class:`RepairableProgram` envelope verifies committed outputs against
  the cached 1-ball and re-enters a bounded repair protocol after state
  corruption (priority recoloring, MIS re-election); see
  docs/stabilize.md.
* :mod:`repro.localmodel.chaos` -- the chaos-soak harness: seeded
  randomized fault plans fuzzed over the stock suite, failing plans
  delta-debugged to minimal deterministic repro specs (``repro chaos``).
* :mod:`repro.localmodel.stock` -- the catalogue of the eight stock
  programs (class, graph family, validator kind, builder) every harness
  builds them from.  Import it directly: ``import repro.localmodel``
  does not load it.
"""

from .colorreduction import (
    LINIAL_FIXPOINT,
    LinialPathProgram,
    linial_new_color,
    linial_parameters,
    three_color_path,
)
from .chaos import (
    ChaosReport,
    ChaosTrial,
    chaos_soak,
    minimize_plan,
    random_fault_plan,
)
from .faults import (
    CORRUPT_KINDS,
    MESSAGE_STATUSES,
    CorruptSpec,
    CrashSpec,
    FaultPlan,
    FaultPlanError,
    FaultRuntime,
    corrupt_program,
)
from .gather import (
    BallGatherProgram,
    DeltaGatherKernel,
    DeltaGatherProgram,
    KnownBall,
    gather_balls,
)
from .network import (
    DELIVERY_STATUSES,
    RECOVERY_MODES,
    WIRE_STATUSES,
    MessageRecord,
    NodeContext,
    NodeProgram,
    RunStats,
    SealedNodeContext,
    SyncNetwork,
    TraceSink,
    vertex_key,
)
from .programs import (
    BFSLayerProgram,
    EchoCountProgram,
    LeaderElectionProgram,
    bfs_layers,
    elect_leader,
    tree_count,
)
from .meter import MessageMeter, payload_bytes, payload_words
from .rounds import NodeClocks
from .resilience import (
    CLASSIFICATIONS,
    DEFAULT_FAULT_GRID,
    FaultOutcome,
    ReliableProgram,
    ResilienceReport,
    ValidityMonitor,
    fault_grid,
    independent_set_validator,
    maximal_independent_set_validator,
    proper_coloring_validator,
    resilience_check,
    run_validated,
    stock_validator,
    with_retries,
)
from .stabilize import (
    ColoringRepair,
    MISRepair,
    RepairPolicy,
    RepairableProgram,
    StabilizationReport,
    repairable,
    stabilization_run,
)
from .shadow import Divergence, ShadowReport, canonical_transcript, shadow_check
from .trace import (
    JSONLTraceSink,
    MetricsSink,
    RecordingSink,
    RoundTrace,
)
from .sealed import FrozenMessageDict, SealedContextError, SealedInbox, freeze
from .rulingset import (
    charged_rounds_distance_k,
    greedy_distance_k_selection,
    log_star,
    path_spaced_selection,
)

__all__ = [
    "LINIAL_FIXPOINT",
    "LinialPathProgram",
    "linial_new_color",
    "linial_parameters",
    "three_color_path",
    "CORRUPT_KINDS",
    "MESSAGE_STATUSES",
    "ChaosReport",
    "ChaosTrial",
    "CorruptSpec",
    "CrashSpec",
    "FaultPlan",
    "FaultPlanError",
    "FaultRuntime",
    "chaos_soak",
    "corrupt_program",
    "minimize_plan",
    "random_fault_plan",
    "BallGatherProgram",
    "DeltaGatherKernel",
    "DeltaGatherProgram",
    "KnownBall",
    "gather_balls",
    "DELIVERY_STATUSES",
    "RECOVERY_MODES",
    "WIRE_STATUSES",
    "MessageRecord",
    "NodeContext",
    "NodeProgram",
    "RunStats",
    "SealedNodeContext",
    "SyncNetwork",
    "TraceSink",
    "vertex_key",
    "BFSLayerProgram",
    "EchoCountProgram",
    "LeaderElectionProgram",
    "bfs_layers",
    "elect_leader",
    "tree_count",
    "MessageMeter",
    "payload_bytes",
    "payload_words",
    "NodeClocks",
    "CLASSIFICATIONS",
    "DEFAULT_FAULT_GRID",
    "FaultOutcome",
    "ReliableProgram",
    "ResilienceReport",
    "ValidityMonitor",
    "fault_grid",
    "independent_set_validator",
    "maximal_independent_set_validator",
    "proper_coloring_validator",
    "resilience_check",
    "run_validated",
    "stock_validator",
    "with_retries",
    "ColoringRepair",
    "MISRepair",
    "RepairPolicy",
    "RepairableProgram",
    "StabilizationReport",
    "repairable",
    "stabilization_run",
    "Divergence",
    "ShadowReport",
    "canonical_transcript",
    "shadow_check",
    "JSONLTraceSink",
    "MetricsSink",
    "RecordingSink",
    "RoundTrace",
    "FrozenMessageDict",
    "SealedContextError",
    "SealedInbox",
    "freeze",
    "charged_rounds_distance_k",
    "greedy_distance_k_selection",
    "log_star",
    "path_spaced_selection",
]
