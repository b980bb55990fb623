"""The paper's coloring pipeline (Sections 4 and 5).

* :mod:`repro.coloring.parameters` -- every distance/palette constant;
* :mod:`repro.coloring.decomposition` -- clique path decompositions;
* :mod:`repro.coloring.greedy` -- PEO greedy and boundary-aware greedy;
* :mod:`repro.coloring.extension` -- the constructive recoloring lemma;
* :mod:`repro.coloring.interval_coloring` -- ColIntGraph [21];
* :mod:`repro.coloring.prune` -- the peeling process (shared with MIS);
* :mod:`repro.coloring.chordal_mvc` -- Algorithm 1 (centralized);
* :mod:`repro.coloring.distributed_mvc` -- Algorithms 2-4 (distributed).
"""

from .chordal_mvc import (
    ChordalColoringResult,
    color_chordal_graph,
    conflict_boundary,
    correct_path_colors,
)
from .decomposition import PathBags
from .distributed_mvc import (
    DistributedColoringReport,
    compute_parent,
    distributed_color_chordal,
    local_layer_decision,
    local_layer_decision_from_ball,
    message_level_layer_decisions,
)
from .extension import MorphError, extend_path_coloring
from .greedy import PaletteExhaustedError, peo_greedy_coloring, preference_greedy
from .interval_coloring import (
    IntervalColoringResult,
    col_int_graph,
    color_interval_component,
)
from .parameters import (
    ColoringParameters,
    morph_cut_budget,
    required_morph_distance,
)
from .prune import (
    PeeledPath,
    Peeling,
    diameter_rule,
    peel_chordal_graph,
)

__all__ = [
    "ChordalColoringResult",
    "color_chordal_graph",
    "conflict_boundary",
    "correct_path_colors",
    "PathBags",
    "DistributedColoringReport",
    "compute_parent",
    "distributed_color_chordal",
    "local_layer_decision",
    "local_layer_decision_from_ball",
    "message_level_layer_decisions",
    "MorphError",
    "extend_path_coloring",
    "PaletteExhaustedError",
    "peo_greedy_coloring",
    "preference_greedy",
    "IntervalColoringResult",
    "col_int_graph",
    "color_interval_component",
    "ColoringParameters",
    "morph_cut_budget",
    "required_morph_distance",
    "PeeledPath",
    "Peeling",
    "diameter_rule",
    "peel_chordal_graph",
]
