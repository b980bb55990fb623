"""Per-layer spans installed from outside the program.

The traced pass wraps the public functions the pipeline calls, so no
line of ``src/`` changes.  A wrapper goes on every attribute through
which a caller looks the function up: the defining module, and each
``repro`` module that imported the name with ``from ... import``.  A
method is wrapped on its class.  :meth:`Tracer.restore` puts the
originals back.

Each span records its call count and its *self* time: its duration
minus the time spent in spans it called.  Some spans also record a
count of the work they did (see :data:`SPANS`).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``observe(result, kwargs)`` returns the span's extra counts for one call.
Observer = Callable[[Any, Dict[str, Any]], Dict[str, int]]


@dataclass
class SpanStat:
    """What one span accumulated over a traced pass."""

    calls: int = 0
    self_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    durations_us: List[float] = field(default_factory=list)


def _visited(result: Any, kwargs) -> Dict[str, int]:
    return {"visited": len(result)}


def _accepted(result: Any, kwargs) -> Dict[str, int]:
    return {"accepted": int(bool(result))}


def _view_cliques(result: Any, kwargs) -> Dict[str, int]:
    return {"cliques": len(result.forest)}


def _joined(result: Any, kwargs) -> Dict[str, int]:
    return {"joined": int(bool(result))}


def _gather(result: Any, kwargs) -> Dict[str, int]:
    balls, _rounds = result
    return {
        "ball_vertices": sum(len(ball.states) for ball in balls.values()),
        "fallbacks": int(kwargs["info"].get("executed") != "batch"),
    }


#: (defining module, attribute path, observer, the counts it returns).
#: The span name is the module without its ``repro.`` prefix, a dot, and
#: the attribute path.
SPANS: Tuple[Tuple[str, str, Optional[Observer], Tuple[str, ...]], ...] = (
    ("repro.graphs.io", "from_edge_list", None, ()),
    ("repro.graphs.index", "graph_index", None, ()),
    ("repro.graphs.adjacency", "Graph.bfs_distances", _visited, ("visited",)),
    ("repro.graphs.adjacency", "Graph.diameter", None, ()),
    ("repro.graphs.chordal", "is_chordal", None, ()),
    ("repro.graphs.chordal", "clique_number", None, ()),
    ("repro.graphs.chordal", "maximal_cliques", None, ()),
    ("repro.cliquetree.forest", "build_clique_forest", None, ()),
    ("repro.cliquetree.paths", "path_diameter_at_least", _accepted, ("accepted",)),
    ("repro.cliquetree.local_view", "local_view_from_ball", _view_cliques, ("cliques",)),
    ("repro.cliquetree.spanning", "maximum_weight_spanning_forest", None, ()),
    ("repro.cliquetree.wcig", "wcig_edges_among", None, ()),
    ("repro.coloring.prune", "peel_chordal_graph", None, ()),
    ("repro.coloring.chordal_mvc", "color_chordal_graph", None, ()),
    ("repro.coloring.chordal_mvc", "correct_path_colors", None, ()),
    ("repro.coloring.chordal_mvc", "conflict_boundary", None, ()),
    ("repro.coloring.interval_coloring", "color_interval_component", None, ()),
    ("repro.coloring.distributed_mvc", "compute_parent", None, ()),
    ("repro.coloring.distributed_mvc", "local_layer_decision_from_ball", _joined, ("joined",)),
    ("repro.localmodel.gather", "gather_balls", _gather, ("ball_vertices", "fallbacks")),
    ("repro.localmodel.rulingset", "greedy_distance_k_selection", None, ()),
    ("repro.mis.chordal_mis", "chordal_mis", None, ()),
    ("repro.mis.interval_mis", "interval_mis", None, ()),
    ("repro.mis.absorbing", "absorbing_mis", None, ()),
    ("repro.mis.exact", "independence_number_chordal", None, ()),
)

#: Spans whose per-call durations are summarized as p50/p95.
LATENCY_SPANS = ("coloring.distributed_mvc.local_layer_decision_from_ball",)


def span_name(module: str, attr: str) -> str:
    return f"{module[len('repro.'):]}.{attr}"


class Tracer:
    """Installs the span wrappers and collects their statistics."""

    def __init__(self) -> None:
        self.stats = {span_name(module, attr): SpanStat() for module, attr, _, _ in SPANS}
        self._child_time: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every span; imports each defining module first."""
        for module_name, attr, observe, _ in SPANS:
            module = importlib.import_module(module_name)
            owner_path, _, leaf = attr.rpartition(".")
            owner: Any = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(span_name(module_name, attr), original, observe)
            if owner is module:
                self._patch_aliases(original, wrapper)
            else:
                self._patch(owner, leaf, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_aliases(self, original: Any, wrapper: Any) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        stat = self.stats[name]
        child_time = self._child_time
        timed = name in LATENCY_SPANS
        # the gather reports whether it left the batch kernel only into ``info``
        wants_info = name == "localmodel.gather.gather_balls"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if wants_info and kwargs.get("info") is None:
                kwargs["info"] = {}
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - inner
            if timed:
                stat.durations_us.append(elapsed * 1e6)
            if observe is not None:
                for key, amount in observe(result, kwargs).items():
                    stat.counts[key] = stat.counts.get(key, 0) + amount
            return result

        return span

    def metrics(self, n: int, root_s: float) -> Dict[str, float]:
        """Flat per-layer metrics for a pass whose traced region took ``root_s``."""
        out: Dict[str, float] = {}
        for module, attr, _, keys in SPANS:
            name = span_name(module, attr)
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            for key in keys:
                out[f"{name}.{key}"] = stat.counts.get(key, 0)
            if name in LATENCY_SPANS:
                p50, p95 = percentiles(stat.durations_us)
                out[f"{name}.p50_us"] = p50
                out[f"{name}.p95_us"] = p95
        calls = self.stats["graphs.chordal.maximal_cliques"].calls
        out["cliquetree.local_view.phi_per_vertex"] = calls / n
        total_self = sum(stat.self_s for stat in self.stats.values())
        out["trace.leftover_frac"] = 1.0 - total_self / root_s
        return out


def percentiles(values: List[float]) -> Tuple[float, float]:
    """(p50, p95) of ``values``; zeros when there are none."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return statistics.median(values), cuts[18]
