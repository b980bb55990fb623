"""The four pipeline workloads: instance, entry point, checks, spans.

Each workload draws one graph *shape* with :mod:`repro.graphs.generators`
(always with :data:`SHAPE_SEED`) and the benchmark seed then relabels its
vertices by a permutation of ``0..n-1`` drawn from the seed.  Labels are
the paper's node IDs: they decide every tie-break (clique order,
parents, Kruskal ties, which nodes are sampled), so each seed is a
different input.  The shape stays fixed because the amount of work
depends on it far more than on the labels: across ten seeds of
``random_chordal_graph(200)`` the decision pass took 2.8 to 11.9 s on a
2-core x86-64 VM, which no 10% regression bound can sit on.

A workload runs one user-visible entry point on the parsed graph, and
checks the output without timing the check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coloring import distributed_mvc
from repro.coloring.parameters import ColoringParameters
from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.graphs import generators
from repro.graphs.adjacency import Graph
from repro.localmodel import gather
from repro.mis import distributed_mis
from repro.mis.exact import independence_number_chordal
from repro.verify import verify_coloring_run, verify_mis_run

#: the generator seed of every workload's shape
SHAPE_SEED = 0

#: every pass parses and indexes its graph (``repro color FILE``)
SETUP_SPANS = ("graphs.io.from_edge_list", "graphs.index.graph_index")

#: the D1 constants: Algorithm 3 at k = 1, threshold 3, radius 10
D1_PARAMS = ColoringParameters.paper_constants(1)

#: how many nodes of the path decide from their gathered ball
D1_SAMPLE = 64


class CheckFailed(Exception):
    """A pass produced an output that fails its workload's check."""


def shuffled(n: int, seed: int) -> List[int]:
    """A uniformly random permutation of ``0..n-1``."""
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    return labels


def rotated(n: int, seed: int) -> List[int]:
    """``0..n-1`` cyclically shifted by a random amount.

    On a path this moves where the sampled vertices sit and keeps the
    labels in path order.  Shuffled labels would scatter every
    neighbourhood over the graph index, and the gather then ran about
    three times slower: a different workload from the D1 cell.
    """
    shift = random.Random(seed).randrange(n)
    return [(i + shift) % n for i in range(n)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``shape(n)`` draws the unlabeled instance.  ``run(graph)`` is the
    timed entry point and returns ``(output, rounds)``;
    ``check(graph, output)`` raises :class:`CheckFailed` on a wrong
    output and otherwise returns the approximation ratio, or ``None``
    where the workload has none.  ``spans`` must all fire in a traced
    pass.
    """

    name: str
    why: str
    n: int
    quick_n: int
    shape: Callable[[int], Graph]
    run: Callable[[Graph], Tuple[Any, int]]
    check: Callable[[Graph, Any], Optional[float]]
    spans: Tuple[str, ...]
    labels: Callable[[int, int], List[int]] = shuffled

    def instance(self, n: int, seed: int) -> Graph:
        """The shape on ``n`` vertices, relabeled by the seed's permutation."""
        graph = self.shape(n)
        relabel = dict(zip(graph.vertices(), self.labels(len(graph), seed)))
        return Graph(
            vertices=relabel.values(),
            edges=[(relabel[u], relabel[v]) for u, v in graph.edges()],
        )


def _raise_failures(verification: Any) -> None:
    failures = verification.failures()
    if failures:
        raise CheckFailed("; ".join(f"{c.name}: {c.detail}" for c in failures))


def _run_color(graph: Graph) -> Tuple[Any, int]:
    report = distributed_mvc.distributed_color_chordal(graph, epsilon=0.5)
    return report, report.total_rounds


def _check_color(graph: Graph, report: Any) -> Optional[float]:
    _raise_failures(verify_coloring_run(graph, report.result))
    return report.num_colors() / report.result.chi


def _run_mis(graph: Graph) -> Tuple[Any, int]:
    report = distributed_mis.distributed_chordal_mis(graph, 0.4)
    return report, report.total_rounds


def _check_mis(graph: Graph, report: Any) -> Optional[float]:
    _raise_failures(verify_mis_run(graph, report.result))
    return independence_number_chordal(graph) / report.size()


def _run_decide(graph: Graph) -> Tuple[Any, int]:
    return distributed_mvc.message_level_layer_decisions(graph, D1_PARAMS)


def _check_decide(graph: Graph, decisions: Dict) -> Optional[float]:
    peeling = peel_chordal_graph(graph, diameter_rule(D1_PARAMS.internal_threshold))
    layer = peeling.nodes_of_layer(1)
    wrong = [v for v in graph.vertices() if decisions[v] != (v in layer)]
    if wrong:
        raise CheckFailed(f"{len(wrong)} decisions differ from layer 1, e.g. {wrong[0]}")
    return None


def d1_sample(graph: Graph) -> List:
    """``D1_SAMPLE`` evenly spaced vertices, as the D1 cell picks them."""
    verts = graph.vertices()
    return verts[:: max(1, len(verts) // D1_SAMPLE)][:D1_SAMPLE]


def _run_d1(graph: Graph) -> Tuple[Any, int]:
    balls, rounds = gather.gather_balls(graph, D1_PARAMS.collect_radius)
    decide = distributed_mvc.local_layer_decision_from_ball
    return {v: decide(balls[v], D1_PARAMS) for v in d1_sample(graph)}, rounds


def _check_d1(graph: Graph, decisions: Dict) -> Optional[float]:
    if len(decisions) != min(D1_SAMPLE, len(graph)):
        raise CheckFailed(f"{len(decisions)} sampled decisions")
    for v, joined in decisions.items():
        if joined != distributed_mvc.local_layer_decision(graph, v, D1_PARAMS):
            raise CheckFailed(f"decision of {v} differs from the global rule")
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="color-ktree",
            why="distributed coloring of a random 3-tree at eps=0.5: "
            "parent BFS and the clique forest dominate; no gather",
            n=2000,
            quick_n=300,
            shape=lambda n: generators.random_k_tree(n, 3, SHAPE_SEED),
            run=_run_color,
            check=_check_color,
            spans=SETUP_SPANS + (
                "coloring.distributed_mvc.compute_parent",
                "graphs.adjacency.Graph.bfs_distances",
                "cliquetree.forest.build_clique_forest",
                "cliquetree.paths.path_diameter_at_least",
                "coloring.chordal_mvc.color_chordal_graph",
                "coloring.chordal_mvc.correct_path_colors",
                "coloring.chordal_mvc.conflict_boundary",
                "coloring.interval_coloring.color_interval_component",
                "coloring.prune.peel_chordal_graph",
                "graphs.chordal.is_chordal",
                "graphs.chordal.clique_number",
            ),
        ),
        Workload(
            name="mis-interval",
            why="distributed MIS of a unit-interval chain at eps=0.4: one "
            "long component, so Algorithm 5's diameter BFS dominates",
            n=2500,
            quick_n=2200,
            shape=lambda n: generators.unit_interval_chain(n, SHAPE_SEED),
            run=_run_mis,
            check=_check_mis,
            spans=SETUP_SPANS + (
                "mis.chordal_mis.chordal_mis",
                "mis.interval_mis.interval_mis",
                "graphs.adjacency.Graph.diameter",
                "localmodel.rulingset.greedy_distance_k_selection",
                "mis.exact.independence_number_chordal",
                "cliquetree.forest.build_clique_forest",
                "coloring.prune.peel_chordal_graph",
            ),
        ),
        Workload(
            name="decide-chordal",
            why="radius-10 layer decisions on every node of a random "
            "chordal graph: local-view rebuilds dominate, gather is small",
            n=120,
            quick_n=60,
            shape=lambda n: generators.random_chordal_graph(n, SHAPE_SEED),
            run=_run_decide,
            check=_check_decide,
            spans=SETUP_SPANS + (
                "localmodel.gather.gather_balls",
                "coloring.distributed_mvc.local_layer_decision_from_ball",
                "cliquetree.local_view.local_view_from_ball",
                "graphs.chordal.maximal_cliques",
                "cliquetree.spanning.maximum_weight_spanning_forest",
                "cliquetree.wcig.wcig_edges_among",
            ),
        ),
        Workload(
            name="d1-path",
            why="radius-10 ball gather on a long path plus 64 sampled "
            "decisions (a D1 cell): the batch gather kernel dominates",
            n=50000,
            quick_n=2000,
            shape=generators.path_graph,
            labels=rotated,
            run=_run_d1,
            check=_check_d1,
            spans=SETUP_SPANS + (
                "localmodel.gather.gather_balls",
                "coloring.distributed_mvc.local_layer_decision_from_ball",
                "cliquetree.local_view.local_view_from_ball",
                "graphs.chordal.maximal_cliques",
            ),
        ),
    )
}
