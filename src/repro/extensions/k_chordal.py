"""Exploring the paper's closing question: graphs with longer induced cycles.

Section 9 asks how to extend the (1 + eps) results beyond chordal graphs,
e.g. to *l-chordal* graphs (every cycle longer than l has a chord; chordal
= 3-chordal).  This module provides the experimental scaffolding for that
question rather than an answer:

* :func:`is_l_chordal` / :func:`longest_induced_cycle` -- bounded search
  for long induced cycles (exponential in the worst case; intended for the
  small instances of the accompanying experiment);
* :func:`chordal_with_handles` -- a seeded generator of l-chordal
  instances: a random chordal base plus a few long "handles" (paths glued
  between distant base vertices), each creating induced cycles of bounded
  length;
* :func:`triangulate_and_color` -- the natural first attack: min-fill
  triangulation followed by Algorithm 1, measuring how far the completion
  pushes the color count above the *true* chromatic number;
* :func:`handle_experiment_rows` -- the sweep behind
  benchmarks/bench_k_chordal.py: as the handle length l grows, the
  triangulation detour degrades, quantifying why the question is open.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..coloring.chordal_mvc import ChordalColoringResult, color_chordal_graph
from ..graphs.adjacency import Graph, Vertex
from ..graphs.chordal import clique_number
from ..graphs.exact import brute_force_chromatic_number
from ..graphs.generators import random_chordal_graph
from ..graphs.triangulation import triangulate

__all__ = [
    "longest_induced_cycle",
    "is_l_chordal",
    "chordal_with_handles",
    "TriangulatedColoring",
    "triangulate_and_color",
    "handle_experiment_rows",
]


def longest_induced_cycle(graph: Graph, cap: int = 12) -> int:
    """Length of the longest induced cycle, searched up to ``cap``.

    Returns 0 for forests.  DFS over induced paths with chord pruning:
    a partial path is extended only by vertices adjacent to its head and
    to no other path vertex; a cycle closes when the new vertex is also
    adjacent to the tail -- and to nothing else on the path.  Exponential
    in general; ``cap`` bounds the search depth.
    """
    best = 0
    vertices = graph.vertices()
    index = {v: i for i, v in enumerate(vertices)}

    def extend(path: List[Vertex], members: Set[Vertex]) -> None:
        nonlocal best
        head, tail = path[-1], path[0]
        for nxt in sorted(graph.neighbors_view(head)):
            if nxt in members:
                continue
            if index[nxt] < index[tail]:
                continue  # canonical start: cycles counted from min vertex
            if len(path) == 1:
                # second cycle vertex: nothing to check yet
                path.append(nxt)
                members.add(nxt)
                extend(path, members)
                members.discard(nxt)
                path.pop()
                continue
            inner = members - {head, tail}
            if graph.neighbors_view(nxt) & inner:
                continue  # chord to the middle: not induced
            if graph.has_edge(nxt, tail):
                # closes an induced cycle path[0] .. head, nxt
                if len(path) + 1 <= cap:
                    best = max(best, len(path) + 1)
                continue  # extending past nxt would leave the chord nxt-tail
            if len(path) < cap:
                path.append(nxt)
                members.add(nxt)
                extend(path, members)
                members.discard(nxt)
                path.pop()

    for start in vertices:
        extend([start], {start})
    return best


def is_l_chordal(graph: Graph, l: int, cap: int = 12) -> bool:
    """No induced cycle longer than l (searched up to ``cap``)."""
    if l < 3:
        raise ValueError("l-chordality needs l >= 3")
    return longest_induced_cycle(graph, cap=max(cap, l + 1)) <= l


def chordal_with_handles(
    n: int,
    handles: int,
    handle_length: int,
    seed: int = 0,
) -> Graph:
    """A chordal base plus ``handles`` glued paths of ``handle_length``.

    Each handle connects the endpoints of a random base *edge* through
    fresh interior vertices, creating an induced cycle of exactly
    handle_length + 1.  The result is l-chordal for moderate l and not
    chordal for handle_length >= 3 (length 2 would close a triangle).
    """
    if handle_length < 3:
        raise ValueError(
            "handles need length >= 3 to create a chordless cycle"
        )
    rng = random.Random(seed)
    g = random_chordal_graph(n, seed=rng.randrange(2**30), tree_size=n)
    nxt = n
    base_edges = g.edges()
    if not base_edges:
        raise ValueError("base graph has no edges to attach handles to")
    for _ in range(handles):
        u, v = base_edges[rng.randrange(len(base_edges))]
        prev = u
        for _ in range(handle_length - 1):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, v)
    return g


@dataclass
class TriangulatedColoring:
    """Outcome of the triangulate-then-color attack on an l-chordal graph."""

    result: ChordalColoringResult
    fill_edges: int
    chi_completion: int
    chi_true: Optional[int]  # exact when the instance is small enough

    @property
    def colors(self) -> int:
        return self.result.num_colors()

    @property
    def detour_ratio(self) -> Optional[float]:
        """colors / true chi: the price of the triangulation detour."""
        if not self.chi_true:
            return None
        return self.colors / self.chi_true


def triangulate_and_color(
    graph: Graph,
    epsilon: float = 0.5,
    exact_chi_guard: int = 28,
) -> TriangulatedColoring:
    """Min-fill completion + Algorithm 1, with the true chi when computable."""
    tri = triangulate(graph)
    result = color_chordal_graph(tri.chordal_graph, epsilon=epsilon)
    chi_true: Optional[int] = None
    if len(graph) <= exact_chi_guard:
        chi_true = brute_force_chromatic_number(
            graph, size_guard=max(40, exact_chi_guard)
        )
    return TriangulatedColoring(
        result=result,
        fill_edges=len(tri.fill_edges),
        chi_completion=clique_number(tri.chordal_graph),
        chi_true=chi_true,
    )


def handle_experiment_rows(
    handle_lengths: Sequence[int] = (3, 5, 7, 9),
    n: int = 20,
    handles: int = 3,
    seeds: Sequence[int] = (0, 1),
    epsilon: float = 0.5,
    exact_chi_guard: int = 45,
) -> List[Tuple]:
    """The l-chordal sweep: detour cost as induced cycles lengthen."""
    rows = []
    for length in handle_lengths:
        worst: Optional[float] = None
        fill = 0
        cycle = 0
        for seed in seeds:
            g = chordal_with_handles(n, handles, length, seed=seed)
            outcome = triangulate_and_color(
                g, epsilon=epsilon, exact_chi_guard=exact_chi_guard
            )
            cycle = max(cycle, longest_induced_cycle(g, cap=length + 6))
            fill = max(fill, outcome.fill_edges)
            ratio = outcome.detour_ratio
            if ratio is not None and (worst is None or ratio > worst):
                worst = ratio
        rows.append((length, cycle, fill, worst))
    return rows
