"""Int-indexed immutable snapshots of a :class:`~repro.graphs.adjacency.Graph`.

The algorithm kernels (:mod:`repro.graphs.kernels`) do not want hashable
vertex labels, per-call set copies, or dict lookups in their inner loops —
they want dense integer ids and CSR adjacency arrays.  :class:`GraphIndex`
is that snapshot:

* ``verts[i]`` is the vertex with id ``i``; ids are assigned in **sorted
  vertex order**, so the id order is order-isomorphic to the label order
  (``i < j  iff  verts[i] < verts[j]``).  Every deterministic tie-break in
  the library compares vertex labels, so kernels can compare plain ints
  and produce byte-identical answers.
* ``vid[v]`` maps a label back to its id.
* ``indptr`` / ``indices`` are the usual CSR pair: the neighbors of id
  ``i`` are ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending.

Snapshots are **immutable** and cached on the graph keyed by its mutation
:attr:`~repro.graphs.adjacency.Graph.version`: :func:`graph_index` returns
the same object until the graph mutates, after which the next call builds
a fresh snapshot.  Building costs O(n log n + m); every kernel that runs
on the snapshot afterwards is O(n + m)-ish, so amortization over even two
queries already wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .adjacency import Graph, Vertex

__all__ = ["GraphIndex", "graph_index"]


class GraphIndex:
    """An immutable CSR snapshot of a graph (see module docstring)."""

    __slots__ = (
        "verts", "vid", "indptr", "indices", "n", "m", "_edge_labels",
        "_degrees",
    )

    def __init__(self, graph: Graph):
        verts: List[Vertex] = graph.vertices()
        n = len(verts)
        vid: Dict[Vertex, int] = {v: i for i, v in enumerate(verts)}
        indptr: List[int] = [0] * (n + 1)
        indices: List[int] = []
        extend = indices.extend
        for i, v in enumerate(verts):
            extend(sorted(vid[u] for u in graph.neighbors_view(v)))
            indptr[i + 1] = len(indices)
        self.verts: Tuple[Vertex, ...] = tuple(verts)
        self.vid = vid
        self.indptr = indptr
        self.indices = indices
        self.n = n
        self.m = len(indices) // 2
        self._edge_labels: Optional[Dict[Tuple[int, int], Tuple[Vertex, Vertex]]] = None
        self._degrees: Optional[List[int]] = None

    @property
    def edge_labels(self) -> Dict[Tuple[int, int], Tuple[Vertex, Vertex]]:
        """Sorted id-pair -> sorted label-pair, one entry per edge.

        Built lazily (O(m)) and cached; consumers translating many
        overlapping edge sets back to labels (e.g. per-node gathered
        balls, where each graph edge reappears in many balls) get a dict
        lookup per edge instead of two list indexings and a fresh tuple.
        Ids are order-isomorphic to labels, so the id-sorted pair maps to
        the label-sorted pair.
        """
        cached = self._edge_labels
        if cached is None:
            verts, indptr, indices = self.verts, self.indptr, self.indices
            cached = {}
            for i in range(self.n):
                li = verts[i]
                for k in range(indptr[i], indptr[i + 1]):
                    j = indices[k]
                    if j > i:
                        cached[(i, j)] = (li, verts[j])
            self._edge_labels = cached
        return cached

    @property
    def degrees(self) -> List[int]:
        """Per-id degree list, built on first access and cached.

        The gather kernel (:class:`~repro.localmodel.gather.DeltaGatherKernel`)
        lays out one entry per directed edge from it; one flat list beats
        ``n`` ``indptr`` subtractions.
        """
        degs = self._degrees
        if degs is None:
            indptr = self.indptr
            degs = [indptr[i + 1] - indptr[i] for i in range(self.n)]
            self._degrees = degs
        return degs

    # -- label translation ----------------------------------------------
    def ids_of(self, vs: Sequence[Vertex]) -> List[int]:
        """Translate labels to ids; unknown labels raise ``KeyError``."""
        vid = self.vid
        return [vid[v] for v in vs]

    def labels_of(self, ids: Sequence[int]) -> List[Vertex]:
        verts = self.verts
        return [verts[i] for i in ids]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphIndex(n={self.n}, m={self.m})"


def graph_index(graph: Graph) -> GraphIndex:
    """The cached :class:`GraphIndex` snapshot of ``graph``.

    Returns the same object for the same graph version; a mutation
    (``add_edge``, ``remove_vertex``, …) invalidates the cache and the
    next call rebuilds.  The snapshot itself never changes — holding one
    across mutations is safe, it just describes the older graph.
    """
    cached = graph._index_cache
    if cached is not None and cached[0] == graph.version:
        return cached[1]  # type: ignore[return-value]
    index = GraphIndex(graph)
    graph._index_cache = (graph.version, index)
    return index
