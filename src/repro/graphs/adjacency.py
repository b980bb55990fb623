"""Core undirected graph data structure.

The library deliberately avoids depending on :mod:`networkx` at runtime;
``networkx`` is used only in the test-suite as an independent oracle.  The
:class:`Graph` here is a small adjacency-set graph with a stable, sorted
vertex order, which is all the algorithms of the paper need.

Vertices may be any hashable, orderable objects (the paper and all examples
use integers).  Orderability matters: several constructions in the paper --
most importantly the deterministic tie-breaking order ``<`` on the edges of
the weighted clique intersection graph (Section 3) -- rely on comparing
vertex identifiers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

__all__ = ["Graph", "Vertex", "Edge"]


class Graph:
    """A simple undirected graph backed by adjacency sets.

    The graph is mutable while being built (:meth:`add_vertex`,
    :meth:`add_edge`, :meth:`remove_vertex`), and hands out defensive copies
    or read-only views from all query methods, so algorithm code can never
    corrupt a caller's graph by accident.

    Every mutation bumps :attr:`version`, which is what lets derived
    snapshots — the cached sorted vertex list here and the int-indexed
    :class:`~repro.graphs.index.GraphIndex` — invalidate themselves
    instead of being recomputed per query.  Hot algorithm loops inside the
    library read adjacency through :meth:`neighbors_view` (a documented
    read-only alias of the internal set); external callers keep the
    defensively-copying :meth:`neighbors`.
    """

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable[Edge] = ()):
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        #: monotonically increasing mutation counter (see class docstring)
        self.version: int = 0
        self._sorted_cache: Optional[Tuple[int, List[Vertex]]] = None
        self._index_cache: Optional[Tuple[int, object]] = None
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; adding an existing vertex is a no-op."""
        if v not in self._adj:
            self._adj[v] = set()
            self.version += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add edge ``uv``, creating endpoints as needed.

        Self-loops are rejected: none of the graph classes in the paper
        (chordal, interval, proper interval) allow them.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self.version += 1

    def add_clique(self, members: Iterable[Vertex]) -> None:
        """Add all vertices in ``members`` and every edge between them."""
        members = list(members)
        for v in members:
            self.add_vertex(v)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if u != v:
                    self.add_edge(u, v)

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges; missing vertices raise ``KeyError``."""
        for u in self._adj.pop(v):
            self._adj[u].discard(v)
        self.version += 1

    def remove_vertices(self, vs: Iterable[Vertex]) -> None:
        for v in list(vs):
            self.remove_vertex(v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self.version += 1

    @classmethod
    def _from_adjacency(cls, adj: Dict[Vertex, Set[Vertex]]) -> "Graph":
        """A graph that takes ownership of ``adj``, without copying it.

        ``adj`` must be symmetric and loop-free, and no other graph may
        share its neighbour sets.  :meth:`copy`, :meth:`induced_subgraph`
        and the gathered balls' graphs build fresh sets and hand them over
        here, so none of them inserts edge by edge.
        """
        g = cls()
        g._adj = adj
        g.version = 1
        return g

    def copy(self) -> "Graph":
        return Graph._from_adjacency({v: set(nbrs) for v, nbrs in self._adj.items()})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_vertices()}, m={self.num_edges()})"

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> List[Vertex]:
        """All vertices in sorted order (stable across runs).

        The sorted list is cached against :attr:`version`; callers get a
        fresh copy each time, so mutating the returned list is safe.
        """
        cached = self._sorted_cache
        if cached is None or cached[0] != self.version:
            cached = (self.version, sorted(self._adj))
            self._sorted_cache = cached
        return list(cached[1])

    def edges(self) -> List[Edge]:
        """All edges, each as a sorted pair, in sorted order."""
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return sorted(out)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Open neighborhood Gamma_G(v) (a fresh set)."""
        return set(self._adj[v])

    def neighbors_view(self, v: Vertex) -> FrozenSet[Vertex]:
        """Open neighborhood Gamma_G(v) as a READ-ONLY view (no copy).

        This is the internal adjacency set itself, typed as frozen to make
        the contract explicit: callers must not mutate it, and must not
        hold it across mutations of the graph.  Hot loops (LexBFS, greedy
        colorings, brute-force oracles) use this to avoid the per-call set
        copy of :meth:`neighbors`.
        """
        return self._adj[v]  # type: ignore[return-value]

    def iter_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate Gamma_G(v) without allocating (unspecified order)."""
        return iter(self._adj[v])

    def closed_neighborhood(self, v: Vertex) -> Set[Vertex]:
        """Closed neighborhood Gamma_G[v] = Gamma_G(v) + {v}."""
        nbrs = set(self._adj[v])
        nbrs.add(v)
        return nbrs

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Delta(G); 0 on the empty graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def set_neighborhood(self, vs: Iterable[Vertex]) -> Set[Vertex]:
        """Gamma_G(W): vertices outside W adjacent to some vertex of W."""
        ws = set(vs)
        out: Set[Vertex] = set()
        for w in ws:
            out |= self._adj[w]
        return out - ws

    def closed_set_neighborhood(self, vs: Iterable[Vertex]) -> Set[Vertex]:
        """Gamma_G[W] = Gamma_G(W) + W."""
        ws = set(vs)
        return self.set_neighborhood(ws) | ws

    # ------------------------------------------------------------------
    # structural predicates
    # ------------------------------------------------------------------
    def is_clique(self, vs: Iterable[Vertex]) -> bool:
        members = list(vs)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if u != v and not self.has_edge(u, v):
                    return False
        return True

    def is_independent_set(self, vs: Iterable[Vertex]) -> bool:
        members = list(vs)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if self.has_edge(u, v):
                    return False
        return True

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vs: Iterable[Vertex]) -> "Graph":
        """G[U]: the subgraph induced by vertex set ``vs``.

        Built as one set intersection per kept vertex, with no per-edge
        insertion.  Unknown vertices in ``vs`` raise ``KeyError`` -- asking
        for an induced subgraph on vertices that do not exist is always a
        bug in the caller.
        """
        keep = set(vs)
        missing = [v for v in keep if v not in self._adj]
        if missing:
            raise KeyError(f"vertices not in graph: {sorted(missing)!r}")
        adj = self._adj
        return Graph._from_adjacency({v: adj[v] & keep for v in keep})

    def subgraph_without(self, vs: Iterable[Vertex]) -> "Graph":
        """G[V - vs]."""
        drop = set(vs)
        return self.induced_subgraph(set(self._adj) - drop)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def bfs_distances(self, source: Vertex, cutoff: Optional[int] = None) -> Dict[Vertex, int]:
        """Distances from ``source``; ``cutoff`` bounds the search radius."""
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            d += 1
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    def ball(self, source: Vertex, radius: int) -> Set[Vertex]:
        """Gamma^radius_G[source]: all vertices within distance ``radius``."""
        return set(self.bfs_distances(source, cutoff=radius))

    def distance(self, u: Vertex, v: Vertex) -> Optional[int]:
        """dist_G(u, v), or ``None`` if disconnected."""
        return self.bfs_distances(u).get(v)

    def connected_components(self) -> List[Set[Vertex]]:
        """Connected components, sorted by their smallest vertex."""
        seen: Set[Vertex] = set()
        comps: List[Set[Vertex]] = []
        for v in self.vertices():
            if v in seen:
                continue
            comp = self.ball(v, radius=len(self._adj))
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self.connected_components()) == 1

    def diameter(self) -> int:
        """max_{u,v} dist(u, v); raises on a disconnected graph.

        The paper uses ``diam`` for sets of cliques (Section 2); this is
        the plain graph diameter used by Algorithm 5's small-component
        shortcut.

        Exact, by eccentricity bounds (Takes & Kosters, CIKM 2011): a BFS
        from ``s`` with eccentricity ``e`` gives every vertex ``w`` at
        distance ``d`` the bounds ``max(e - d, d) <= ecc(w) <= e + d``.
        A vertex whose upper bound is at most the largest eccentricity
        found so far cannot raise the diameter and is dropped; the search
        stops when none is left, so the result always equals the
        all-pairs maximum.  Sources alternate between the live vertex with
        the highest upper bound and the one with the lowest lower bound,
        ties broken in insertion order, so the number of BFS runs is
        reproducible: a path needs three, and long thin graphs a handful.
        """
        live = list(self._adj)
        lower = dict.fromkeys(live, 0)
        upper = dict.fromkeys(live, len(live))
        best = 0
        pick_upper = True
        while live:
            if pick_upper:
                source = max(live, key=upper.__getitem__)
            else:
                source = min(live, key=lower.__getitem__)
            pick_upper = not pick_upper
            dist = self.bfs_distances(source)
            if len(dist) != len(self._adj):
                raise ValueError("diameter of a disconnected graph is undefined")
            ecc = max(dist.values())
            best = max(best, ecc)
            still = []
            for w in live:
                d = dist[w]
                lower[w] = max(lower[w], ecc - d, d)
                upper[w] = min(upper[w], ecc + d)
                if upper[w] > best:
                    still.append(w)
            live = still
        return best

    def eccentricity_within(self, sources: Iterable[Vertex]) -> int:
        """max distance realized between any two of ``sources`` (must be connected through G)."""
        sources = list(sources)
        best = 0
        for s in sources:
            dist = self.bfs_distances(s)
            for t in sources:
                if t not in dist:
                    raise ValueError("vertices are not mutually reachable")
                best = max(best, dist[t])
        return best

    def power(self, k: int) -> "Graph":
        """G^k: same vertices, edges between vertices at distance <= k."""
        if k < 1:
            raise ValueError("power must be >= 1")
        g = Graph(vertices=self._adj)
        for v in self._adj:
            for u, d in self.bfs_distances(v, cutoff=k).items():
                if u != v and d <= k:
                    g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """A frozen snapshot of the adjacency structure."""
        return {v: frozenset(nbrs) for v, nbrs in self._adj.items()}
