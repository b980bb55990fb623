"""O(n + m) kernels for the hot chordal machinery, in integer id space.

Every function here runs on a :class:`~repro.graphs.index.GraphIndex`
snapshot (dense ids, CSR adjacency) and is the drop-in
fast path behind the public label-space API:

====================================  =======================  ==================
kernel                                replaces                 cost
====================================  =======================  ==================
:func:`lexbfs`                        ``chordal.lex_bfs``      O(n + m)
:func:`mcs`                           ``chordal.maximum_-      O((n + m) log n)
                                      cardinality_search``
:func:`check_peo` / :func:`is_peo`    ``chordal.check_peo``    O(n + m)
:func:`peo_and_violation`             ``chordal.perfect_-      O(n + m)
                                      elimination_ordering``
:func:`maximal_cliques_from_peo`      ``chordal.maximal_-      O(n + m)
                                      cliques``
:func:`clique_forest_from_peo`        Kruskal over all of      O(n + m + p log p),
                                      W_G (test oracle)        p separator pairs
====================================  =======================  ==================

The kernels are **tie-break exact**: ids are assigned in sorted label
order (see :mod:`repro.graphs.index`), so comparing ints reproduces every
label comparison the reference implementations make, and each kernel's
output — translated back to labels — is byte-identical to the
label-space references in ``tests/oracles.py``.  The equivalence suite in
``tests/graphs/test_kernels.py`` pins this across all generator families,
adversarial non-chordal inputs, and the paper's 23-node example.

LexBFS uses the stable partition-refinement of Habib–McConnell–Paul–
Viennot: classes are doubly-linked vertex lists, a pivot's unvisited
neighbors move (in rank order) into a twin class inserted just before
their old class, so within-class order stays the initial-rank order — the
same tie-break the reference's stable block filtering produces.  MCS uses
a bucket queue with lazy-deletion min-heaps per weight.  The PEO check is
Golumbic's deferred "parent accumulation" test; on failure a per-vertex
rescan recovers the reference's *first* violating vertex.  Maximal cliques use
the Blair–Peyton criterion (``C(v)`` is non-maximal iff some vertex whose
parent is ``v`` has a later-neighborhood one larger), which is equivalent
to — and replaces — the reference's quadratic subset filter.  The same
pass yields one clique tree, whose separators are all the canonical
clique forest needs (see :func:`clique_forest_from_peo`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .index import GraphIndex

__all__ = [
    "lexbfs",
    "mcs",
    "is_peo",
    "check_peo",
    "peo_and_violation",
    "maximal_cliques_from_peo",
    "clique_forest_from_peo",
]


# ---------------------------------------------------------------------------
# LexBFS / LBFS+
# ---------------------------------------------------------------------------

def lexbfs(
    index: GraphIndex,
    start: Optional[int] = None,
    plus: Optional[Sequence[int]] = None,
) -> List[int]:
    """Lexicographic BFS visit order over ids (see module docstring).

    ``start`` pins the first visited id.  ``plus`` (a previous visit order
    as ids) switches to the LBFS+ tie-break: ties go to the id appearing
    latest in it, and the start defaults to its last element.  Callers
    validate that ``plus`` enumerates every id exactly once.
    """
    n = index.n
    if n == 0:
        return []
    if plus is not None:
        init = list(reversed(plus))
        if start is None:
            start = init[0]
    else:
        init = list(range(n))
    if start is not None and init[0] != start:
        init = [start] + [v for v in init if v != start]
    return _lexbfs_core(index, init)


def _lexbfs_core(index: GraphIndex, init: List[int]) -> List[int]:
    n = index.n
    indptr, indices = index.indptr, index.indices

    # Neighbors of each vertex in increasing *rank* (initial position)
    # order: append v to each neighbor's list while scanning init.
    nbr_by_rank: List[List[int]] = [[] for _ in range(n)]
    for v in init:
        for k in range(indptr[v], indptr[v + 1]):
            nbr_by_rank[indices[k]].append(v)

    # Vertices doubly linked inside their class; classes doubly linked.
    nxt = [-1] * n
    prv = [-1] * n
    prev = -1
    for v in init:
        prv[v] = prev
        if prev >= 0:
            nxt[prev] = v
        prev = v
    chead = [init[0]]
    ctail = [init[-1]]
    cnext = [-1]
    cprev = [-1]
    cls_of = [0] * n
    first_class = 0

    visited = bytearray(n)
    order: List[int] = []
    append_order = order.append

    while first_class != -1:
        # pop the head of the first class
        v = chead[first_class]
        h = nxt[v]
        if h == -1:
            nc = cnext[first_class]
            if nc != -1:
                cprev[nc] = -1
            first_class = nc
        else:
            prv[h] = -1
            chead[first_class] = h
        visited[v] = 1
        append_order(v)

        # split every class touched by v's unvisited neighbors: each
        # neighbor moves (in rank order) to a twin inserted before its
        # old class.
        twins: Dict[int, int] = {}
        for u in nbr_by_rank[v]:
            if visited[u]:
                continue
            c = cls_of[u]
            t = twins.get(c)
            if t is None:
                t = len(chead)
                chead.append(-1)
                ctail.append(-1)
                pc = cprev[c]
                cnext.append(c)
                cprev.append(pc)
                cprev[c] = t
                if pc == -1:
                    first_class = t
                else:
                    cnext[pc] = t
                twins[c] = t
            # unlink u from c
            pu, nu = prv[u], nxt[u]
            if pu != -1:
                nxt[pu] = nu
            else:
                chead[c] = nu
            if nu != -1:
                prv[nu] = pu
            else:
                ctail[c] = pu
            if chead[c] == -1:  # c drained: drop it from the class list
                pc2, nc2 = cprev[c], cnext[c]
                if pc2 != -1:
                    cnext[pc2] = nc2
                else:
                    first_class = nc2
                if nc2 != -1:
                    cprev[nc2] = pc2
            # append u at the tail of the twin
            tl = ctail[t]
            prv[u] = tl
            nxt[u] = -1
            if tl == -1:
                chead[t] = u
            else:
                nxt[tl] = u
            ctail[t] = u
            cls_of[u] = t
    return order


# ---------------------------------------------------------------------------
# Maximum cardinality search
# ---------------------------------------------------------------------------

def mcs(index: GraphIndex) -> List[int]:
    """MCS visit order: max visited-neighbor count, ties to the lowest id."""
    n = index.n
    if n == 0:
        return []
    indptr, indices = index.indptr, index.indices
    weight = [0] * n
    visited = bytearray(n)
    # buckets[w] is a lazy min-heap of ids currently believed at weight w;
    # range(n) is already heap-ordered.
    buckets: List[List[int]] = [[] for _ in range(n + 1)]
    buckets[0] = list(range(n))
    max_w = 0
    order: List[int] = []
    for _ in range(n):
        while True:
            b = buckets[max_w]
            while b and (visited[b[0]] or weight[b[0]] != max_w):
                heapq.heappop(b)
            if b:
                break
            max_w -= 1
        v = heapq.heappop(buckets[max_w])
        visited[v] = 1
        order.append(v)
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if not visited[u]:
                w = weight[u] + 1
                weight[u] = w
                heapq.heappush(buckets[w], u)
                if w > max_w:
                    max_w = w
    return order


# ---------------------------------------------------------------------------
# PEO checking
# ---------------------------------------------------------------------------

def _accumulated_peo_test(index: GraphIndex, order: Sequence[int]) -> bool:
    """Golumbic's linear PEO test (True iff ``order`` is a PEO)."""
    n = index.n
    indptr, indices = index.indptr, index.indices
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    pending: List[List[int]] = [[] for _ in range(n)]
    mark = [-1] * n
    for step, v in enumerate(order):
        owed = pending[v]
        if owed:
            for k in range(indptr[v], indptr[v + 1]):
                mark[indices[k]] = step
            for u in owed:
                if mark[u] != step:
                    return False
        pv = pos[v]
        parent = -1
        best = n + 1
        later: List[int] = []
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            pu = pos[u]
            if pu > pv:
                later.append(u)
                if pu < best:
                    best = pu
                    parent = u
        if parent != -1:
            owe = pending[parent]
            for u in later:
                if u != parent:
                    owe.append(u)
    return True


def _first_peo_violation(index: GraphIndex, order: Sequence[int]) -> Optional[int]:
    """The first id in ``order`` whose later neighborhood is not a clique.

    Per-vertex rescan used only on the failure path, where it reproduces
    the reference's answer (the *earliest* violating vertex, not the one
    the accumulation test happens to trip over first).
    """
    n = index.n
    indptr, indices = index.indptr, index.indices
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    mark = [-1] * n
    for step, v in enumerate(order):
        pv = pos[v]
        later: List[int] = []
        parent = -1
        best = n + 1
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            pu = pos[u]
            if pu > pv:
                later.append(u)
                if pu < best:
                    best = pu
                    parent = u
        if parent == -1:
            continue
        for k in range(indptr[parent], indptr[parent + 1]):
            mark[indices[k]] = step
        mark[parent] = step
        for u in later:
            if mark[u] != step:
                return v
    return None


def is_peo(index: GraphIndex, order: Sequence[int]) -> bool:
    """Whether ``order`` (a permutation of the ids) is a PEO."""
    return _accumulated_peo_test(index, order)


def check_peo(index: GraphIndex, order: Sequence[int]) -> Optional[int]:
    """``None`` if ``order`` is a PEO, else the first violating id."""
    if _accumulated_peo_test(index, order):
        return None
    bad = _first_peo_violation(index, order)
    if bad is None:  # pragma: no cover - the two tests agree by construction
        raise AssertionError("PEO test disagreement")
    return bad


def peo_and_violation(index: GraphIndex) -> Tuple[List[int], Optional[int]]:
    """Reverse-LexBFS order plus its first PEO violation (None iff chordal)."""
    order = lexbfs(index)
    order.reverse()
    return order, check_peo(index, order)


# ---------------------------------------------------------------------------
# Maximal cliques and the canonical clique forest (Blair–Peyton)
# ---------------------------------------------------------------------------

def _peo_pass(
    index: GraphIndex, order: Sequence[int]
) -> Tuple[List[List[int]], List[int], List[int]]:
    """``(later, parent, absorber)`` per id, from one pass over a PEO.

    ``later[v]`` is madj(v) in ascending id order and ``parent[v]`` its
    earliest member (-1 if none).  ``C(v) = {v} + madj(v)`` is a maximal
    clique iff ``absorber[v] == -1``; otherwise ``absorber[v]`` is a w with
    parent v and ``madj(w) = C(v)``, whose clique swallows v (Blair &
    Peyton).
    """
    n = index.n
    indptr, indices = index.indptr, index.indices
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    later_of: List[List[int]] = [[] for _ in range(n)]
    parent = [-1] * n
    for v in range(n):
        pv = pos[v]
        best = n + 1
        par = -1
        later = later_of[v]
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            pu = pos[u]
            if pu > pv:
                later.append(u)
                if pu < best:
                    best = pu
                    par = u
        parent[v] = par
    absorber = [-1] * n
    for w in range(n):
        p = parent[w]
        if p != -1 and len(later_of[w]) == len(later_of[p]) + 1:
            absorber[p] = w
    return later_of, parent, absorber


def maximal_cliques_from_peo(
    index: GraphIndex, order: Sequence[int]
) -> List[Tuple[int, ...]]:
    """The maximal cliques of a chordal graph from a verified PEO.

    Returns sorted id-tuples ordered by (size, members) — the reference's
    determinism contract.  Blair–Peyton's criterion (see :func:`_peo_pass`)
    replaces the reference's quadratic subset filter.
    """
    later_of, _parent, absorber = _peo_pass(index, order)
    cliques = [
        tuple(sorted(later_of[v] + [v])) for v in range(index.n) if absorber[v] == -1
    ]
    cliques.sort(key=lambda c: (len(c), c))
    return cliques


def _separator_pairs(
    entries: Sequence[Tuple[Tuple[int, ...], List[int]]], n: int
) -> Tuple[List[int], int]:
    """Kruskal keys of the clique pairs that share a separator, plus roots.

    ``entries`` holds ``(members, separator)`` per clique in sigma order; a
    pair ``a < b`` of their indices from separator S gets the key
    ``(|S| * q + a) * q + b``.
    """
    q = len(entries)
    holders: List[List[int]] = [[] for _ in range(n)]
    for r, (members, _sep) in enumerate(entries):
        for v in members:
            holders[v].append(r)
    keys: List[int] = []
    expanded = set()
    roots = 0
    qq = q * q
    for _members, sep in entries:
        if not sep:
            roots += 1
            continue
        rarest = holders[sep[0]]
        for s in sep:
            if len(holders[s]) < len(rarest):
                rarest = holders[s]
        base = len(sep) * qq
        if len(rarest) == 2:
            keys.append(base + rarest[0] * q + rarest[1])
            continue
        sep_key = tuple(sep)
        if sep_key in expanded:
            continue
        expanded.add(sep_key)
        sep_set = set(sep)
        held = [r for r in rarest if sep_set.issubset(entries[r][0])]
        for i, a in enumerate(held):
            for b in held[i + 1:]:
                keys.append(base + a * q + b)
    return keys, roots


def clique_forest_from_peo(
    index: GraphIndex, order: Sequence[int]
) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, int]]]:
    """The maximal cliques and the canonical clique forest, from a PEO.

    Returns the cliques as sorted id-tuples in sigma (lexicographic) order
    and the forest's edges as sorted index pairs ``(i, j)``, ``i < j``: the
    unique maximum-weight spanning forest of W_G under ``<`` (Theorem 2),
    found without building W_G.  The pass yields one clique tree: a
    maximal ``C(v)`` absorbs the chain ``v, parent(v), ...`` while each
    next id's absorber is the previous one, and its separator is the later
    neighbourhood of the chain's *last* id (empty for a root).  Every
    clique tree has the same separators (Blair & Peyton), so each forest
    edge joins two cliques that hold one.  Kruskal runs over those pairs
    only, each weighted |S| (exact on forest edges, never too high
    elsewhere), with clique indices breaking ties, and stops at q - c edges
    (c roots).  A separator whose rarest vertex lies in two cliques is one
    pair with no set intersection.
    """
    later_of, parent, absorber = _peo_pass(index, order)
    entries: List[Tuple[Tuple[int, ...], List[int]]] = []
    for v in range(index.n):
        if absorber[v] == -1:
            u, p = v, parent[v]
            while p != -1 and absorber[p] == u:
                u, p = p, parent[p]
            entries.append((tuple(sorted(later_of[v] + [v])), later_of[u]))
    entries.sort(key=lambda e: e[0])
    q = len(entries)
    keys, roots = _separator_pairs(entries, index.n)
    keys.sort(reverse=True)
    qq = q * q
    uf = list(range(q))
    edges: List[Tuple[int, int]] = []
    for key in keys:
        if len(edges) == q - roots:
            break
        lo, hi = divmod(key % qq, q)
        a, b = lo, hi
        while uf[a] != a:
            uf[a] = a = uf[uf[a]]
        while uf[b] != b:
            uf[b] = b = uf[uf[b]]
        if a != b:
            uf[b] = a
            edges.append((lo, hi))
    edges.sort()
    return [members for members, _ in entries], edges
