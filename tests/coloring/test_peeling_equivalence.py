"""The one peeling equals its oracle, the rebuild-every-forest loop.

:func:`~repro.coloring.prune.peel_chordal_graph` walks T_1 by clique
position and decides internal paths inside G[V_P].
:func:`tests.oracles.reference_peeling` rebuilds T_{i+1} and shrinks a
copy of the graph every iteration, and measures diameters in that current
graph.  Both must return equal :class:`~repro.coloring.prune.Peeling`
objects: every ``PeeledPath`` (ordered cliques, both attachments, nodes,
layer), ``layer_of`` and ``exhausted``.  Labels are shuffled, so no
tie-break can lean on vertex order matching clique order.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquetree import path_independence_number
from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.graphs import (
    Graph,
    path_graph,
    random_chordal_graph,
    random_interval_graph,
    random_k_tree,
    random_split_graph,
    unit_interval_chain,
)
from tests.oracles import reference_diameter_rule, reference_peeling

THRESHOLDS = (2, 3, 4, 6, 9, 12)


def _k_tree(k):
    return lambda n, seed: random_k_tree(max(n, k + 1), k, seed=seed)


def _disconnected(n, seed):
    """Two chordal pieces side by side, plus isolated vertices."""
    a = random_chordal_graph(max(1, n // 2), seed=seed)
    b = random_k_tree(max(3, n // 3), 2, seed=seed + 1)
    offset = len(a)
    g = Graph(vertices=a.vertices(), edges=a.edges())
    for v in b.vertices():
        g.add_vertex(v + offset)
    for u, v in b.edges():
        g.add_edge(u + offset, v + offset)
    for i in range(3):
        g.add_vertex(offset + len(b) + i)
    return g


FAMILIES = {
    "chordal": lambda n, seed: random_chordal_graph(n, seed=seed),
    "1-tree": _k_tree(1),
    "2-tree": _k_tree(2),
    "3-tree": _k_tree(3),
    "4-tree": _k_tree(4),
    "unit-interval": lambda n, seed: unit_interval_chain(n, seed=seed),
    "interval": lambda n, seed: random_interval_graph(n, seed=seed),
    "split": lambda n, seed: random_split_graph(n, seed=seed),
    "path": lambda n, seed: path_graph(n),
    "disconnected": _disconnected,
    "singleton": lambda n, seed: Graph(vertices=[0]),
    "empty": lambda n, seed: Graph(),
}


def _shuffled(graph, seed):
    labels = list(range(len(graph)))
    random.Random(seed).shuffle(labels)
    relabel = dict(zip(graph.vertices(), labels))
    return Graph(
        vertices=relabel.values(),
        edges=[(relabel[u], relabel[v]) for u, v in graph.edges()],
    )


def _instance(family, n, seed):
    return _shuffled(FAMILIES[family](n, seed), seed + 1)


def _mis_rules(d):
    """Algorithm 6's last-iteration rule, for the library and the oracle."""

    def ours(path):
        return path_independence_number(path.cliques) >= d

    def ref(current, path):
        return path_independence_number(path.cliques) >= d

    return ours, ref


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(0, 45),
    seed=st.integers(0, 10_000),
)
def test_diameter_rules_match_the_oracle(family, n, seed):
    g = _instance(family, n, seed)
    for t in THRESHOLDS:
        ours = peel_chordal_graph(g, diameter_rule(t))
        assert ours == reference_peeling(g, reference_diameter_rule(t)), t


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(0, 45),
    seed=st.integers(0, 10_000),
    d=st.integers(1, 4),
    cap=st.integers(1, 4),
)
def test_algorithm6_shape_matches_the_oracle(family, n, seed, d, cap):
    """``max_iterations`` with the independence-number last rule."""
    g = _instance(family, n, seed)
    ours_last, ref_last = _mis_rules(d)
    ours = peel_chordal_graph(
        g, diameter_rule(2 * d + 3), max_iterations=cap, last_iteration_rule=ours_last
    )
    ref = reference_peeling(
        g,
        reference_diameter_rule(2 * d + 3),
        max_iterations=cap,
        last_iteration_rule=ref_last,
    )
    assert ours == ref


@pytest.mark.parametrize("family", ["empty", "singleton"])
def test_degenerate_graphs(family):
    g = FAMILIES[family](0, 0)
    ours = peel_chordal_graph(g, diameter_rule(3))
    assert ours == reference_peeling(g, reference_diameter_rule(3))
    assert ours.exhausted
    assert ours.num_layers() == (1 if len(g) else 0)


def test_the_pool_exercises_every_case():
    """The equality above meets every branch of the loop.

    Internal paths are both peeled and kept, peelings run several layers,
    the last MIS rule both fires and refuses, and a removed path's cliques
    hold vertices it does not peel: some reach past it and a later layer
    takes them, some have cliques on two paths removed together and are
    never peeled.  The last case needs a threshold below Lemma 3's
    precondition (diameter >= 4), where T_{i+1} stops being a clique
    forest of the remaining graph; both loops must still agree on it.
    """
    seen = set()
    for family in sorted(FAMILIES):
        for seed in range(6):
            g = _instance(family, 40, seed)
            for t in THRESHOLDS:
                rule = diameter_rule(t)

                def spy(path):
                    seen.add(("internal", rule(path)))
                    return rule(path)

                peeling = peel_chordal_graph(g, spy)
                if peeling.num_layers() >= 3:
                    seen.add("three layers")
                for layer in peeling.layers:
                    holders = Counter()
                    for peeled in layer:
                        kept = set().union(*peeled.cliques) - peeled.nodes
                        holders.update(kept)
                        if any(peeling.layer_of.get(v, 0) > peeled.layer for v in kept):
                            seen.add("left for later")
                    if any(k >= 2 for k in holders.values()):
                        seen.add("on two removed paths")
            last, _ = _mis_rules(2)

            def last_spy(path):
                seen.add(("last", last(path)))
                return last(path)

            peel_chordal_graph(
                g, diameter_rule(7), max_iterations=2, last_iteration_rule=last_spy
            )
    assert seen >= {
        ("internal", True),
        ("internal", False),
        ("last", True),
        ("last", False),
        "three layers",
        "left for later",
        "on two removed paths",
    }
