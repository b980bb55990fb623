"""Equivalence suite: kernels vs legacy references vs the networkx oracle.

The public chordal API dispatches to the integer kernels of
``repro.graphs.kernels``; the promise is *byte-identical* outputs with the
label-space references of ``tests/oracles.py``.  This suite pins that
promise over every generator family, adversarial non-chordal inputs,
shuffled orders, and the paper's 23-node example, with networkx as the
independent oracle for chordality, cliques, simplicial vertices, greedy
colorings, and chromatic numbers.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring.greedy import peo_greedy_coloring
from repro.coloring.prune import diameter_rule, peel_chordal_graph
from repro.cliquetree.wcig import wcig_edges_among
from repro.graphs import (
    Graph,
    NotChordalError,
    cycle_graph,
    graph_index,
    is_chordal,
    lex_bfs,
    maximal_cliques,
    maximum_cardinality_search,
    paper_example_cliques,
    paper_example_graph,
    path_graph,
    perfect_elimination_ordering,
    random_chordal_graph,
    random_interval_graph,
    random_k_tree,
    random_split_graph,
    simplicial_vertices,
    unit_interval_chain,
)
from repro.graphs import kernels
from repro.graphs.chordal import check_peo
from tests import oracles
from tests.conftest import to_networkx

#: (family name, constructor) -> a diverse pool of graphs, chordal and not.
FAMILIES = [
    ("ktree", lambda seed: random_k_tree(40, 3, seed=seed)),
    ("chordal", lambda seed: random_chordal_graph(35, seed=seed)),
    ("interval", lambda seed: random_interval_graph(30, seed=seed)),
    ("split", lambda seed: random_split_graph(25, seed=seed)),
    ("uic", lambda seed: unit_interval_chain(30 + seed, 4)),
    ("path", lambda seed: path_graph(20 + seed)),
    ("cycle", lambda seed: cycle_graph(8 + seed)),  # not chordal for n >= 4
    ("gnm", lambda seed: _gnm(25, 60, seed)),  # adversarial, rarely chordal
]
SEEDS = range(4)


def _gnm(n, m, seed):
    g = Graph(vertices=range(n))
    rng = random.Random(seed)
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    return g


def nx_simplicial_vertices(g):
    """Vertices whose neighborhood is a clique, by definition, in networkx."""
    nxg = to_networkx(g)
    out = []
    for v in g.vertices():
        k = nxg.degree(v)
        if nxg.subgraph(nxg[v]).number_of_edges() == k * (k - 1) // 2:
            out.append(v)
    return out


def nx_peo_greedy_coloring(g):
    """networkx first-fit along the reverse PEO, shifted to 1-based colors."""
    order = list(reversed(perfect_elimination_ordering(g)))
    colors = nx.greedy_color(to_networkx(g), strategy=lambda graph, c: iter(order))
    return {v: c + 1 for v, c in colors.items()}


def pool():
    yield "empty", Graph()
    yield "singleton", Graph(vertices=[7])
    yield "paper", paper_example_graph()
    for name, make in FAMILIES:
        for seed in SEEDS:
            yield f"{name}-{seed}", make(seed)


POOL = list(pool())
POOL_IDS = [name for name, _ in POOL]
POOL_GRAPHS = [g for _, g in POOL]


@pytest.mark.parametrize("g", POOL_GRAPHS, ids=POOL_IDS)
class TestOrderEquivalence:
    def test_lexbfs_matches_reference(self, g):
        assert lex_bfs(g) == oracles.reference_lex_bfs(g)

    def test_lexbfs_start_matches_reference(self, g):
        for v in g.vertices()[:3]:
            assert lex_bfs(g, start=v) == oracles.reference_lex_bfs(g, start=v)

    def test_lbfs_plus_matches_reference(self, g):
        first = lex_bfs(g)
        assert lex_bfs(g, plus=first) == oracles.reference_lex_bfs(g, plus=first)

    def test_mcs_matches_reference(self, g):
        assert (
            maximum_cardinality_search(g)
            == oracles.reference_maximum_cardinality_search(g)
        )

    def test_check_peo_matches_reference_on_lexbfs_order(self, g):
        order = list(reversed(lex_bfs(g)))
        assert check_peo(g, order) == oracles.reference_check_peo(g, order)

    def test_check_peo_matches_reference_on_shuffled_orders(self, g):
        for seed in range(3):
            order = g.vertices()
            random.Random(seed).shuffle(order)
            assert check_peo(g, order) == oracles.reference_check_peo(g, order)

    def test_simplicial_matches_reference(self, g):
        assert simplicial_vertices(g) == nx_simplicial_vertices(g)

    def test_chordality_matches_networkx(self, g):
        nxg = to_networkx(g)
        expected = len(g) == 0 or nx.is_chordal(nxg)
        assert is_chordal(g) == expected


@pytest.mark.parametrize("g", POOL_GRAPHS, ids=POOL_IDS)
class TestChordalOutputs:
    def test_maximal_cliques_match_reference_and_networkx(self, g):
        if not is_chordal(g):
            with pytest.raises(NotChordalError):
                maximal_cliques(g)
            return
        ours = maximal_cliques(g)
        assert ours == oracles.reference_maximal_cliques(g)
        if len(g):
            oracle = {frozenset(c) for c in nx.chordal_graph_cliques(to_networkx(g))}
            assert set(ours) == oracle

    def test_wcig_edges_match_reference(self, g):
        if not is_chordal(g):
            return
        cliques = maximal_cliques(g)
        assert wcig_edges_among(cliques) == oracles.reference_wcig_edges_among(cliques)

    def test_greedy_coloring_matches_reference_and_is_optimal(self, g):
        if not is_chordal(g):
            with pytest.raises(NotChordalError):
                peo_greedy_coloring(g)
            return
        ours = peo_greedy_coloring(g)
        ref = nx_peo_greedy_coloring(g)
        assert ours == ref
        assert list(ours) == list(ref)  # same insertion order too
        for u, v in g.edges():
            assert ours[u] != ours[v]
        if len(g):
            omega = max(len(c) for c in maximal_cliques(g))
            assert max(ours.values()) == omega

    @pytest.mark.parametrize("threshold", [2, 4, 6])
    def test_peeling_layers_match_rich_peeling(self, g, threshold):
        """The one peeling equals the rebuild-every-forest oracle."""
        if not is_chordal(g):
            with pytest.raises(NotChordalError):
                peel_chordal_graph(g, diameter_rule(threshold))
            return
        ours = peel_chordal_graph(g, diameter_rule(threshold))
        ref = oracles.reference_peeling(g, oracles.reference_diameter_rule(threshold))
        assert ours == ref

    def test_capped_peeling_matches(self, g):
        if not is_chordal(g):
            return
        ours = peel_chordal_graph(
            g, diameter_rule(4), max_iterations=2, last_iteration_rule=diameter_rule(1)
        )
        ref = oracles.reference_peeling(
            g,
            oracles.reference_diameter_rule(4),
            max_iterations=2,
            last_iteration_rule=oracles.reference_diameter_rule(1),
        )
        assert ours == ref


class TestLexBFSRegression:
    """Satellite: visit order pinned on the paper example + random graphs."""

    PAPER_ORDER = [
        1, 2, 3, 4, 8, 5, 6, 9, 10, 7, 11, 12,
        13, 14, 15, 16, 19, 17, 18, 20, 21, 22, 23,
    ]

    def test_paper_example_visit_order_pinned(self):
        g = paper_example_graph()
        assert lex_bfs(g) == self.PAPER_ORDER
        assert oracles.reference_lex_bfs(g) == self.PAPER_ORDER

    def test_paper_example_reverse_is_peo(self):
        g = paper_example_graph()
        assert check_peo(g, list(reversed(self.PAPER_ORDER))) is None

    def test_random_chordal_orders_agree(self):
        for seed in range(10):
            g = random_chordal_graph(50, seed=seed)
            kernel_order = lex_bfs(g)
            assert kernel_order == oracles.reference_lex_bfs(g)
            # multi-sweep (LBFS+) agreement as well
            assert lex_bfs(g, plus=kernel_order) == oracles.reference_lex_bfs(
                g, plus=kernel_order
            )

    def test_reference_is_not_quadratic_shaped(self):
        # structural, not timed: the fixed reference visits a long path
        # without ever materializing O(n) blocks per step -- sanity-check
        # by output only (the timing claim lives in benchmarks).
        g = path_graph(2000)
        order = oracles.reference_lex_bfs(g)
        assert order[0] == 0 and len(order) == 2000

    def test_validation_errors_preserved(self):
        g = path_graph(4)
        with pytest.raises(KeyError):
            lex_bfs(g, start=99)
        with pytest.raises(ValueError):
            lex_bfs(g, plus=[0, 1, 2])  # wrong length
        with pytest.raises(ValueError):
            lex_bfs(g, plus=[0, 1, 2, 2])  # duplicate
        with pytest.raises(ValueError):
            check_peo(g, [0, 1])


class TestNotChordalReporting:
    def test_same_violating_vertex_as_reference(self):
        for seed in range(6):
            g = _gnm(20, 50, seed)
            order = list(reversed(lex_bfs(g)))
            assert check_peo(g, order) == oracles.reference_check_peo(g, order)

    def test_cycle_raises_with_vertex(self):
        with pytest.raises(NotChordalError) as exc:
            perfect_elimination_ordering(cycle_graph(6))
        assert exc.value.vertex is not None

    def test_kernel_first_violation_is_earliest(self):
        g = cycle_graph(8)
        idx = graph_index(g)
        order = kernels.lexbfs(idx)
        order.reverse()
        bad = kernels.check_peo(idx, order)
        ref_bad = oracles.reference_check_peo(g, idx.labels_of(order))
        assert idx.verts[bad] == ref_bad


class TestKernelUnits:
    """Direct id-space kernel checks not covered via the wrappers."""

    def test_spanning_forest_is_acyclic_and_max_weight_canonical(self):
        g = paper_example_graph()
        idx = graph_index(g)
        order, bad = kernels.peo_and_violation(idx)
        assert bad is None
        cliques = kernels.maximal_cliques_from_peo(idx, order)
        assert len(cliques) == len(paper_example_cliques())
        edges = oracles.clique_intersection_edges(cliques)
        forest = oracles.maximum_weight_spanning_forest_ids(cliques, edges)
        assert len(forest) <= len(cliques) - 1
        # compare against the label-space canonical forest
        from repro.cliquetree.forest import build_clique_forest

        ref = build_clique_forest(g)
        ref_edges = {
            frozenset((a, b)) for a, b in ref.edges()
        }
        ours = {
            frozenset(
                (
                    frozenset(idx.labels_of(cliques[i])),
                    frozenset(idx.labels_of(cliques[j])),
                )
            )
            for i, j in forest
        }
        assert ours == ref_edges


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 18))
def test_property_random_graphs_agree_everywhere(seed, n):
    """Hypothesis sweep: arbitrary G(n, m) graphs, all dispatches agree."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    assert lex_bfs(g) == oracles.reference_lex_bfs(g)
    assert (
        maximum_cardinality_search(g)
        == oracles.reference_maximum_cardinality_search(g)
    )
    order = list(reversed(lex_bfs(g)))
    assert check_peo(g, order) == oracles.reference_check_peo(g, order)
    assert simplicial_vertices(g) == nx_simplicial_vertices(g)
    nxg = to_networkx(g)
    chordal = len(g) == 0 or nx.is_chordal(nxg)
    assert is_chordal(g) == chordal
    if chordal:
        assert maximal_cliques(g) == oracles.reference_maximal_cliques(g)
        assert peo_greedy_coloring(g) == nx_peo_greedy_coloring(g)
