"""Shared fixtures and helpers for the test-suite.

``networkx`` is used throughout the tests as an independent oracle for
chordality, cliques, and small exact optima; the library itself never
imports it.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import Graph


def to_networkx(graph: Graph) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


def from_networkx(g: "nx.Graph") -> Graph:
    return Graph(vertices=g.nodes(), edges=g.edges())


def string_labels(graph: Graph) -> Graph:
    """``graph`` with integer vertex ``v`` renamed ``"v%03d" % v`` (same order)."""
    name = {v: f"v{v:03d}" for v in graph.vertices()}
    return Graph(
        vertices=[name[v] for v in graph.vertices()],
        edges=[(name[u], name[v]) for u, v in graph.edges()],
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
