"""Serialization: edge-list text, JSON dictionaries, interval files.

Small, dependency-free formats so experiments and downstream users can
persist instances:

* **edge-list text** -- one ``u v`` pair per line, ``#``-comments, and a
  leading ``vertices: ...`` line to preserve isolated vertices;
* **JSON-able dicts** -- ``{"vertices": [...], "edges": [[u, v], ...]}``;
* **interval files** -- ``v lo hi`` triples for interval representations.

Integer-looking tokens are parsed as integers (the paper's node IDs), and
everything else as strings; round-trips preserve both.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from .adjacency import Graph, Vertex

__all__ = [
    "to_edge_list",
    "from_edge_list",
    "to_dict",
    "from_dict",
    "dump_json",
    "load_json",
    "intervals_to_text",
    "intervals_from_text",
]


def _parse_token(token: str) -> Vertex:
    try:
        return int(token)
    except ValueError:
        return token


def to_edge_list(graph: Graph) -> str:
    """Render as edge-list text (round-trips through from_edge_list)."""
    lines = ["# repro graph: edge list"]
    lines.append("vertices: " + " ".join(str(v) for v in graph.vertices()))
    for u, v in graph.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text produced by :func:`to_edge_list` (or by hand)."""
    g = Graph()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            for token in line[len("vertices:"):].split():
                g.add_vertex(_parse_token(token))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        g.add_edge(_parse_token(parts[0]), _parse_token(parts[1]))
    return g


def to_dict(graph: Graph) -> Dict[str, list]:
    return {
        "vertices": list(graph.vertices()),
        "edges": [list(e) for e in graph.edges()],
    }


def from_dict(data: Dict[str, list]) -> Graph:
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError("graph dict needs 'vertices' and 'edges'") from exc
    return Graph(vertices=vertices, edges=[tuple(e) for e in edges])


def dump_json(graph: Graph) -> str:
    return json.dumps(to_dict(graph), sort_keys=True)


def load_json(text: str) -> Graph:
    return from_dict(json.loads(text))


def intervals_to_text(intervals: Dict[Vertex, Tuple[float, float]]) -> str:
    lines = ["# repro intervals: v lo hi"]
    for v in sorted(intervals, key=lambda u: (str(type(u)), str(u))):
        lo, hi = intervals[v]
        lines.append(f"{v} {lo!r} {hi!r}")
    return "\n".join(lines) + "\n"


def intervals_from_text(text: str) -> Dict[Vertex, Tuple[float, float]]:
    out: Dict[Vertex, Tuple[float, float]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed interval line: {raw!r}")
        v = _parse_token(parts[0])
        out[v] = (float(parts[1]), float(parts[2]))
    return out
