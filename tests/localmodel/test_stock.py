"""The stock-program catalogue: every entry runs, validates and roots consistently."""

import ast
import inspect
from pathlib import Path

import pytest

from repro.graphs import Graph
from repro.localmodel import NodeProgram, SyncNetwork
from repro.localmodel.stock import (
    QUICK_PROGRAMS,
    STOCK,
    busiest_vertex,
    default_root,
    family_graph,
    sized_instance,
    stock_suite,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def run_clean(graph, factory, validator):
    net = SyncNetwork(graph, factory)
    outputs = net.run(max_rounds=4 * len(graph) + 8)
    return outputs, validator(graph, outputs)


class TestCatalogue:
    def test_eight_programs_in_report_order(self):
        assert list(STOCK) == [
            "bfs", "leader", "echo", "gather", "gather-delta", "luby",
            "coloring", "linial",
        ]
        assert set(QUICK_PROGRAMS) <= set(STOCK)

    @pytest.mark.parametrize("name", list(STOCK))
    def test_entry_names_a_node_program(self, name):
        entry = STOCK[name]
        assert issubclass(entry.cls, NodeProgram)
        assert entry.family in ("chordal", "path", "cycle")

    def test_suite_covers_the_catalogue_on_each_family_graph(self):
        suite = stock_suite()
        assert [name for name, *_ in suite] == list(STOCK)
        by_family = {}
        for name, graph, _factory, _validator in suite:
            by_family.setdefault(STOCK[name].family, set()).add(id(graph))
        # programs of one family share the family's one suite graph
        assert all(len(ids) == 1 for ids in by_family.values())

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match="unknown stock graph family"):
            family_graph("tree", 5, 0)


class TestEveryEntryRunsClean:
    @pytest.mark.parametrize("name", list(STOCK))
    def test_on_its_suite_graph(self, name):
        _, graph, factory, validator = next(
            e for e in stock_suite() if e[0] == name
        )
        outputs, problems = run_clean(graph, factory, validator)
        assert len(outputs) == len(graph)
        assert problems == []

    @pytest.mark.parametrize("name", list(STOCK))
    def test_on_its_family_graph_at_n16(self, name):
        graph, factory, validator = sized_instance(name, 16, 0)
        assert len(graph) == 16
        outputs, problems = run_clean(graph, factory, validator)
        assert len(outputs) == len(graph)
        assert problems == []


class TestRootRules:
    """The bfs validator checks distances from the program's own root."""

    def distance_zero(self, outputs):
        return [v for v, d in outputs.items() if d == 0]

    def test_smallest_key_root_on_the_suite_graph(self):
        _, graph, factory, validator = next(
            e for e in stock_suite() if e[0] == "bfs"
        )
        # the rules disagree here, so a validator on the other root fails
        assert default_root(graph) != busiest_vertex(graph)
        outputs, problems = run_clean(graph, factory, validator)
        assert self.distance_zero(outputs) == [default_root(graph)]
        assert problems == []

    def test_busiest_root_on_the_sized_chordal_graph(self):
        graph, factory, validator = sized_instance("bfs", 16, 0)
        assert default_root(graph) != busiest_vertex(graph)
        outputs, problems = run_clean(graph, factory, validator)
        assert self.distance_zero(outputs) == [busiest_vertex(graph)]
        assert problems == []

    @pytest.mark.parametrize("rule", [default_root, busiest_vertex])
    def test_explicit_root_reaches_program_and_validator(self, rule):
        graph = family_graph("chordal", 16, 0)
        root = rule(graph)
        factory, validator = STOCK["bfs"].build(graph, root=root)
        outputs, problems = run_clean(graph, factory, validator)
        assert self.distance_zero(outputs) == [root]
        assert problems == []
        # and a validator for another root does notice
        other = busiest_vertex(graph) if rule is default_root else default_root(graph)
        _, wrong = STOCK["bfs"].build(graph, root=other)
        assert wrong(graph, outputs) != []


class TestLinialIds:
    def test_bound_covers_ids_beyond_n(self):
        g = Graph()
        for a, b in ((100, 7), (7, 55), (55, 3), (3, 900)):
            g.add_edge(a, b)
        factory, validator = STOCK["linial"].build(g)
        outputs, problems = run_clean(g, factory, validator)
        assert problems == [] and set(outputs.values()) <= {1, 2, 3}

    def test_non_integer_ids_are_rejected(self):
        g = Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError, match="integer vertex ids"):
            STOCK["linial"].build(g)


def test_only_the_catalogue_builds_stock_programs_outside_their_modules():
    """Drivers live next to their program; everything else goes through STOCK."""
    home = {
        entry.cls.__name__: Path(inspect.getsourcefile(entry.cls)).resolve()
        for entry in STOCK.values()
    }
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in home and path != home[name]:
                strays.append(f"{path.relative_to(SRC)}:{node.lineno} builds {name}")
    assert strays == []
