"""Edge cases of the suppression machinery.

Covers the corners the basic round-trip tests skip: markers on and
around decorated classes, multi-rule markers, stale-marker warnings
(advisory, never failing), and the ``suppressed_count`` field of the
JSON report.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint import active_findings, analyze_source, main as lint_main
from repro.lint.suppressions import parse_suppressions

HEADER = "from repro.localmodel.network import NodeProgram\n"


def lint(body: str):
    return analyze_source(HEADER + textwrap.dedent(body))


class TestDecoratedClasses:
    DECORATED = """
        import functools

        @functools.total_ordering
        class RankedProgram(NodeProgram):
            scratch = {{}}  {marker}

            def __eq__(self, other):
                return self.node == other.node

            def __lt__(self, other):
                return self.node < other.node

            def step(self, ctx):
                self.done = True
                return {{}}
    """

    def test_decorated_class_finding_fires_without_marker(self):
        findings = lint(self.DECORATED.format(marker=""))
        assert [f.rule for f in active_findings(findings)] == ["L2"]

    def test_marker_on_attribute_line_suppresses_inside_decorated_class(self):
        findings = lint(self.DECORATED.format(marker="# repro-lint: disable=L2"))
        assert active_findings(findings) == []
        assert [f.rule for f in findings if f.suppressed] == ["L2"]

    def test_marker_on_decorator_line_covers_the_next_line_only(self):
        # line coverage is marker line + the following line; a decorator
        # marker does not blanket the whole class body
        src = HEADER + textwrap.dedent("""
            import functools

            @functools.total_ordering  # repro-lint: disable=L2
            class RankedProgram(NodeProgram):
                scratch = {}

                def __eq__(self, other):
                    return self.node == other.node

                def __lt__(self, other):
                    return self.node < other.node

                def step(self, ctx):
                    self.done = True
                    return {}
        """)
        findings = analyze_source(src)
        assert [f.rule for f in active_findings(findings)] == ["L2"]
        stale = parse_suppressions(src).stale_markers()
        # ... and is therefore reported stale once findings are matched
        assert [rule for _, rule in stale] == ["L2"]

    def test_file_wide_disable_covers_decorated_classes(self):
        src = (
            "# repro-lint: disable-file=L2\n"
            + HEADER
            + textwrap.dedent("""
                import functools

                @functools.total_ordering
                class RankedProgram(NodeProgram):
                    scratch = {}

                    def __eq__(self, other):
                        return self.node == other.node

                    def __lt__(self, other):
                        return self.node < other.node

                    def step(self, ctx):
                        self.done = True
                        return {}
            """)
        )
        findings = analyze_source(src)
        assert active_findings(findings) == []


class TestMultiRuleMarkers:
    TWO_SINS = """
        import random

        class NoisyProgram(NodeProgram):
            scratch = []  {marker}

            def step(self, ctx):
                self.scratch.append(random.random())  {marker}
                self.done = True
                return {{}}
    """

    def test_both_rules_fire_unsuppressed(self):
        findings = lint(self.TWO_SINS.format(marker=""))
        assert {f.rule for f in active_findings(findings)} == {"L2", "L3"}

    def test_one_marker_silences_multiple_rules(self):
        findings = lint(
            self.TWO_SINS.format(marker="# repro-lint: disable=L2,L3")
        )
        assert active_findings(findings) == []
        assert {f.rule for f in findings if f.suppressed} == {"L2", "L3"}

    def test_unrelated_rule_in_the_list_goes_stale_not_wrong(self):
        src = HEADER + textwrap.dedent("""
            class QuietProgram(NodeProgram):
                scratch = []  # repro-lint: disable=L2,L6

                def step(self, ctx):
                    self.done = True
                    return {}
        """)
        assert active_findings(analyze_source(src)) == []
        supp = parse_suppressions(src)
        # replay the match the analyzer performed, then ask what's left
        findings = analyze_source(src)
        assert [f.rule for f in findings if f.suppressed] == ["L2"]


class TestStaleMarkers:
    def test_marker_suppressing_nothing_is_stale(self):
        src = HEADER + textwrap.dedent("""
            class CleanProgram(NodeProgram):
                def step(self, ctx):
                    self.done = True  # repro-lint: disable=L3
                    return {}
        """)
        supp = parse_suppressions(src)
        # staleness = "never hit": with no findings matched, the marker
        # is stale; a hit (as in test_live_marker_is_not_stale) clears it
        assert supp.stale_markers() == [(5, "L3")]
        supp.is_suppressed("L3", 5)
        assert supp.stale_markers() == []

    def test_cli_warns_on_stale_marker_but_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean_program.py"
        clean.write_text(
            HEADER
            + textwrap.dedent("""
                class CleanProgram(NodeProgram):
                    def step(self, ctx):
                        self.done = True  # repro-lint: disable=L3
                        return {}
            """)
        )
        assert lint_main([str(clean)]) == 0
        out = capsys.readouterr().out
        assert "stale suppression of L3" in out
        assert "0 findings" in out

    def test_cli_json_lists_stale_suppressions(self, tmp_path, capsys):
        clean = tmp_path / "clean_program.py"
        clean.write_text(
            HEADER
            + textwrap.dedent("""
                class CleanProgram(NodeProgram):
                    def step(self, ctx):
                        self.done = True  # repro-lint: disable=L3
                        return {}
            """)
        )
        assert lint_main(["--format=json", str(clean)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["stale_suppressions"]) == 1
        entry = report["stale_suppressions"][0]
        assert entry["rule"] == "L3" and entry["path"].endswith("clean_program.py")

    def test_live_marker_is_not_stale(self, tmp_path, capsys):
        prog = tmp_path / "seeded_program.py"
        prog.write_text(
            HEADER
            + textwrap.dedent("""
                import random

                class SeededProgram(NodeProgram):
                    def step(self, ctx):
                        self.output = random.random()  # repro-lint: disable=L3
                        self.done = True
                        return {}
            """)
        )
        assert lint_main([str(prog)]) == 0
        assert "stale" not in capsys.readouterr().out


class TestSuppressedCount:
    """Satellite regression: `summary.suppressed_count` in --format=json."""

    SOURCE = HEADER + textwrap.dedent("""
        import random

        class SeededProgram(NodeProgram):
            def step(self, ctx):
                self.output = random.random()  # repro-lint: disable=L3
                self.done = True
                return {}
    """)

    def test_inline_suppressions_are_counted(self, tmp_path, capsys):
        prog = tmp_path / "seeded_program.py"
        prog.write_text(self.SOURCE)
        assert lint_main(["--format=json", str(prog)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"] == {
            "total": 0,
            "by_rule": {},
            "suppressed_count": 1,
        }
        assert report["findings"] == []  # hidden without --show-suppressed

    def test_show_suppressed_reveals_findings_but_not_the_count(
        self, tmp_path, capsys
    ):
        prog = tmp_path / "seeded_program.py"
        prog.write_text(self.SOURCE)
        assert lint_main(["--format=json", "--show-suppressed", str(prog)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["suppressed_count"] == 1
        assert [f["rule"] for f in report["findings"]] == ["L3"]
