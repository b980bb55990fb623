"""Cross-validation of the static analyzer and the sealed runtime.

The contract: the repro package itself is clean; every deliberately
cheating fixture program is flagged statically at its file:line; and the
runtime-detectable cheats (L4 peeking, L5 tampering) are also caught by
sealed execution while running to completion -- producing silently invalid
results -- without it.
"""

from __future__ import annotations

import json

import pytest

from repro.graphs import path_graph
from repro.lint import active_findings, main as lint_main
from repro.localmodel import SealedContextError, SyncNetwork
from tests.oracles import dense_scheduling

from .conftest import CHEATERS, FIXTURES_DIR
from .fixtures.cheating_programs import (
    CoinFlipProgram,
    ContextTamperProgram,
    GlobalPeekProgram,
    InboxTamperProgram,
    MessageTamperProgram,
    NosyProgram,
    SharedScratchProgram,
    SilentCountdownProgram,
)


class TestPackageConformance:
    def test_repro_package_is_clean(self, package_findings):
        """No active finding anywhere in the package, and no baseline."""
        assert active_findings(package_findings) == []

    def test_cli_exits_zero_on_package(self, capsys):
        assert lint_main([]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out


class TestStaticDetection:
    EXPECTED = {
        "L1": "GlobalPeekProgram.step",
        "L3": "CoinFlipProgram.step",
        "L4": "NosyProgram.step",
        "L6": "SilentCountdownProgram.step",
    }

    def test_every_rule_fires_on_the_fixtures(self, cheater_findings):
        assert {f.rule for f in active_findings(cheater_findings)} == {
            "L1",
            "L2",
            "L3",
            "L4",
            "L5",
            "L6",
        }

    @pytest.mark.parametrize("rule,symbol", sorted(EXPECTED.items()))
    def test_single_violation_rules_name_the_culprit(
        self, cheater_findings, rule, symbol
    ):
        matches = [f for f in cheater_findings if f.rule == rule]
        assert [f.symbol for f in matches] == [symbol]

    def test_l2_catches_class_attribute_and_default_argument(self, cheater_findings):
        symbols = {f.symbol for f in cheater_findings if f.rule == "L2"}
        assert symbols == {"SharedScratchProgram", "SharedScratchProgram.remember"}

    def test_l5_catches_all_three_tamper_styles(self, cheater_findings):
        symbols = {f.symbol for f in cheater_findings if f.rule == "L5"}
        assert symbols == {
            "MessageTamperProgram.step",
            "InboxTamperProgram.step",
            "ContextTamperProgram.step",
        }

    def test_findings_carry_real_locations(self, cheater_findings):
        source_lines = CHEATERS.read_text().splitlines()
        for f in cheater_findings:
            assert f.path.endswith("cheating_programs.py")
            assert 1 <= f.line <= len(source_lines)

    def test_cli_text_report_and_exit_code(self, capsys):
        assert lint_main([str(CHEATERS)]) == 1
        out = capsys.readouterr().out
        for rule in ("L1", "L2", "L3", "L4", "L5", "L6"):
            assert rule in out
        assert "cheating_programs.py:" in out

    def test_cli_json_report(self, capsys):
        assert lint_main(["--format=json", str(CHEATERS)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["total"] == len(report["findings"]) > 0
        assert set(report["summary"]["by_rule"]) == {
            "L1", "L2", "L3", "L4", "L5", "L6",
        }
        for finding in report["findings"]:
            assert finding["line"] >= 1 and finding["path"].endswith(
                "cheating_programs.py"
            )

    def test_cli_select_filters_rules(self, capsys):
        assert lint_main(["--select", "L3", str(CHEATERS)]) == 1
        out = capsys.readouterr().out
        assert "L3" in out and "L1" not in out

    def test_cli_rejects_unknown_path(self):
        assert lint_main([str(FIXTURES_DIR / "no_such_file.py")]) == 2


def _run(program_factory, sealed, n=4):
    net = SyncNetwork(path_graph(n), program_factory, sealed=sealed)
    return net.run(max_rounds=10)


class TestSealedRuntimeDetection:
    """The dynamic half: cheats that sealed execution catches red-handed."""

    def test_nosy_peek_raises_only_when_sealed(self):
        n = 4
        factory = lambda v, nbrs: NosyProgram(v, nbrs, victim=(v + 2) % n)
        outputs = _run(factory, sealed=False, n=n)
        assert set(outputs) == set(range(n))  # ran to completion unsealed
        with pytest.raises(SealedContextError, match="not one of its declared"):
            _run(factory, sealed=True, n=n)

    def test_message_tamper_raises_only_when_sealed(self):
        outputs = _run(MessageTamperProgram, sealed=False)
        assert all(isinstance(v, list) for v in outputs.values())
        with pytest.raises(SealedContextError, match="frozen"):
            _run(MessageTamperProgram, sealed=True)

    def test_inbox_tamper_raises_only_when_sealed(self):
        outputs = _run(InboxTamperProgram, sealed=False)
        assert outputs == {0: 1, 1: 2, 2: 2, 3: 1}
        with pytest.raises(SealedContextError, match="mutate its inbox"):
            _run(InboxTamperProgram, sealed=True)

    def test_context_tamper_raises_only_when_sealed(self):
        outputs = _run(ContextTamperProgram, sealed=False)
        assert set(outputs.values()) == {0}
        with pytest.raises(SealedContextError, match="read-only"):
            _run(ContextTamperProgram, sealed=True)

    def test_l6_starvation_is_real_under_the_active_scheduler(self):
        # The dynamic counterpart of L6: the flagged fixture genuinely
        # starves under active-set scheduling (the engine detects it and
        # raises instead of spinning), while the dense-stepping oracle
        # completes the same program.
        with dense_scheduling():
            dense = SyncNetwork(path_graph(4), SilentCountdownProgram)
            outputs = dense.run(max_rounds=10)
        assert set(outputs.values()) == {5}
        active = SyncNetwork(path_graph(4), SilentCountdownProgram)
        with pytest.raises(RuntimeError, match="starv"):
            active.run(max_rounds=10)

    def test_statically_invisible_cheats_still_run_sealed(self):
        # L1/L2/L3 violations are pure local computation: no runtime guard
        # can see them, which is exactly why the static analyzer exists.
        for factory in (GlobalPeekProgram, SharedScratchProgram, CoinFlipProgram):
            _run(factory, sealed=True)

    def test_runtime_cheats_are_also_flagged_statically(self, cheater_findings):
        """Every sealed-mode catch has a static counterpart (cross-check)."""
        flagged = {f.symbol for f in active_findings(cheater_findings)}
        for symbol in (
            "NosyProgram.step",
            "MessageTamperProgram.step",
            "InboxTamperProgram.step",
            "ContextTamperProgram.step",
        ):
            assert symbol in flagged
