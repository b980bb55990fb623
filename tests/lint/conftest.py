"""Local pytest plugin for the conformance suite.

Registers session-scoped fixtures so the (comparatively expensive)
package-wide AST analysis runs once per session, shared by every test in
``tests/lint``.  ``package_findings`` is the same analysis that
``python -m repro.lint`` performs in CI; keeping it inside the test run
means a conformance regression fails ``pytest`` even where the standalone
lint step is not wired up.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import analyze_paths

REPRO_PACKAGE = Path(repro.__file__).resolve().parent
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
CHEATERS = FIXTURES_DIR / "cheating_programs.py"
BANDWIDTH_CHEATERS = FIXTURES_DIR / "bandwidth_programs.py"


@pytest.fixture(scope="session")
def package_findings():
    """Lint findings for the whole installed repro package."""
    return analyze_paths([REPRO_PACKAGE])


@pytest.fixture(scope="session")
def cheater_findings():
    """Lint findings for the deliberately nonconforming fixture programs."""
    return analyze_paths([CHEATERS])


@pytest.fixture(scope="session")
def bandwidth_findings():
    """Lint findings for the deliberately bandwidth-leaky fixture programs."""
    return analyze_paths([BANDWIDTH_CHEATERS])
