"""The experiment engine itself: serial vs parallel vs warm cache.

Seeds the repo's bench trajectory for `repro run` (the numbers land in
``BENCH_runner.json`` when run via ``repro run --bench``); here the same
three configurations are timed under pytest-benchmark on shrunken
sweeps, asserting byte-identical tables and full cache reuse.
"""

from benchmarks.conftest import (
    RUNNER_SMALL_IDS,
    RUNNER_SMALL_OVERRIDES,
    run_once,
)
from repro.runner import run_experiments


def test_runner_serial_baseline(benchmark):
    """The jobs=1 in-process path (the legacy serial report's shape)."""
    report, results, stats = run_once(
        benchmark,
        run_experiments,
        RUNNER_SMALL_IDS,
        jobs=1,
        overrides=RUNNER_SMALL_OVERRIDES,
    )
    assert stats.ok == stats.cells and stats.cells > 0
    assert "== T3:" in report and "== L6:" in report
    benchmark.extra_info["cells"] = stats.cells


def test_runner_parallel_is_byte_identical(benchmark):
    """Fan-out over a process pool must not change a byte of output."""
    serial_report, _, _ = run_experiments(
        RUNNER_SMALL_IDS, jobs=1, overrides=RUNNER_SMALL_OVERRIDES
    )
    report, _, stats = run_once(
        benchmark,
        run_experiments,
        RUNNER_SMALL_IDS,
        jobs=4,
        overrides=RUNNER_SMALL_OVERRIDES,
    )
    assert report == serial_report
    assert stats.failed == 0 and stats.timeouts == 0
    benchmark.extra_info["jobs"] = 4


def test_runner_warm_cache(benchmark, runner_cache):
    """A second invocation re-reads every cell from disk (100% hits)."""
    cold_report, _, cold = run_experiments(
        RUNNER_SMALL_IDS, jobs=1, cache=runner_cache,
        overrides=RUNNER_SMALL_OVERRIDES,
    )
    report, _, warm = run_once(
        benchmark,
        run_experiments,
        RUNNER_SMALL_IDS,
        jobs=1,
        cache=runner_cache,
        overrides=RUNNER_SMALL_OVERRIDES,
    )
    assert report == cold_report
    assert warm.cache_hit_rate == 1.0
    benchmark.extra_info["cold_seconds"] = cold.wall_seconds
    benchmark.extra_info["cache_hit_rate"] = warm.cache_hit_rate
