"""Parallel, cached experiment engine behind ``repro run``.

The sweeps that verify every quantitative claim of EXPERIMENTS.md are
embarrassingly parallel across graph instances.  This package is the one
place they are implemented: it registers each of them as a named,
parameterized experiment (ids ``T3`` through ``S1``, see
:mod:`repro.runner.registry`; the cells live in :mod:`repro.runner.cells`),
fans the individual cells out over a process pool with per-cell timeouts and
crash isolation, caches successful cell results on disk under
content-addressed keys, and folds the payloads back into byte-identical
EXPERIMENTS.md tables regardless of completion order.

High-level API::

    from repro import runner
    report, results, stats = runner.run_experiments(["T4"], jobs=4)
    print(report)                 # the EXPERIMENTS.md table text
    print(stats.summary_line())   # cells / failures / cache hits / wall

See ``docs/runner.md`` for the cache-key design, the failure semantics,
and the JSONL schema.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cache import ResultCache, default_cache_dir
from .engine import execute_cell, run_cells
from .registry import (
    REGISTRY,
    CellSpec,
    Experiment,
    UnknownExperimentError,
    experiment_ids,
    plan_cells,
    render_report,
    resolve_ids,
)
from .results import CellResult, RunStats, bench_summary, write_jsonl

__all__ = [
    "REGISTRY",
    "CellSpec",
    "CellResult",
    "Experiment",
    "ResultCache",
    "RunStats",
    "UnknownExperimentError",
    "bench_summary",
    "default_cache_dir",
    "execute_cell",
    "experiment_ids",
    "plan_cells",
    "render_report",
    "resolve_ids",
    "run_bench",
    "run_cells",
    "run_experiments",
    "write_jsonl",
]


def run_experiments(
    ids: Optional[List[str]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
    timeout: Optional[float] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    jsonl: Optional[str] = None,
    on_result: Optional[Callable[[CellResult], None]] = None,
) -> Tuple[str, List[CellResult], RunStats]:
    """Plan, execute, and render the chosen experiments.

    Returns ``(report text, per-cell results in plan order, stats)``.
    Caching is opt-in: pass ``use_cache=True`` (optionally with
    ``cache_dir``) or an explicit :class:`ResultCache`.
    """
    canonical = resolve_ids(ids or [])
    if cache is None and use_cache:
        cache = ResultCache(cache_dir)
    specs = plan_cells(canonical, overrides)
    results, stats = run_cells(
        specs, jobs=jobs, cache=cache, timeout=timeout, on_result=on_result
    )
    if jsonl:
        write_jsonl(jsonl, results)
    report = render_report(specs, [r.value for r in results], canonical)
    return report, results, stats


def run_bench(
    ids: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Serial vs parallel vs warm-cache comparison (``BENCH_runner.json``).

    Three runs over the same cells: jobs=1 without cache (the serial
    baseline), jobs=N against a fresh cache (cold parallel), and
    jobs=N again (warm — measures pure cache-hit latency).  Also asserts
    the three reports are byte-identical and records the verdict and the
    machine's CPU count (see :func:`~repro.runner.results.bench_summary`
    for when the parallel speedup is reported).
    """
    import os
    import tempfile

    canonical = resolve_ids(ids or [])
    jobs = jobs or os.cpu_count() or 2
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(Path(tmp))
        serial_report, _, serial = run_experiments(
            canonical, jobs=1, overrides=overrides, timeout=timeout
        )
        parallel_report, _, parallel = run_experiments(
            canonical, jobs=jobs, cache=cache, overrides=overrides, timeout=timeout
        )
        cached_report, _, cached = run_experiments(
            canonical, jobs=jobs, cache=cache, overrides=overrides, timeout=timeout
        )
    summary = bench_summary(canonical, serial, parallel, cached)
    summary["cpu_count"] = os.cpu_count()
    summary["reports_identical"] = (
        serial_report == parallel_report == cached_report
    )
    return summary
