"""Result envelopes, the per-cell JSONL log, and the bench summary.

Every cell execution — cached or fresh, successful or not — produces one
:class:`CellResult`.  The JSONL log is one JSON object per cell with the
schema documented in ``docs/runner.md``; ``BENCH_runner.json`` aggregates
a serial-vs-parallel-vs-cached comparison for the repo's bench
trajectory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "CellResult",
    "RunStats",
    "write_jsonl",
    "bench_summary",
]

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclass
class CellResult:
    """Outcome of one (experiment, params) cell."""

    experiment: str
    fn: str
    params: Dict[str, Any]
    status: str
    value: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class RunStats:
    """Aggregate of one engine run (attached to the result list)."""

    cells: int = 0
    ok: int = 0
    failed: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    by_experiment: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cells if self.cells else 0.0

    def to_json(self) -> Dict[str, Any]:
        data = asdict(self)
        data["cache_hit_rate"] = self.cache_hit_rate
        return data

    def summary_line(self) -> str:
        bits = [
            f"{self.cells} cells",
            f"{self.ok} ok",
            f"{self.cache_hits} cached",
        ]
        if self.failed:
            bits.append(f"{self.failed} failed")
        if self.timeouts:
            bits.append(f"{self.timeouts} timed out")
        bits.append(f"jobs={self.jobs}")
        bits.append(f"{self.wall_seconds:.2f}s")
        return ", ".join(bits)


def collect_stats(results: List[CellResult], jobs: int, wall: float) -> RunStats:
    stats = RunStats(jobs=jobs, wall_seconds=wall)
    for res in results:
        stats.cells += 1
        if res.status == STATUS_OK:
            stats.ok += 1
        elif res.status == STATUS_TIMEOUT:
            stats.timeouts += 1
        else:
            stats.failed += 1
        if res.cached:
            stats.cache_hits += 1
        stats.by_experiment[res.experiment] = (
            stats.by_experiment.get(res.experiment, 0) + 1
        )
    return stats


def write_jsonl(path: str, results: List[CellResult]) -> None:
    """One JSON object per cell, in deterministic (plan) order."""
    with open(path, "w") as handle:
        for res in results:
            handle.write(json.dumps(res.to_json(), sort_keys=True))
            handle.write("\n")


def bench_summary(
    ids: List[str],
    serial: RunStats,
    parallel: RunStats,
    cached: RunStats,
) -> Dict[str, Any]:
    """The ``BENCH_runner.json`` payload: serial vs parallel vs warm cache.

    ``speedup_parallel_over_serial`` is left out when the "parallel" run
    had a single worker: two jobs=1 runs differ only by noise, so their
    ratio is no speedup.
    """
    summary: Dict[str, Any] = {
        "benchmark": "repro.runner",
        "ids": ids,
        "cells": serial.cells,
        "serial": serial.to_json(),
        "parallel": parallel.to_json(),
        "cached_rerun": cached.to_json(),
        "cached_hit_rate": cached.cache_hit_rate,
    }
    if parallel.jobs > 1 and parallel.wall_seconds > 0:
        summary["speedup_parallel_over_serial"] = (
            serial.wall_seconds / parallel.wall_seconds
        )
    return summary
