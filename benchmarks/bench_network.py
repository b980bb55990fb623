"""Gather benchmark: delta vs full flood, per-node vs the whole-round kernel.

Produces ``BENCH_network.json``: for every (family, n, radius) cell the
output-sensitive delta gather runs on both paths (a ``SyncNetwork`` of
:class:`~repro.localmodel.gather.DeltaGatherProgram` nodes, and
``gather_balls``, which runs the whole-round
:class:`~repro.localmodel.gather.DeltaGatherKernel`) together with the
full-flood oracle ``reference_gather`` of ``tests/oracles.py``; all per-node
:class:`~repro.localmodel.gather.KnownBall` outputs are asserted
identical and three figures are recorded per cell --

* **wall-clock** per path (best of a few uninstrumented runs):
  ``node_seconds``, ``batch_seconds``, ``flood_seconds``; each side
  times the same work, every ball's edge set included.  The batch side
  calls ``gather_balls`` without ``info``, so its seconds time an
  uncounted gather: the kernel counts sends only for a caller that
  reads them;
* **time_speedup** = flood / batch: the headline the gather kernel
  exists for.  PR 8's delta rewrite cut message *volume* 6-25x yet lost
  wall-clock (0.70-0.78x) to per-node Python dispatch; compiling the
  round to one kernel call flips the ratio;
* **fact volume**: a run under a counting sink totalling the facts
  (state entries + edge tuples) crossing the wire, charged per the
  :data:`~repro.localmodel.network.WIRE_STATUSES` contract.  Sinks
  observe per-message records, so the delta side is measured on the
  per-node ``SyncNetwork`` run the ``node`` path times -- volume is
  path-invariant by the equivalence contract.

The ``path`` n=100000 cell is batch-scale evidence (the ROADMAP's
n >= 10^5 target): the flood is omitted there (its volume is quadratic
in ball size per round and would take minutes), so the row carries
``node_speedup`` (per-node delta / batch) instead of ``time_speedup``.

Unlike the rest of ``benchmarks/`` this is a standalone script, not a
pytest-benchmark module, because its artifact is the committed JSON:

    PYTHONPATH=src python benchmarks/bench_network.py                  # full sweep
    PYTHONPATH=src python benchmarks/bench_network.py --quick --check  # CI smoke

``--quick`` shrinks the sweep to two small cells; ``--path`` limits
which delta paths are timed (K2's ``path`` column names the same two):
``node`` steps a plain ``SyncNetwork``, ``batch`` calls ``gather_balls``,
which always runs the kernel (``--path batch`` is the CI smoke of the
kernel path alone).

Every row that times the batch path also records its memory, from one
untimed ``gather_balls`` call under ``tracemalloc``: ``batch_peak_mb``,
the traced allocation peak of the call, and ``batch_held_mb``, what the
returned balls still hold.  The kernel frees its round state before it
builds the balls, and each round's spheres are new, right-sized sets,
so the peak is the balls themselves: peak/held is 1.00-1.017 on every
full and quick row on Python 3.10, 3.11 and 3.12 (1.012 at n=10^5:
124.8 MB over 123.2 MB on 3.11).  With the spheres thinned in place,
CPython's resize of a set that is more than a quarter dummies left the
rounds above the balls: 1.01-1.53 on the path cells (1.50 at n=10^5,
185.0 MB), 1.45 on the quick interval cell and 1.92-2.05 on the
chordal cells.
``--check`` fails a row whose ratio exceeds its family's bound in
:data:`PEAK_OVER_HELD`.

``--check`` exits nonzero unless every output pair matched and the
acceptance gates held: on the full sweep, volume reduction >= 10x,
``time_speedup`` >= 3.0 *and* never < 1.0 (a volume win may not ship a
seconds loss again), and the n=100000 cell in single-digit seconds; on
the quick sweep, identity and volume reduction > 1x; on both, the
memory bound above.  The JSON records the machine's CPU count and the
Python version, so sweeps from different machines are not compared as
if they were one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.graphs.adjacency import Graph, Vertex
from repro.graphs.generators import (
    path_graph,
    random_chordal_graph,
    unit_interval_chain,
)
from repro.graphs.index import graph_index
from repro.localmodel.gather import DeltaGatherProgram, gather_balls
from repro.localmodel.network import (
    WIRE_STATUSES,
    MessageRecord,
    SyncNetwork,
    TraceSink,
)
from tests.oracles import reference_gather

OUT_PATH = ROOT / "BENCH_network.json"

#: (family, n, radius, time_flood, measure_volume) cells of the full
#: sweep; radii mirror the pipeline (collect_radius = 10 for MVC at
#: k=1, 15 for MIS at d=1) plus the deep-radius acceptance cell, the
#: saturation/burst chordal cells, and the n=10^5 batch-scale cell
#: (flood and volume instrumentation skipped: both are per-node-path
#: and quadratic-ish in ball volume at that size).
FULL_CELLS: Tuple[Tuple[str, int, int, bool, bool], ...] = (
    ("path", 2000, 10, True, True),
    ("path", 5000, 24, True, True),
    ("interval", 2000, 10, True, True),
    ("interval", 2000, 15, True, True),
    ("chordal", 500, 12, True, True),
    ("chordal", 1000, 8, True, True),
    ("path", 20000, 10, True, True),
    ("path", 100000, 10, False, False),
)

QUICK_CELLS: Tuple[Tuple[str, int, int, bool, bool], ...] = (
    ("path", 400, 12, True, True),
    ("interval", 300, 6, True, True),
)

#: the acceptance criteria are pinned to this cell ...
ACCEPTANCE_CELL = ("path", 5000, 24)
#: ... and the batch-scale criterion to this one
LARGE_CELL = ("path", 100000, 10)

#: wall-clock gates at the acceptance cell (and the floor everywhere a
#: speedup is measured: batch must never lose seconds again)
REQUIRED_TIME_SPEEDUP = 3.0
REQUIRED_TIME_FLOOR = 1.0
#: wall-clock gate at the large cell: single-digit seconds
REQUIRED_LARGE_SECONDS = 10.0

#: per family, the largest batch_peak_mb / batch_held_mb a row may show
PEAK_OVER_HELD: Dict[str, float] = {"path": 1.1, "interval": 1.1, "chordal": 1.1}

MB = 2**20

FAMILIES: Dict[str, Callable[[int], Graph]] = {
    "path": path_graph,
    "interval": lambda n: unit_interval_chain(n, seed=0),
    "chordal": lambda n: random_chordal_graph(n, seed=7),
}

#: best-of repeats for timed runs (1 at large n: one run is minutes of
#: signal there and variance is already amortized)
def _repeats(n: int) -> int:
    return 3 if n <= 5000 else 1


class FactVolumeSink(TraceSink):
    """Counts facts on the wire: state entries + edges, per charged record.

    Charging follows the wire contract (``WIRE_STATUSES``): dropped and
    delayed payloads crossed the wire, a matured ``"late"`` record is the
    delivery of an already-charged transmission.  On the reliable runs
    here every record is simply ``"delivered"``.
    """

    def __init__(self) -> None:
        self.facts = 0
        self.messages = 0

    def on_round(
        self,
        round_no: int,
        messages: List[MessageRecord],
        completed: List[Vertex],
        active_count: int,
    ) -> None:
        for record in messages:
            if record.status not in WIRE_STATUSES:
                continue
            d_states, d_edges = record.payload
            self.facts += len(d_states) + len(d_edges)
            self.messages += 1


def _node_gather(g: Graph, radius: int, sinks: Optional[List[TraceSink]] = None):
    """The delta gather stepped node by node on a ``SyncNetwork``.

    Collection is paused for the run, as ``gather_balls`` does, so the
    node and batch timings differ only in dispatch.  ``sinks`` observe
    the run (the volume measurement; the timed runs attach none).
    """
    index = graph_index(g)
    net = SyncNetwork(
        g,
        lambda v, nbrs: DeltaGatherProgram(v, nbrs, radius, None, index),
        sinks=sinks,
    )
    gc.disable()
    try:
        balls = net.run(max_rounds=radius + 1)
    finally:
        gc.enable()
    return balls, net.stats.rounds


def _batch_gather(g: Graph, radius: int):
    """``gather_balls``, which runs the whole-round kernel, uncounted.

    No ``info`` is passed, so the kernel counts no sends.  It builds a
    ball's edge set when it is first read, while the node and flood
    sides build every one; reading them all here keeps the timed work
    the same on every side.
    """
    balls, rounds = gather_balls(g, radius)
    for ball in balls.values():
        len(ball.edges)
    return balls, rounds


#: the two delta-gather dispatch paths ``--path`` chooses from
DELTA_GATHERS: Dict[str, Callable] = {"node": _node_gather, "batch": _batch_gather}


def _batch_memory(g: Graph, radius: int) -> Tuple[float, float]:
    """Traced peak and held MB of one ``gather_balls`` call, untimed.

    Held is what is still allocated when the call returns: the balls,
    since the graph's index and its caches exist from the timed runs.
    """
    gc.collect()
    tracemalloc.start()
    try:
        balls, _ = gather_balls(g, radius)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MB, held / MB


def _timed_gather(gather: Callable, g: Graph, radius: int, repeats: int):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        balls, rounds = gather(g, radius)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return balls, rounds, best


def _measured_volume(gather: Callable, g: Graph, radius: int) -> FactVolumeSink:
    sink = FactVolumeSink()
    gather(g, radius, sinks=[sink])
    return sink


def _cell(
    rows: List[dict],
    family: str,
    n: int,
    radius: int,
    paths: Tuple[str, ...],
    time_flood: bool,
    measure_volume: bool,
) -> None:
    g = FAMILIES[family](n)
    m = graph_index(g).m
    repeats = _repeats(n)

    outputs = {}
    seconds: Dict[str, Optional[float]] = {"node": None, "batch": None}
    rounds = None
    for path in paths:
        balls, rounds, t = _timed_gather(DELTA_GATHERS[path], g, radius, repeats)
        outputs[path] = balls
        seconds[path] = t
    flood_seconds = None
    if time_flood:
        # the flood has no batch kernel: it always steps node by node
        balls, flood_rounds, flood_seconds = _timed_gather(
            reference_gather, g, radius, repeats
        )
        outputs["flood"] = balls
        assert flood_rounds == rounds, f"round count diverged on {family} n={n}"

    runs = list(outputs)
    identical = all(outputs[runs[0]] == outputs[k] for k in runs[1:])
    assert identical, f"outputs diverged ({runs}) on {family} n={n} r={radius}"
    outputs.clear()

    node_s, batch_s = seconds["node"], seconds["batch"]
    time_speedup = (
        round(flood_seconds / batch_s, 2)
        if flood_seconds is not None and batch_s
        else None
    )
    node_speedup = round(node_s / batch_s, 2) if node_s and batch_s else None
    peak_mb = held_mb = None
    if "batch" in paths:
        peak_mb, held_mb = _batch_memory(g, radius)

    delta_facts = flood_facts = delta_messages = flood_messages = None
    volume_reduction = None
    if measure_volume:
        delta_vol = _measured_volume(_node_gather, g, radius)
        flood_vol = _measured_volume(reference_gather, g, radius)
        delta_facts, delta_messages = delta_vol.facts, delta_vol.messages
        flood_facts, flood_messages = flood_vol.facts, flood_vol.messages
        if delta_facts:
            volume_reduction = round(flood_facts / delta_facts, 2)

    rows.append(
        {
            "family": family,
            "n": n,
            "m": m,
            "radius": radius,
            "rounds": rounds,
            "node_seconds": round(node_s, 4) if node_s is not None else None,
            "batch_seconds": round(batch_s, 4) if batch_s is not None else None,
            "flood_seconds": (
                round(flood_seconds, 4) if flood_seconds is not None else None
            ),
            "time_speedup": time_speedup,
            "node_speedup": node_speedup,
            "delta_facts": delta_facts,
            "flood_facts": flood_facts,
            "delta_messages": delta_messages,
            "flood_messages": flood_messages,
            "volume_reduction": volume_reduction,
            "batch_peak_mb": round(peak_mb, 2) if peak_mb is not None else None,
            "batch_held_mb": round(held_mb, 2) if held_mb is not None else None,
            "identical": identical,
        }
    )
    memory = (
        f", batch peak {peak_mb:.1f} MB / held {held_mb:.1f} MB"
        if peak_mb is not None
        else ""
    )
    print(
        f"  {family} n={n} r={radius}: node {_fmt(node_s)} batch {_fmt(batch_s)}"
        f" flood {_fmt(flood_seconds)} (speedup {time_speedup}x),"
        f" volume reduction {volume_reduction}x, identical={identical}{memory}"
    )


def _fmt(seconds: Optional[float]) -> str:
    return f"{seconds:.3f}s" if seconds is not None else "-"


def run(quick: bool, paths: Tuple[str, ...]) -> dict:
    rows: List[dict] = []
    for family, n, radius, time_flood, measure_volume in (
        QUICK_CELLS if quick else FULL_CELLS
    ):
        print(f"== {family} n={n} r={radius}")
        _cell(rows, family, n, radius, paths, time_flood, measure_volume)

    def _at(cell: Tuple[str, int, int]) -> Optional[dict]:
        for row in rows:
            if (row["family"], row["n"], row["radius"]) == cell:
                return row
        return None

    acceptance_row = _at(ACCEPTANCE_CELL)
    large_row = _at(LARGE_CELL)
    reductions = [
        r["volume_reduction"] for r in rows if r["volume_reduction"] is not None
    ]
    return {
        "benchmark": "repro.localmodel.gather",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "paths": list(paths),
        "peak_over_held_bounds": PEAK_OVER_HELD,
        "rows": rows,
        "all_outputs_identical": all(r["identical"] for r in rows),
        "min_volume_reduction": min(reductions) if reductions else None,
        "max_volume_reduction": max(reductions) if reductions else None,
        "acceptance": {
            "cell": {
                "family": ACCEPTANCE_CELL[0],
                "n": ACCEPTANCE_CELL[1],
                "radius": ACCEPTANCE_CELL[2],
            },
            "volume_reduction_at_n5000_r24": (
                acceptance_row["volume_reduction"] if acceptance_row else None
            ),
            "required_reduction": 10.0,
            "time_speedup_at_n5000_r24": (
                acceptance_row["time_speedup"] if acceptance_row else None
            ),
            "required_time_speedup": REQUIRED_TIME_SPEEDUP,
            "required_time_floor": REQUIRED_TIME_FLOOR,
            "large_cell": {
                "family": LARGE_CELL[0],
                "n": LARGE_CELL[1],
                "radius": LARGE_CELL[2],
            },
            "batch_seconds_at_n100000": (
                large_row["batch_seconds"] if large_row else None
            ),
            "required_large_seconds": REQUIRED_LARGE_SECONDS,
        },
    }


def _check(payload: dict, quick: bool) -> int:
    if not payload["all_outputs_identical"]:
        print("FAIL: gather outputs diverged between paths and the flood")
        return 1
    timed_batch = "batch" in payload["paths"]
    for row in payload["rows"]:
        if row["batch_held_mb"] is None:
            continue
        ratio = row["batch_peak_mb"] / row["batch_held_mb"]
        bound = PEAK_OVER_HELD[row["family"]]
        if ratio > bound:
            print(
                f"FAIL: {row['family']} n={row['n']} r={row['radius']} gather"
                f" peaked at {ratio:.2f}x what its balls hold (bound {bound}x)"
            )
            return 1
    if quick:
        reduction = payload["min_volume_reduction"]
        if reduction is None or reduction <= 1.0:
            print("FAIL: delta did not reduce message volume")
            return 1
        print(
            "check passed: outputs identical, delta reduced volume everywhere,"
            " gather peaks within bounds"
        )
        return 0
    acceptance = payload["acceptance"]
    reduction = acceptance["volume_reduction_at_n5000_r24"]
    if reduction is None or reduction < acceptance["required_reduction"]:
        print(f"FAIL: acceptance cell reduction {reduction} < 10x")
        return 1
    if timed_batch:
        speedup = acceptance["time_speedup_at_n5000_r24"]
        if speedup is None or speedup < REQUIRED_TIME_SPEEDUP:
            print(
                f"FAIL: acceptance cell time_speedup {speedup}"
                f" < {REQUIRED_TIME_SPEEDUP}"
            )
            return 1
        floors = [
            r["time_speedup"]
            for r in payload["rows"]
            if r["time_speedup"] is not None
        ]
        if any(s < REQUIRED_TIME_FLOOR for s in floors):
            print(f"FAIL: a batch cell lost wall-clock to the flood: {floors}")
            return 1
        large = acceptance["batch_seconds_at_n100000"]
        if large is None or large >= REQUIRED_LARGE_SECONDS:
            print(f"FAIL: n=100000 batch gather took {large}s (>= 10s)")
            return 1
    print(
        f"check passed: outputs identical, {reduction}x at the acceptance cell,"
        " gather peaks within bounds"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless outputs matched and the acceptance gates held",
    )
    parser.add_argument(
        "--path",
        choices=("node", "batch", "all"),
        default="all",
        help="which delta paths to time (batch is gather_balls' kernel)",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON output path")
    args = parser.parse_args(argv)

    paths = ("node", "batch") if args.path == "all" else (args.path,)
    payload = run(quick=args.quick, paths=paths)
    if payload["min_volume_reduction"] is not None:
        print(
            f"volume reduction {payload['min_volume_reduction']}x .."
            f" {payload['max_volume_reduction']}x across {len(payload['rows'])} cells"
        )

    if args.check:
        status = _check(payload, args.quick)
        if status:
            return status

    out = args.out
    if out is None and not args.quick:
        out = OUT_PATH
    if out is not None:
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
