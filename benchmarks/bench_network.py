"""Gather benchmark: delta vs full flood, per-node vs batch executor.

Produces ``BENCH_network.json``: for every (family, n, radius) cell the
output-sensitive :class:`~repro.localmodel.gather.DeltaGatherProgram` is
run under both executors (per-node scheduler and the whole-round
:class:`~repro.localmodel.gather.DeltaGatherKernel`) together with the
full-flood oracle ``reference_gather`` of ``tests/oracles.py``; all per-node
:class:`~repro.localmodel.gather.KnownBall` outputs are asserted
identical and three figures are recorded per cell --

* **wall-clock** per executor (best of a few uninstrumented runs):
  ``node_seconds``, ``batch_seconds``, ``flood_seconds``;
* **time_speedup** = flood / batch: the headline the batch executor
  exists for.  PR 8's delta rewrite cut message *volume* 6-25x yet lost
  wall-clock (0.70-0.78x) to per-node Python dispatch; compiling the
  round to one kernel call flips the ratio;
* **fact volume**: a run under a counting sink totalling the facts
  (state entries + edge tuples) crossing the wire, charged per the
  :data:`~repro.localmodel.network.WIRE_STATUSES` contract.  Sinks
  observe per-message records, so these runs always take the per-node
  path -- volume is executor-invariant by the equivalence contract.

The ``path`` n=100000 cell is batch-scale evidence (the ROADMAP's
n >= 10^5 target): the flood is omitted there (its volume is quadratic
in ball size per round and would take minutes), so the row carries
``node_speedup`` (per-node delta / batch) instead of ``time_speedup``.

Unlike the rest of ``benchmarks/`` this is a standalone script, not a
pytest-benchmark module, because its artifact is the committed JSON:

    PYTHONPATH=src python benchmarks/bench_network.py                  # full sweep
    PYTHONPATH=src python benchmarks/bench_network.py --quick --check  # CI smoke

``--quick`` shrinks the sweep to two small cells; ``--executor`` limits
which delta paths are timed: ``node`` steps a plain ``SyncNetwork``,
``batch`` calls ``gather_balls`` and asserts it took the kernel
(``--executor batch`` is the CI smoke proving kernel eligibility end to
end -- a silent fallback fails it).  ``--check`` exits nonzero
unless every output pair matched and the acceptance gates held: on the
full sweep, volume reduction >= 10x, ``time_speedup`` >= 3.0 *and*
never < 1.0 (a volume win may not ship a seconds loss again), and the
n=100000 cell in single-digit seconds; on the quick sweep, identity and
volume reduction > 1x.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

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


def _node_gather(g: Graph, radius: int):
    """The delta gather stepped node by node on a plain ``SyncNetwork``.

    Collection is paused for the run, as ``gather_balls`` does, so the
    node and batch timings differ only in dispatch.
    """
    index = graph_index(g)
    net = SyncNetwork(
        g, lambda v, nbrs: DeltaGatherProgram(v, nbrs, radius, None, index)
    )
    gc.disable()
    try:
        balls = net.run(max_rounds=radius + 1)
    finally:
        gc.enable()
    return balls, net.stats.rounds


def _batch_gather(g: Graph, radius: int):
    """``gather_balls``, which must take the whole-round kernel."""
    info: Dict[str, Any] = {}
    balls, rounds = gather_balls(g, radius, info=info)
    assert info["executed"] == "batch", info["fallback_reason"]
    return balls, rounds


#: the two delta-gather dispatch paths ``--executor`` chooses from
DELTA_GATHERS: Dict[str, Callable] = {"node": _node_gather, "batch": _batch_gather}


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
    executors: Tuple[str, ...],
    time_flood: bool,
    measure_volume: bool,
) -> None:
    g = FAMILIES[family](n)
    m = graph_index(g).m
    repeats = _repeats(n)

    outputs = {}
    seconds: Dict[str, Optional[float]] = {"node": None, "batch": None}
    rounds = None
    for executor in executors:
        balls, rounds, t = _timed_gather(DELTA_GATHERS[executor], g, radius, repeats)
        outputs[executor] = balls
        seconds[executor] = t
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

    delta_facts = flood_facts = delta_messages = flood_messages = None
    volume_reduction = None
    if measure_volume:
        delta_vol = _measured_volume(gather_balls, g, radius)
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
            "identical": identical,
        }
    )
    print(
        f"  {family} n={n} r={radius}: node {_fmt(node_s)} batch {_fmt(batch_s)}"
        f" flood {_fmt(flood_seconds)} (speedup {time_speedup}x),"
        f" volume reduction {volume_reduction}x, identical={identical}"
    )


def _fmt(seconds: Optional[float]) -> str:
    return f"{seconds:.3f}s" if seconds is not None else "-"


def run(quick: bool, executors: Tuple[str, ...]) -> dict:
    rows: List[dict] = []
    for family, n, radius, time_flood, measure_volume in (
        QUICK_CELLS if quick else FULL_CELLS
    ):
        print(f"== {family} n={n} r={radius}")
        _cell(rows, family, n, radius, executors, time_flood, measure_volume)

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
        "executors": list(executors),
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
        print("FAIL: executor/program outputs diverged")
        return 1
    timed_batch = "batch" in payload["executors"]
    if quick:
        reduction = payload["min_volume_reduction"]
        if reduction is None or reduction <= 1.0:
            print("FAIL: delta did not reduce message volume")
            return 1
        print("check passed: outputs identical, delta reduced volume everywhere")
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
    print(f"check passed: outputs identical, {reduction}x at the acceptance cell")
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
        "--executor",
        choices=("node", "batch", "all"),
        default="all",
        help="which delta paths to time (batch asserts that gather_balls"
        " took the kernel, so a fallback fails loudly)",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON output path")
    args = parser.parse_args(argv)

    executors = ("node", "batch") if args.executor == "all" else (args.executor,)
    payload = run(quick=args.quick, executors=executors)
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
