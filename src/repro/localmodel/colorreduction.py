"""Deterministic O(log* n) coloring of paths (Cole-Vishkin / Linial).

The interval subroutines of the paper ([21]'s ColIntGraph, [31]'s
MISUnitInterval) hide an O(log* n) symmetry-breaking step.  This module
implements the classic one: Linial's color reduction via polynomial
set systems, specialized to maximum degree 2 (the clique paths and vertex
paths the library runs it on).

One reduction round: given a proper c-coloring, interpret each color as a
polynomial f of degree <= d over F_q (base-q digits as coefficients), with
q prime, q >= 2d + 1 and q^{d+1} >= c.  Each node picks the smallest
i in F_q with f_v(i) != f_u(i) for both neighbors u -- at most
Delta * d = 2d < q points are bad, so i exists -- and adopts the pair
(i, f_v(i)) as its new color in [q^2].  Properness is guaranteed no matter
what the neighbors pick.  Iterating shrinks the palette to 25 in log* c
rounds; a final sweep retires colors 25..4 one round each, reaching 3.

Two executions are provided:

* :func:`three_color_path` -- fast lock-step simulation on an explicit
  path, returning colors and the exact number of communication rounds;
* :class:`LinialPathProgram` -- the same algorithm as a genuine
  message-passing :class:`~repro.localmodel.network.NodeProgram`, used by
  the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .network import NodeContext, NodeProgram

__all__ = [
    "linial_parameters",
    "linial_new_color",
    "three_color_path",
    "LinialPathProgram",
    "LINIAL_FIXPOINT",
]

#: The palette size Linial reduction cannot improve on for Delta = 2.
LINIAL_FIXPOINT = 25


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def _next_prime(x: int) -> int:
    while not _is_prime(x):
        x += 1
    return x


def linial_parameters(c: int) -> Optional[Tuple[int, int]]:
    """Best (q, d) for one reduction round from palette size ``c``.

    Returns the pair minimizing the new palette size q^2, subject to
    q prime, q >= 2d + 1 and q^{d+1} >= c; ``None`` when no choice makes
    progress (q^2 < c), which happens exactly at c <= LINIAL_FIXPOINT.
    """
    best: Optional[Tuple[int, int]] = None
    d = 1
    while True:
        floor_q_sq = (2 * d + 1) ** 2
        if best is not None and floor_q_sq >= best[0] ** 2:
            break  # larger d cannot beat the current best
        if floor_q_sq >= c:
            break  # larger d cannot even make progress
        lower = max(2 * d + 1, _ceil_root(c, d + 1))
        q = _next_prime(lower)
        if q * q < c:  # q^{d+1} >= c holds by the choice of `lower`
            if best is None or q * q < best[0] ** 2:
                best = (q, d)
        d += 1
    return best


def _ceil_root(c: int, k: int) -> int:
    """Smallest integer r with r^k >= c (exact, float used only as a hint)."""
    r = max(1, int(c ** (1.0 / k)))
    while r**k < c:
        r += 1
    while r > 1 and (r - 1) ** k >= c:
        r -= 1
    return r


def _poly_eval(color: int, q: int, d: int, i: int) -> int:
    """Evaluate the degree-<=d polynomial encoded by ``color`` at i in F_q."""
    value = 0
    power = 1
    rest = color
    for _ in range(d + 1):
        coeff = rest % q
        rest //= q
        value = (value + coeff * power) % q
        power = (power * i) % q
    return value


def linial_new_color(color: int, neighbor_colors: Sequence[int], q: int, d: int) -> int:
    """One node's reduction step: the pair (i, f(i)) encoded as i*q + f(i)."""
    for i in range(q):
        mine = _poly_eval(color, q, d, i)
        if all(_poly_eval(nc, q, d, i) != mine for nc in neighbor_colors):
            return i * q + mine
    raise AssertionError(
        "no evaluation point available; parameters violate q > Delta*d"
    )


def _reduction_schedule(id_bound: int) -> List[Tuple[int, int]]:
    """The deterministic (q, d) sequence all nodes agree on from the ID bound."""
    schedule = []
    c = id_bound
    while True:
        params = linial_parameters(c)
        if params is None:
            return schedule
        schedule.append(params)
        c = params[0] ** 2


def three_color_path(
    ids: Sequence[int],
) -> Tuple[Dict[int, int], int]:
    """3-color a path of distinct non-negative IDs; returns (colors, rounds).

    ``ids`` lists the path vertices end to end.  The simulation is
    lock-step: every round consists of all nodes exchanging colors with
    their path neighbors and recomputing.  Rounds counted:

    * 1 round to learn neighbors' initial colors (IDs are known to
      neighbors in the LOCAL model, so this round is free and not counted),
    * 1 round per Linial reduction step,
    * 1 round per retired color in the final 25 -> 3 sweep.
    """
    n = len(ids)
    if len(set(ids)) != n:
        raise ValueError("path IDs must be distinct")
    if any(i < 0 for i in ids):
        raise ValueError("path IDs must be non-negative")
    if n == 0:
        return {}, 0
    colors: Dict[int, int] = {v: v for v in ids}
    rounds = 0
    id_bound = max(ids) + 1

    def neighbor_colors(idx: int) -> List[int]:
        out = []
        if idx > 0:
            out.append(colors[ids[idx - 1]])
        if idx < n - 1:
            out.append(colors[ids[idx + 1]])
        return out

    for q, d in _reduction_schedule(id_bound):
        new = {
            v: linial_new_color(colors[v], neighbor_colors(idx), q, d)
            for idx, v in enumerate(ids)
        }
        colors = new
        rounds += 1

    # Final sweep: palette is now <= LINIAL_FIXPOINT, colors in [0, 24];
    # shift to 1..25 then retire 25..4 one per round.
    colors = {v: c + 1 for v, c in colors.items()}
    palette = min(LINIAL_FIXPOINT, id_bound)
    for retire in range(palette, 3, -1):
        new = dict(colors)
        for idx, v in enumerate(ids):
            if colors[v] == retire:
                used = set(neighbor_colors(idx))
                new[v] = min(c for c in (1, 2, 3) if c not in used)
        colors = new
        rounds += 1
    return colors, rounds


class LinialPathProgram(NodeProgram):
    """Message-passing version of :func:`three_color_path`.

    Every node must be told the global ID bound (standard in the LOCAL
    model: IDs come from a known polynomial range).  The node's final color
    lands in :attr:`output`.

    Acts on silence: path endpoints have one neighbor, and a degenerate
    one-vertex path has none, yet every node must advance its reduction
    schedule each round regardless of what arrives.
    """

    always_active = True

    def __init__(self, node: int, neighbors: List[int], id_bound: int):
        """``id_bound`` bounds the initial color space (colors start as IDs)."""
        super().__init__(node, neighbors)
        if len(neighbors) > 2:
            raise ValueError("LinialPathProgram requires maximum degree 2")
        self.color = node
        self.schedule = _reduction_schedule(id_bound)
        self.stage = 0
        self.retire = min(LINIAL_FIXPOINT, id_bound)
        self.shifted = False

    def step(self, ctx: NodeContext) -> Mapping[int, int]:
        """Advance one stage of the reduction schedule and announce the color."""
        nbr_colors = sorted(ctx.inbox.values())
        if ctx.round_number == 0:
            # First round: announce initial color (the ID).
            return self.broadcast(self.color)
        if self.stage < len(self.schedule):
            q, d = self.schedule[self.stage]
            self.color = linial_new_color(self.color, nbr_colors, q, d)
            self.stage += 1
            return self.broadcast(self.color)
        if not self.shifted:
            # Palette <= 25; shift into 1..25.  Neighbors' inbox values are
            # also unshifted at this instant, so shift them locally too.
            self.color += 1
            nbr_colors = [c + 1 for c in nbr_colors]
            self.shifted = True
        if self.retire > 3:
            if self.color == self.retire:
                self.color = min(c for c in (1, 2, 3) if c not in nbr_colors)
            self.retire -= 1
            return self.broadcast(self.color)
        self.done = True
        self.output = self.color
        return {}
