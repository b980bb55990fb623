"""All distance/palette constants of the coloring pipeline in one place.

The paper uses the literal constants 3k (internal path diameter threshold),
k + 3 (recoloring distance) and 10k (collection radius), relying on the
recoloring lemma of [21] (its Lemma 9).  Our constructive recoloring
(:mod:`repro.coloring.extension`) achieves the same
floor((1 + 1/k) chi) + 1 color bound but needs a larger constant times k of
distance: with s spare colors the morph performs ceil((2 chi + 2)/s) + 1
sequential relay steps, each consuming O(1) of path distance, and
s >= max(1, floor(chi/k)) spares are always available inside the global
palette (see the extension module's docstring for the argument).  Since
every threshold remains Theta(k) = Theta(1/eps), the asymptotic round
complexities and the (1 + eps) guarantees of Theorems 3 and 4 are
unchanged; only the constants differ, as recorded in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ColoringParameters", "morph_cut_budget", "required_morph_distance"]


def _check_positive_int(name: str, value: int) -> None:
    """Raise ``ValueError`` naming ``value`` unless it is an ``int`` >= 1.

    Bools are ints to Python but not a valid k or d.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")


def morph_cut_budget(chi: int, spares: int) -> int:
    """Number of relay cuts the boundary morph may need.

    The permutation sigma moving the greedy coloring onto the fixed
    boundary touches at most chi + 1 color classes; each class costs at
    most two elementary moves (park on a relay, then land), and ``spares``
    moves run in parallel per cut.
    """
    if spares < 1:
        raise ValueError("the morph needs at least one spare color")
    moves = 2 * max(chi, 1) + 2
    return math.ceil(moves / spares) + 1


def required_morph_distance(chi: int, spares: int) -> int:
    """Graph distance between fixed boundaries sufficient for one morph.

    Consecutive cut cliques must be vertex-disjoint, which consumes at most
    two units of graph distance per cut, plus slack to stay clear of both
    boundary cliques.
    """
    return 2 * morph_cut_budget(chi, spares) + 6


@dataclass(frozen=True)
class ColoringParameters:
    """Derived constants for a target approximation (1 + eps) = (1 + 2/k).

    ``k``                    the paper's k = ceil(2/eps);
    ``recolor_distance``     how far from a conflicting boundary clique
                             nodes may be recolored (paper: k + 3);
    ``internal_threshold``   minimum diameter for an internal path to be
                             peeled (paper: 3k);
    ``collect_radius``       per-iteration neighborhood collection radius
                             in PruneTree (paper: 10k).
    """

    k: int
    recolor_distance: int
    internal_threshold: int
    collect_radius: int

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "ColoringParameters":
        """Constants for ``k = ceil(2 / epsilon)``; ``epsilon`` is a finite
        positive number, and a bool is rejected like ``from_k`` rejects one."""
        if isinstance(epsilon, bool) or not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
        return cls.from_k(math.ceil(2.0 / epsilon))

    @classmethod
    def from_k(cls, k: int) -> "ColoringParameters":
        """Constants sized for our constructive recoloring lemma.

        With the global palette floor((1+1/k) chi) + 1 the morph always has
        s >= max(1, floor(chi/k)) spares, so ceil((2 chi + 2)/s) <= 4k + 4
        relay moves suffice for every chi; the distances below are sized
        for that worst case.
        """
        _check_positive_int("k", k)
        recolor = 2 * (4 * k + 5) + 6  # = required_morph_distance worst case
        threshold = 2 * recolor + 4  # both ends of an internal path morph
        return cls(
            k=k,
            recolor_distance=recolor,
            internal_threshold=threshold,
            collect_radius=3 * threshold,
        )

    @classmethod
    def paper_constants(cls, k: int) -> "ColoringParameters":
        """The literal constants of Algorithms 1-3 (3k / k+3 / 10k).

        Structural code paths (peeling, layer properties) are exercised
        with these in tests; the recoloring phase needs the larger
        :meth:`from_k` distances.
        """
        _check_positive_int("k", k)
        return cls(
            k=k,
            recolor_distance=k + 3,
            internal_threshold=3 * k,
            collect_radius=10 * k,
        )

    @property
    def epsilon(self) -> float:
        return 2.0 / self.k

    def palette_size(self, chi: int) -> int:
        """floor((1 + 1/k) chi) + 1: the global color budget of Theorem 3."""
        return chi + chi // self.k + 1

    def minimum_spares(self, chi: int) -> int:
        """Spare colors guaranteed inside the global palette: q - chi."""
        return self.palette_size(chi) - chi
