"""Square-lattice layouts for multi-control gates.

The target sits at the origin of a square array with spacing d; the k
control atoms occupy the k nearest lattice sites.  Controls are indexed in
excitation order: ascending distance from the target, ties broken by polar
angle counterclockwise from the +x axis.  All separations derive from
integer site coordinates, so every pair distance is d*sqrt(m) for some
integer m >= 1: ``squared_separations`` gives each m, by which the
budgets group their pair sums, and ``pair_sets`` each distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatticeGeometry:
    """Target at the origin, controls (lattice units) in excitation order."""

    d: float  # lattice spacing, m
    control_sites: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not (self.d > 0.0):
            raise ValueError("lattice spacing d must be positive")
        if not self.control_sites:
            raise ValueError("layout needs at least one control site")
        if (0, 0) in self.control_sites:
            raise ValueError("target site collides with a control site")

    @property
    def k(self) -> int:
        """The number of controls."""
        return len(self.control_sites)


def _angle(x: int, y: int) -> float:
    a = math.atan2(y, x)
    return a if a >= 0.0 else a + 2.0 * math.pi


def build_layout(d: float, k: int) -> LatticeGeometry:
    """Layout with the k nearest sites to the origin as controls.

    Sites are ordered by (squared radius, polar angle); the enumeration is
    exhaustive over a square window grown until it certainly contains the
    k nearest sites, so the result is deterministic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # A site inside the inscribed circle of the window beats every site
    # outside the window, so a window whose circle holds k sites (the
    # origin aside) holds the k nearest.
    half = 1
    while sum(2 * math.isqrt(half * half - x * x) + 1 for x in range(-half, half + 1)) - 1 < k:
        half += 1
    sites = [(x, y) for x in range(-half, half + 1) for y in range(-half, half + 1)
             if (x, y) != (0, 0)]
    sites.sort(key=lambda s: (s[0] ** 2 + s[1] ** 2, _angle(*s)))
    return LatticeGeometry(d=d, control_sites=tuple(sites[:k]))


@dataclass(frozen=True)
class PairSets:
    """Separations used by the lattice-averaged budgets, meters.

    control_target[i] is the distance of control i (excitation order) from
    the target.  control_control_ordered holds (i, j, separation) for every
    pair with i earlier than j in excitation order.
    """

    control_target: tuple[float, ...]
    control_control_ordered: tuple[tuple[int, int, float], ...]


def pair_sets(geom: LatticeGeometry) -> PairSets:
    """The separations of ``squared_separations``, each d sqrt(m), in its
    orders."""
    ct, i, j, cc = squared_separations(geom)
    ct, cc = (geom.d * np.sqrt(m) for m in (ct, cc))
    return PairSets(tuple(ct.tolist()), tuple(zip(i.tolist(), j.tolist(), cc.tolist())))


def squared_separations(geom: LatticeGeometry) -> tuple[np.ndarray, ...]:
    """Every separation of ``geom`` over d, squared, an integer m: one per
    control from the target (excitation order), then the index arrays
    (i, j) of the control pairs i < j in excitation order and one m per
    pair."""
    x, y = np.array(geom.control_sites).T
    index = np.arange(geom.k)
    i, j = np.nonzero(index[:, None] < index)  # np.triu_indices(k, 1), at a third of its cost
    return x * x + y * y, i, j, (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2
