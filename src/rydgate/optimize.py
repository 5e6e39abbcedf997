"""Rabi-frequency optimization of gate error budgets.

Every budget diverges at small Omega (spontaneous emission, 1/Omega) and
at large Omega (rotation errors, Omega^2), so an interior minimum exists.
The balance of the two dominant uniform-budget terms gives the analytic
optimum

    omega_opt = (2 pi)^(1/3) b^(2/3) / tau^(1/3)

with minimum error

    e_opt = 3 pi^(2/3)/2^(1/3) * k/(b tau)^(2/3)
          + pi^(4/3)/2^(8/3) * k^2/(b tau)^(4/3).

``minimize_error`` finds the exact minimum of the full budget instead.
Along each drive frequency the total is a Laurent polynomial
E = c_-2/W^2 + c_-1/W + c_1 W + c_2 W^2 with non-negative coefficients, and
the two-frequency budget of the collective gate is a sum of one such
polynomial per frequency.  The minimum along an axis is the one positive
root of W^3 E'(W) = 2 c_2 W^4 + c_1 W^3 - c_-1 W - 2 c_-2: the cubic
2 gamma W^3 + beta W^2 - alpha = 0 of the single-frequency schemes (times
W), the quartic 2 c W^4 - a W - 2 b = 0 for omega_c, and the closed form
(a/2c)^(1/3) for omega_t.  That polynomial is convex on W > 0 and not
positive at 0, so Newton's method started right of the root descends onto
it monotonically.  The root is clamped to ``DEFAULT_BRACKET``.  Everything
is deterministic: identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import LaurentBudget
from .units import TWO_PI

# 2 pi * (0.01 MHz .. 10 GHz)
DEFAULT_BRACKET = (TWO_PI * 1.0e4, TWO_PI * 1.0e10)


class OptimizerEdgeWarning(UserWarning):
    """A reported optimum was clamped to an edge of the frequency bracket."""


@dataclass(frozen=True)
class OptimizationResult:
    """``argmin`` holds one frequency per axis (rad/s); the minimum is
    ``budget.at(*argmin)["total"]``.  ``evaluations`` counts the Newton
    steps to the roots, summed over the axes: one evaluation of the
    stationarity polynomial each, the last being the one that finds the
    root.  ``converged`` is False when a root lay outside
    ``DEFAULT_BRACKET`` and was clamped to its edge."""

    argmin: tuple[float, ...]
    evaluations: int
    converged: bool


def omega_opt_analytic(b: float, tau: float) -> float:
    """Analytic optimal Rabi frequency, rad/s."""
    if not (b > 0.0) or not (tau > 0.0):
        raise ValueError("b and tau must be positive")
    return (TWO_PI) ** (1.0 / 3.0) * b ** (2.0 / 3.0) / tau ** (1.0 / 3.0)


def e_opt_analytic(b: float, tau: float, k: int) -> float:
    """Analytic minimum error for k controls at the analytic optimum."""
    if not (b > 0.0) or not (tau > 0.0):
        raise ValueError("b and tau must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    bt = b * tau
    first = 3.0 * math.pi ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0) * k / bt ** (2.0 / 3.0)
    second = math.pi ** (4.0 / 3.0) / 2.0 ** (8.0 / 3.0) * k * k / bt ** (4.0 / 3.0)
    return first + second


def _stationary_point(c: dict[int, float]) -> tuple[float, int]:
    """The positive root of W^3 E'(W) for E = sum of c[p] W^p, and the
    Newton steps taken to it, each one evaluation of that polynomial.

    The start is the smaller of two points at which one positive monomial
    of 2 c[2] W^4 + c[1] W^3 - c[-1] W - 2 c[-2] alone outweighs both
    negative ones.  The polynomial is not negative there, and the start
    lies within a factor 2 of the root.
    """
    cm2, cm1, c1, c2 = c[-2], c[-1], c[1], c[2]
    if min(c.values()) < 0.0 or not (cm2 + cm1 > 0.0 and c1 + c2 > 0.0):
        raise ValueError(f"no interior minimum for coefficients {c}")
    n = (cm1 > 0.0) + (cm2 > 0.0)
    x = math.inf
    if c2 > 0.0:
        x = max((n * cm1 / (2.0 * c2)) ** (1.0 / 3.0), (n * cm2 / c2) ** 0.25)
    if c1 > 0.0:
        x = min(x, max((n * cm1 / c1) ** 0.5, (2.0 * n * cm2 / c1) ** (1.0 / 3.0)))
    steps = 1
    while True:
        p = ((2.0 * c2 * x + c1) * x * x - cm1) * x - 2.0 * cm2
        if p <= 0.0:
            return x, steps
        step = p / ((8.0 * c2 * x + 3.0 * c1) * x * x - cm1)
        if not x - step < x:
            return x, steps
        x -= step
        steps += 1


def minimize_error(budget: LaurentBudget) -> OptimizationResult:
    """Minimize the total of ``budget`` over its drive frequencies.

    Raises ValueError when a coefficient of the total is not finite or an
    axis has no interior minimum.
    """
    if not all(math.isfinite(c) for c in budget.total_coefficients):
        raise ValueError("the budget total has a non-finite coefficient")
    lo, hi = DEFAULT_BRACKET
    argmin, steps, converged = [], 0, True
    for axis in range(budget.dims):
        coefficients = dict.fromkeys((-2, -1, 1, 2), 0.0)
        for (on, p), value in zip(budget.powers, budget.total_coefficients):
            if on == axis:
                coefficients[p] += value
        root, n = _stationary_point(coefficients)
        steps += n
        omega = min(max(root, lo), hi)
        converged = converged and omega == root
        argmin.append(omega)
    return OptimizationResult(tuple(argmin), steps, converged)
