"""The one representation of a gate error budget.

Every builder returns a ``LaurentBudget``: frequency-free coefficients of
each named term, built once per configuration.  ``at`` evaluates it into
the cells of a report row, ``table`` into the columns of a frequency grid.
Every builder checks its inputs through ``check_inputs``.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul

import numpy as np

# largest control count any budget accepts
_MAX_K = 64


def check_k(k: int) -> None:
    """Refuse a control count outside 1 <= k <= _MAX_K."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > _MAX_K:
        raise ValueError(f"k = {k} exceeds the supported maximum of {_MAX_K}")


def check_inputs(k: int, shifts, lifetimes, omega10: float) -> None:
    """Refuse a budget outside the model's domain: 1 <= k <= _MAX_K controls,
    positive blockade shifts (rad/s), lifetimes (s) and qubit splitting
    omega10 (rad/s)."""
    check_k(k)
    if not all(b > 0.0 for b in shifts):
        raise ValueError("every blockade shift must be positive")
    if not all(tau > 0.0 for tau in lifetimes):
        raise ValueError("every lifetime must be positive")
    if not (omega10 > 0.0):
        raise ValueError("omega10 must be positive")


def _check_frequencies(omegas) -> None:
    if not all(omega > 0.0 for omega in omegas):
        raise ValueError("drive frequencies must be positive")


class LaurentBudget:
    """A budget as frequency-free coefficients of monomials c Omega^p.

    Every term and diagnostic of every budget is a sum of such monomials, so
    a budget is built once per configuration and evaluated at any drive
    frequency in O(1).  ``powers`` lists the monomial basis, one
    (axis, p) pair per coefficient column: axis 0 is the drive frequency
    (omega_c for the simultaneous gate), axis 1 is omega_t.  ``terms`` and
    ``diagnostics`` map each name to one coefficient per column.
    ``pair_shifts`` keeps the (control-target, control-control) shifts a
    lattice budget was built from; it is empty for uniform budgets.
    ``pulse_time`` holds the gate duration as one coefficient of Omega^-1
    per axis.  A coefficient that is not finite raises OverflowError.
    """

    def __init__(
        self,
        powers: tuple[tuple[int, int], ...],
        terms: dict[str, tuple[float, ...]],
        diagnostics: dict[str, tuple[float, ...]] | None = None,
        pair_shifts: tuple[tuple[float, ...], ...] = (),
        pulse_time: tuple[float, ...] = (),
    ):
        diagnostics = diagnostics or {}
        self.powers = tuple(powers)
        self.dims = 1 + max(axis for axis, _ in self.powers)
        self.terms = tuple(terms)
        self.diagnostics = tuple(diagnostics)
        self.pair_shifts = pair_shifts
        self.pulse_time = pulse_time
        # one row per term, then per diagnostic; one column per monomial
        self.coefficients = tuple(map(tuple, [*terms.values(), *diagnostics.values()]))
        if not all(map(math.isfinite, chain.from_iterable(self.coefficients))):
            for name, row in zip((*self.terms, *self.diagnostics), self.coefficients):
                if not all(map(math.isfinite, row)):
                    raise OverflowError(f"the coefficients of {name} are {row}")
        # the coefficients of the total, one per column
        self.total_coefficients = tuple(
            map(math.fsum, zip(*self.coefficients[: len(self.terms)]))
        )

    def at(self, *omegas: float) -> dict[str, float]:
        """The report cells at one drive frequency per axis (rad/s): each
        term, ``total`` (the exact float sum of the terms), then each
        diagnostic as ``diag_<name>``.  A non-finite cell raises
        OverflowError, as ``table`` does."""
        _check_frequencies(omegas)
        monomials = [omegas[axis] ** p for axis, p in self.powers]
        values = [sum(map(mul, row, monomials)) for row in self.coefficients]
        if not all(map(math.isfinite, values)):
            raise OverflowError("finite coefficients overflow at these frequencies")
        n = len(self.terms)
        cells = dict(zip(self.terms, values[:n]), total=math.fsum(values[:n]))
        cells.update(zip((f"diag_{name}" for name in self.diagnostics), values[n:]))
        return cells

    def table(self, omegas: list[float]) -> list[list[float]]:
        """Terms, then total, of a single-frequency budget over ``omegas``
        (rad/s): one column per term in ``terms`` order, then the total's,
        each a list of one float per point, from one array evaluation."""
        _check_frequencies(omegas)
        with np.errstate(over="raise", invalid="raise"):  # as ``at`` raises OverflowError
            monomials = np.array([np.asarray(omegas, dtype=float) ** p for _, p in self.powers])
            # broadcast and sum rather than matmul: a BLAS call grows peak memory
            coefficients = np.array(self.coefficients[: len(self.terms)])
            values = (coefficients[:, :, None] * monomials).sum(axis=1)
            totals = values.sum(axis=0).tolist()
        return [*values.tolist(), totals]

    def duration(self, *omegas: float) -> float:
        """Total pulse time at one drive frequency per axis (rad/s), s."""
        _check_frequencies(omegas)
        return sum(c / omega for c, omega in zip(self.pulse_time, omegas))
