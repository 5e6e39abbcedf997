"""The one representation of a gate error budget.

Every builder returns a ``LaurentBudget``: frequency-free coefficients of
each named term, built once per configuration, for one k or as one batch
over a list of k (or of layouts).  ``at`` evaluates it into the cells of
report rows, ``table`` into the columns of a frequency grid.  Every
builder checks its inputs, each k included, through ``check_inputs``.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

# largest control count any budget accepts
_MAX_K = 64


def check_k(k: int) -> None:
    """Refuse a control count outside 1 <= k <= _MAX_K."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > _MAX_K:
        raise ValueError(f"k = {k} exceeds the supported maximum of {_MAX_K}")


def check_inputs(k, shifts, lifetimes, omega10: float) -> None:
    """Refuse a budget outside the model's domain: 1 <= k <= _MAX_K controls
    (``k`` one int or a sequence of them, each checked), positive blockade
    shifts (rad/s), lifetimes (s) and qubit splitting omega10 (rad/s)."""
    for each in np.atleast_1d(k).tolist():
        check_k(each)
    if not all(b > 0.0 for b in shifts):
        raise ValueError("every blockade shift must be positive")
    if not all(tau > 0.0 for tau in lifetimes):
        raise ValueError("every lifetime must be positive")
    if not (omega10 > 0.0):
        raise ValueError("omega10 must be positive")


def _zero_division(kind: str, flag: int) -> None:
    raise ZeroDivisionError("float division by zero")


def float_errors() -> np.errstate:
    """numpy's float errors as Python floats have them, for the builders'
    arithmetic over cases: an overflow gives inf, which ``LaurentBudget``
    refuses by name, and a division by zero raises ZeroDivisionError."""
    return np.errstate(over="ignore", invalid="ignore", divide="call", call=_zero_division)


def _check_frequencies(*omegas) -> None:
    if not all(np.all(np.greater(omega, 0.0)) for omega in omegas):
        raise ValueError("drive frequencies must be positive")


def _fsum(values: np.ndarray) -> np.ndarray:
    """``math.fsum`` along the first axis, elementwise over the others."""
    flat = values.reshape(len(values), -1).T.tolist()
    return np.array(list(map(math.fsum, flat))).reshape(values.shape[1:])


class LaurentBudget:
    """A budget as frequency-free coefficients of monomials c Omega^p.

    Every term and diagnostic of every budget is a sum of such monomials, so
    a budget is built once per configuration and evaluated at any drive
    frequency in O(1).  ``powers`` lists the monomial basis, one
    (axis, p) pair per coefficient column: axis 0 is the drive frequency
    (omega_c for the simultaneous gate), axis 1 is omega_t.  ``terms`` and
    ``diagnostics`` map each name to one coefficient per column.
    ``pulse_time`` holds the gate duration as one coefficient of Omega^-1
    per axis.  A coefficient that is not finite raises OverflowError.

    A batch holds one case per k or layout: a coefficient is given as a
    float or an array over the cases (of shape ``cases``, () for a single
    case), and ``at``, ``duration`` and ``table`` give a list over the cases
    where a single case gives a float.  ``budget[i]`` is case i alone.
    ``pair_shifts`` keeps the (control-target, control-control) shifts of a
    lattice budget, a pair per case of a batch; it is empty for uniform ones.
    """

    def __init__(
        self,
        powers: tuple[tuple[int, int], ...],
        terms: dict[str, tuple],
        diagnostics: dict[str, tuple] | None = None,
        pair_shifts: tuple = (),
        pulse_time: tuple = (),
    ):
        diagnostics = diagnostics or {}
        self.powers = tuple(powers)
        self.dims = 1 + max(axis for axis, _ in self.powers)
        self.terms = tuple(terms)
        self.diagnostics = tuple(diagnostics)
        self.pair_shifts = pair_shifts
        # one row per term, then per diagnostic; the cases; one column per monomial
        rows = [*terms.values(), *diagnostics.values()]
        self.cases = max(getattr(cell, "shape", ()) for cell in chain(*rows, pulse_time))
        self.coefficients = np.empty((len(rows), *self.cases, len(self.powers)))
        for index, row in enumerate(rows):
            for column, cell in enumerate(row):
                self.coefficients[index, ..., column] = cell
        self.pulse_time = np.empty((*self.cases, len(pulse_time)))
        for axis, cell in enumerate(pulse_time):
            self.pulse_time[..., axis] = cell
        if not np.isfinite(self.coefficients).all():
            for name, row in zip((*self.terms, *self.diagnostics), self.coefficients):
                for case in row.reshape(-1, len(self.powers)).tolist():
                    if not all(map(math.isfinite, case)):
                        raise OverflowError(f"the coefficients of {name} are {tuple(case)}")
        # the coefficients of the total, per case and column: a plain sum of
        # at most two terms that are not a literal 0 is already the exact
        # float sum; fsum takes the other columns, and refuses an overflow
        summands = self.coefficients[: len(self.terms)]
        with np.errstate(over="ignore"):
            self.total_coefficients = summands.sum(axis=0)
        overflow = not np.isfinite(self.total_coefficients).all()
        for column, cells in enumerate(zip(*terms.values())):
            if overflow or sum(not (isinstance(cell, float) and cell == 0.0) for cell in cells) > 2:
                self.total_coefficients[..., column] = _fsum(summands[..., column])

    def __getitem__(self, i: int) -> LaurentBudget:
        """Case ``i`` of a batch, as a single-case budget sharing its arrays."""
        case = object.__new__(LaurentBudget)
        case.__dict__.update(self.__dict__, cases=(), coefficients=self.coefficients[:, i],
                             pulse_time=self.pulse_time[i],
                             total_coefficients=self.total_coefficients[i],
                             pair_shifts=self.pair_shifts[i] if self.pair_shifts else ())
        return case

    def at(self, *omegas):
        """The report cells at one drive frequency per axis (rad/s), each a
        float or an array over the cases: each term, ``total`` (the exact
        float sum of the terms), then each diagnostic as ``diag_<name>``.
        A non-finite cell raises OverflowError, as ``table`` does."""
        _check_frequencies(*omegas)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            values = sum(self.coefficients[..., column] * omegas[axis] ** p
                         for column, (axis, p) in enumerate(self.powers))
        if not np.isfinite(values).all():
            raise OverflowError("finite coefficients overflow at these frequencies")
        n = len(self.terms)
        cells = dict(zip(self.terms, values[:n].tolist()), total=_fsum(values[:n]).tolist())
        cells.update(zip((f"diag_{name}" for name in self.diagnostics), values[n:].tolist()))
        return cells

    def table(self, omegas: list[float]) -> list[list]:
        """Terms, then total, over ``omegas`` (rad/s) at a single frequency
        axis: one column per term in ``terms`` order, then the total's, each
        a list of one float per point (per case of a batch, a list of such
        lists), from one array evaluation."""
        grid = np.asarray(omegas, dtype=float)
        _check_frequencies(grid)
        with np.errstate(over="raise", invalid="raise"):  # as ``at`` raises OverflowError
            monomials = [grid**p for _, p in self.powers]
            # broadcast and sum rather than matmul: a BLAS call grows peak memory
            values = sum(self.coefficients[: len(self.terms), ..., column, None] * monomial
                         for column, monomial in enumerate(monomials))
            totals = values.sum(axis=0).tolist()
        return [*values.tolist(), totals]

    def duration(self, *omegas):
        """Total pulse time at one drive frequency per axis (rad/s), s: a
        float, or a list of one per case of a batch."""
        _check_frequencies(*omegas)
        return sum(self.pulse_time[..., axis] / omega for axis, omega in enumerate(omegas)).tolist()
