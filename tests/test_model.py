"""Interaction-law tests and the input check shared by every budget builder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydgate import (
    InteractionModel,
    InvalidModelError,
    budget_grover_uniform,
    budget_sequential_lattice,
    budget_sequential_uniform,
    budget_simultaneous_lattice,
    budget_simultaneous_uniform,
    build_layout,
    fit_single_anchor,
    pair_shift,
)
from rydgate.schemas import BUDGET_COLUMNS, SWEEP_COLUMNS
from rydgate.units import angular_from_mhz, c6_si_from_mhz_um6, seconds_from_us

UM = 1.0e-6


def test_c6_anchor_reproduces_anchor_exactly():
    b = angular_from_mhz(52.0)
    model = fit_single_anchor("c6", b, 20.0 * UM)
    assert pair_shift(model, 20.0 * UM) == pytest.approx(b, rel=1e-15, abs=0.0)


def test_c6_doubling_radius_divides_by_64():
    model = fit_single_anchor("c6", angular_from_mhz(52.0), 20.0 * UM)
    assert pair_shift(model, 40.0 * UM) == pytest.approx(
        angular_from_mhz(52.0 / 64.0), rel=1e-12, abs=0.0
    )


def test_c6_halving_radius_multiplies_by_64():
    model = fit_single_anchor("c6", angular_from_mhz(52.0), 20.0 * UM)
    assert pair_shift(model, 10.0 * UM) == pytest.approx(
        angular_from_mhz(52.0 * 64.0), rel=1e-12, abs=0.0
    )


def test_c3_identity_case():
    model = InteractionModel(c3=1.0)
    assert pair_shift(model, 1.0) == 1.0
    assert fit_single_anchor("c3", 1.0, 1.0).c3 == pytest.approx(1.0)


def test_crossover_selects_law_by_radius():
    # c3/r^3 and c6/r^6 agree at r = 2: c3 = 8, c6 = 64
    model = InteractionModel(c3=8.0, c6=64.0, crossover_radius=2.0)
    assert pair_shift(model, 1.0) == pytest.approx(8.0)
    assert pair_shift(model, 4.0) == pytest.approx(64.0 / 4096.0)


def test_crossover_discontinuity_rejected():
    with pytest.raises(InvalidModelError):
        InteractionModel(c3=8.0, c6=100.0, crossover_radius=2.0)


def test_empty_model_rejected():
    with pytest.raises(InvalidModelError):
        InteractionModel()


def test_nonpositive_radius_rejected():
    model = InteractionModel(c6=1.0)
    with pytest.raises(ValueError):
        pair_shift(model, 0.0)


@given(
    law=st.sampled_from(["c3", "c6"]),
    b=st.floats(min_value=1e3, max_value=1e12),
    r=st.floats(min_value=1e-7, max_value=1e-4),
    factor=st.floats(min_value=1.01, max_value=20.0),
)
def test_pair_shift_strictly_decreasing(law, b, r, factor):
    model = fit_single_anchor(law, b, r)
    assert pair_shift(model, r) > pair_shift(model, factor * r)


class _ConstantLaw:
    def __init__(self, b: float):
        self.b = b

    def shift_at(self, r: float) -> float:
        return self.b


BUILDERS = ["sequential", "grover", "simultaneous", "sequential-lattice", "simultaneous-lattice"]


def _budget(scheme, k=3, shift=1.0e8, tau=1.0e-4, omega10=5.0e10, law=None):
    """One budget per builder, or a batch where ``k`` is a list; ``shift``
    and ``tau`` stand for every shift and lifetime the builder takes, and a
    lattice takes ``law``, a constant one by default."""
    if scheme == "sequential":
        return budget_sequential_uniform(k, shift, tau, omega10)
    if scheme == "grover":
        return budget_grover_uniform(k, shift, tau, omega10)
    if scheme == "simultaneous":
        return budget_simultaneous_uniform(k, shift, shift, tau, tau, omega10)
    law = law or _ConstantLaw(shift)
    geom = build_layout(UM, k) if isinstance(k, int) else [build_layout(UM, each) for each in k]
    if scheme == "sequential-lattice":
        return budget_sequential_lattice(law, geom, tau, omega10)
    return budget_simultaneous_lattice(law, law, geom, tau, tau, omega10)


# input defect and the refusal it meets; a lattice geometry refuses k = 0
# itself, with the same message
BUDGET_DEFECTS = {
    "k0": ({"k": 0}, "k must be >= 1"),
    "k65": ({"k": 65}, "k = 65 exceeds the supported maximum of 64"),
    "shift0": ({"shift": 0.0}, "every blockade shift must be positive"),
    "shift-negative": ({"shift": -1.0e8}, "every blockade shift must be positive"),
    "tau0": ({"tau": 0.0}, "every lifetime must be positive"),
    "omega10-negative": ({"omega10": -1.0}, "omega10 must be positive"),
    "omega0": ({"omega": 0.0}, "drive frequencies must be positive"),
    "omega-negative": ({"omega": -1.0e6}, "drive frequencies must be positive"),
}


@pytest.mark.parametrize("defect", BUDGET_DEFECTS)
@pytest.mark.parametrize("scheme", BUILDERS)
def test_budget_input_check(scheme, defect):
    inputs, match = BUDGET_DEFECTS[defect]
    inputs = dict(inputs)
    omega = inputs.pop("omega", 1.0e6)
    budget = _budget(scheme)
    assert budget.at(*[1.0e6] * budget.dims)["total"] > 0.0
    with pytest.raises(ValueError, match=match):
        _budget(scheme, **inputs).at(*[omega] * budget.dims)
    if omega <= 0.0 and budget.dims == 1:
        with pytest.raises(ValueError, match=match):
            list(budget.table([1.0e6, omega]))


@pytest.mark.parametrize("scheme", BUILDERS)
def test_budget_cells_fit_report_columns(scheme):
    # every cell a builder yields has a report column, and the total is the
    # exact float sum of the term cells
    budget = _budget(scheme)
    cells = budget.at(*[1.0e6] * budget.dims)
    scheme = scheme.removesuffix("-lattice")
    assert set(cells) <= set(BUDGET_COLUMNS[scheme])
    assert cells["total"] == math.fsum(cells[name] for name in budget.terms)
    if scheme in SWEEP_COLUMNS:
        # a table holds a column per term in ``terms`` order, then the
        # total's, each one cell per point
        assert {*budget.terms, "total"} <= set(SWEEP_COLUMNS[scheme])
        columns = budget.table([1.0e5, 1.0e6, 1.0e7])
        assert len(columns) == len(budget.terms) + 1
        assert all(len(column) == 3 for column in columns)


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        fit_single_anchor("c9", 1.0, 1.0)


@pytest.mark.parametrize("build, kwargs, refusal", [
    pytest.param(InteractionModel, {"c3": -1.0, "c6": 64.0}, "coefficients must be >= 0",
                 id="negative-coefficient"),
    pytest.param(InteractionModel, {"c3": 8.0, "c6": 64.0, "crossover_radius": 0.0},
                 "crossover_radius must be positive", id="crossover-radius-zero"),
    pytest.param(InteractionModel, {"c6": 64.0, "crossover_radius": 2.0},
                 "a crossover law needs both c3 and c6", id="crossover-with-one-law"),
    pytest.param(InteractionModel, {"c3": 8.0, "c6": 64.0},
                 "both coefficients set: a crossover_radius is required",
                 id="two-laws-without-crossover"),
    pytest.param(fit_single_anchor, {"law": "c6", "b_anchor": 0.0, "r_anchor": UM},
                 "anchor shift and radius must be positive", id="anchor-shift-zero"),
    pytest.param(fit_single_anchor, {"law": "c3", "b_anchor": 1.0, "r_anchor": -UM},
                 "anchor shift and radius must be positive", id="anchor-radius-negative"),
])
def test_interaction_law_refused(build, kwargs, refusal):
    with pytest.raises(ValueError, match=refusal):
        build(**kwargs)


def _close(got, want):
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@settings(deadline=None)  # no per-example deadline: lattice layouts reach k = 64
@given(
    scheme=st.sampled_from(BUILDERS),
    ks=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=5),
    shift_mhz=st.floats(min_value=0.5, max_value=500.0),
    c6_mhz_um6=st.floats(min_value=1.0e3, max_value=1.0e6),
    tau_us=st.floats(min_value=10.0, max_value=1000.0),
    data=st.data(),
)
def test_batch_matches_one_k_budgets(scheme, ks, shift_mhz, c6_mhz_um6, tau_us, data):
    # a batch over k (or layouts) holds, case by case, the budget that k
    # alone gives: every cell at per-case drive frequencies, the duration,
    # each frequency grid and the optimizer's input
    inputs = dict(shift=angular_from_mhz(shift_mhz), tau=seconds_from_us(tau_us),
                  omega10=angular_from_mhz(9200.0),
                  law=InteractionModel(c6=c6_si_from_mhz_um6(c6_mhz_um6)))
    batch = _budget(scheme, ks, **inputs)
    assert batch.cases == (len(ks),)
    logs = st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=len(ks), max_size=len(ks))
    omegas = [[angular_from_mhz(10.0**x) for x in data.draw(logs)] for _ in range(batch.dims)]
    cells = batch.at(*map(np.array, omegas))
    durations = batch.duration(*map(np.array, omegas))
    grid = [angular_from_mhz(nu) for nu in (0.1, 3.0, 80.0)]
    columns = batch.table(grid) if batch.dims == 1 else None
    for i, k in enumerate(ks):
        one = _budget(scheme, k, **inputs)
        at = [omega[i] for omega in omegas]
        assert tuple(cells) == tuple(one.at(*at))
        for name, value in one.at(*at).items():
            _close(cells[name][i], value)
        assert cells["total"][i] == math.fsum(cells[name][i] for name in batch.terms)
        _close(durations[i], one.duration(*at))
        _close(batch[i].total_coefficients.tolist(), one.total_coefficients.tolist())
        assert batch[i].pair_shifts == one.pair_shifts
        if columns is not None:
            for got, want in zip(columns, one.table(grid)):
                _close(got[i], want)
