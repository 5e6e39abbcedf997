"""Analytic optimum formulas and the closed-form argmin.

The golden-section / coordinate-descent optimizer in ``oracles.py`` is the
independent check of ``minimize_error``: on random Laurent budgets over
twenty decades and on every optimized preset row.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rydgate import (
    LaurentBudget,
    budget_sequential_uniform,
    e_opt_analytic,
    minimize_error,
    minimize_errors,
    omega_opt_analytic,
)
from rydgate.cli import _each_batch, load_config, preset_path
from rydgate.optimize import DEFAULT_BRACKET
from rydgate.units import angular_from_mhz, mhz_from_angular

from oracles import golden_section_minimize

PRESETS = (
    "sequential_uniform",
    "sequential_lattice_crossover",
    "simultaneous_lattice_room_temp",
    "grover_uniform",
)
W10 = angular_from_mhz(9200.0)


@pytest.mark.parametrize(
    "b_mhz, tau_us, expected_mhz",
    [
        (0.69, 330.0, 0.112996),
        (9.0, 540.0, 0.531329),
        (52.0, 820.0, 1.488439),
    ],
)
def test_analytic_optimum_frozen_values(b_mhz, tau_us, expected_mhz):
    w = omega_opt_analytic(angular_from_mhz(b_mhz), tau_us * 1e-6)
    assert mhz_from_angular(w) == pytest.approx(expected_mhz, rel=1e-5, abs=0.0)


@given(
    log_b=st.floats(min_value=5.0, max_value=9.5),
    log_tau=st.floats(min_value=-4.5, max_value=-2.5),
)
def test_analytic_optimum_scaling(log_b, log_tau):
    # (2 pi)^(1/3) b^(2/3) / tau^(1/3): doubling b multiplies by 2^(2/3)
    b = 2.0 * math.pi * 10.0**log_b
    tau = 10.0**log_tau
    w = omega_opt_analytic(b, tau)
    assert omega_opt_analytic(2.0 * b, tau) == pytest.approx(
        w * 2.0 ** (2.0 / 3.0), rel=1e-12, abs=0.0
    )
    assert omega_opt_analytic(b, 8.0 * tau) == pytest.approx(w / 2.0, rel=1e-12, abs=0.0)


def test_e_opt_analytic_by_hand():
    b = angular_from_mhz(52.0)
    tau = 820e-6
    bt = b * tau
    k = 50
    expected = (
        3.0 * math.pi ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0) * k / bt ** (2.0 / 3.0)
        + math.pi ** (4.0 / 3.0) / 2.0 ** (8.0 / 3.0) * k * k / bt ** (4.0 / 3.0)
    )
    assert e_opt_analytic(b, tau, k) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert e_opt_analytic(b, tau, 0) == 0.0
    with pytest.raises(ValueError):
        e_opt_analytic(b, tau, -1)


def cubic_budget(alpha, beta, gamma):
    """alpha/w + beta w + gamma w^2 as a single-frequency Laurent budget."""
    terms = {"alpha": (alpha, 0.0, 0.0), "beta": (0.0, beta, 0.0), "gamma": (0.0, 0.0, gamma)}
    return LaurentBudget(((0, -1), (0, 1), (0, 2)), terms)


def separable_budget(a, b, c, cross, c_t):
    """b/x^2 + c x^2 + (a/x + cross/y) + c_t y^2 over (x, y): the shared
    middle term spans both axes, as the collective gate's se_c does."""
    terms = {
        "x": (0.0, b, c, 0.0, 0.0),
        "shared": (a, 0.0, 0.0, cross, 0.0),
        "y": (0.0, 0.0, 0.0, 0.0, c_t),
    }
    return LaurentBudget(((0, -1), (0, -2), (0, 2), (1, -1), (1, 2)), terms)


def test_minimizer_recovers_cube_root_argmin():
    # a/w + c w^2 has its minimum at (a / 2c)^(1/3)
    a, c = 3.0e7, 4.0e-15
    result = minimize_error(cubic_budget(a, 0.0, c))
    expected = (a / (2.0 * c)) ** (1.0 / 3.0)
    assert result.argmin[0] == pytest.approx(expected, rel=1e-3, abs=0.0)
    assert result.converged
    assert result.evaluations > 0


def test_minimizer_flags_edge_minimum():
    # a/w + c w^2 with its minimum (a / 2c)^(1/3) below, then above the bracket
    for root, edge in zip((1.0e3, 1.0e12), DEFAULT_BRACKET):
        result = minimize_error(cubic_budget(2.0 * root**3, 0.0, 1.0))
        assert result.argmin[0] == pytest.approx(edge, rel=0.05, abs=0.0)
        assert not result.converged


def test_minimizer_rejects_non_finite_objective():
    # a non-finite objective never reaches the minimizer: its budget is
    # refused as past the float range when it is built
    with pytest.raises(OverflowError, match="coefficients of beta"):
        minimize_error(cubic_budget(1.0, math.nan, 1.0))
    with pytest.raises(OverflowError, match="coefficients of gamma"):
        minimize_error(cubic_budget(1.0, 0.0, math.inf))


def test_minimizer_2d_separable():
    # each axis is a/w + c w^2 with its minimum 3 c w0^2 = 1/2 at w0
    x0, y0 = 3.0e6, 7.0e7
    c, c_t = 1.0 / (6.0 * x0**2), 1.0 / (6.0 * y0**2)
    budget = separable_budget(2.0 * c * x0**3, 0.0, c, 2.0 * c_t * y0**3, c_t)
    result = minimize_error(budget)
    assert result.argmin[0] == pytest.approx(x0, rel=1e-2, abs=0.0)
    assert result.argmin[1] == pytest.approx(y0, rel=1e-2, abs=0.0)
    assert budget.at(*result.argmin)["total"] == pytest.approx(1.0, abs=1e-4)
    assert result.converged


def test_minimizer_never_worse_than_analytic_point():
    b = angular_from_mhz(52.0)
    tau = 820e-6

    budget = budget_sequential_uniform(50, b, tau, W10)
    result = minimize_error(budget)
    at_analytic = budget.at(omega_opt_analytic(b, tau))["total"]
    assert budget.at(*result.argmin)["total"] <= at_analytic * (1.0 + 1e-12)


@given(
    k=st.integers(min_value=2, max_value=64),
    log_bt_per_k=st.floats(min_value=math.log10(30.0), max_value=math.log10(3.0e4)),
    log_tau=st.floats(min_value=-4.0, max_value=-3.0),
)
def test_numeric_argmin_tracks_analytic_inside_regime(k, log_bt_per_k, log_tau):
    # the two-term analytic optimum is a good guide only well inside the
    # blockade regime and away from the qubit-splitting resonance; inside
    # that box the numeric argmin stays within 10%
    tau = 10.0**log_tau
    b = k * 10.0**log_bt_per_k / tau
    if b > W10 / 50.0:
        b = W10 / 50.0
        if b * tau / k < 30.0:
            return
    analytic = omega_opt_analytic(b, tau)
    result = minimize_error(budget_sequential_uniform(k, b, tau, W10))
    assert abs(result.argmin[0] - analytic) / analytic < 0.10


# Newton steps per axis: the start lies within a factor 2 of the root, and
# 20 000 random budgets over these ranges never took more than 8
MAX_NEWTON_STEPS = 10

# one step of the oracle's 64-point grid over the six-decade bracket
GRID_STEP = 10.0 ** (6.0 / 63.0) * (1.0 + 1.0e-9)


def decades(lo, hi):
    """Log-uniform positive floats over [10^lo, 10^hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0**x)


def polynomial_total(budget):
    """The total of ``budget`` and its slope along each axis, summed monomial
    by monomial, independent of ``LaurentBudget.at``."""
    monomials = [(math.fsum(column), axis, p) for column, (axis, p)
                 in zip(zip(*budget.coefficients[: len(budget.terms)]), budget.powers)]

    def total(*omegas: float) -> float:
        return math.fsum(c * omegas[axis] ** p for c, axis, p in monomials)

    def slope(on: int, omega: float) -> float:
        return math.fsum(p * c * omega ** (p - 1) for c, axis, p in monomials if axis == on)

    return total, slope


def root_near_edge(slope, axis):
    """True when the minimum along ``axis`` lies within one grid step of a
    bracket edge: the slope changes sign between edge/step and edge*step."""
    return any(slope(axis, edge / GRID_STEP) < 0.0 < slope(axis, edge * GRID_STEP)
               for edge in DEFAULT_BRACKET)


@given(alpha=decades(-5.0, 15.0), beta=decades(-15.0, 5.0), gamma=decades(-25.0, -5.0))
def test_closed_form_argmin_matches_golden_section_oracle(alpha, beta, gamma):
    budget = cubic_budget(alpha, beta, gamma)
    total, slope = polynomial_total(budget)
    result = minimize_error(budget)
    oracle = golden_section_minimize(total)
    assert total(*result.argmin) <= oracle.min_error * (1.0 + 1e-12)
    assert result.evaluations <= MAX_NEWTON_STEPS
    if not root_near_edge(slope, 0):
        assert result.converged == oracle.converged


# the coefficient ranges of the two oracle tests below
CUBIC_CASES = st.tuples(decades(-5.0, 15.0), decades(-15.0, 5.0), decades(-25.0, -5.0))
SEPARABLE_CASES = st.tuples(decades(-5.0, 15.0), decades(-5.0, 25.0), decades(-25.0, -5.0),
                            decades(-5.0, 15.0), decades(-25.0, -5.0))


@given(st.one_of(
    st.tuples(st.just(cubic_budget), st.lists(CUBIC_CASES, min_size=1, max_size=64)),
    st.tuples(st.just(separable_budget), st.lists(SEPARABLE_CASES, min_size=1, max_size=64))))
# a root below the bracket, one above it (both clamped to its edge) and one inside
@example((cubic_budget, [(1.0e-5, 1.0e-15, 1.0e-5), (1.0e15, 1.0e-15, 1.0e-25),
                         (1.0e5, 1.0e-5, 1.0e-15)]))
def test_batch_argmin_equals_one_case_argmin(drawn):
    # one pass over a batch gives each case's result bit for bit as the
    # case alone does, as a view of the batch or built by itself: argmin,
    # Newton steps and convergence
    build, cases = drawn
    batch = build(*map(np.array, zip(*cases)))

    def bits(result):
        return tuple(map(float.hex, result.argmin)), result.evaluations, result.converged

    got = list(map(bits, minimize_errors(batch)))
    assert got == [bits(minimize_error(batch[i])) for i in range(len(cases))]
    assert got == [bits(minimize_error(build(*case))) for case in cases]


@given(
    a=decades(-5.0, 15.0),
    b=decades(-5.0, 25.0),
    c=decades(-25.0, -5.0),
    cross=decades(-5.0, 15.0),
    c_t=decades(-25.0, -5.0),
)
def test_closed_form_2d_argmin_matches_coordinate_descent_oracle(a, b, c, cross, c_t):
    budget = separable_budget(a, b, c, cross, c_t)
    total, slope = polynomial_total(budget)
    result = minimize_error(budget)
    oracle = golden_section_minimize(total, dims=2)
    assert total(*result.argmin) <= oracle.min_error * (1.0 + 1e-12)
    assert result.evaluations <= 2 * MAX_NEWTON_STEPS
    if not (root_near_edge(slope, 0) or root_near_edge(slope, 1)):
        assert result.converged == oracle.converged


@pytest.mark.parametrize("name", PRESETS)
def test_preset_optima_match_golden_section_oracle(name):
    checked = []

    def check(batch):
        omegas, fit = batch.optimize("optimize")
        for i, converged in enumerate(fit["opt_converged"]):
            case, argmin = batch.laurent[i], [float(axis[i]) for axis in omegas]
            oracle = golden_section_minimize(
                lambda *omegas: case.at(*omegas)["total"], dims=case.dims
            )
            for got, want in zip(argmin, oracle.argmin):
                assert abs(math.log(got / want)) <= 1e-4
            assert case.at(*argmin)["total"] <= oracle.min_error
            assert converged == oracle.converged
            checked.append(case)

    _each_batch(load_config(preset_path(name), "optimize"), "optimize", check)
    assert checked


def test_default_bracket_covers_lab_range():
    lo, hi = DEFAULT_BRACKET
    assert lo <= angular_from_mhz(0.01)
    assert hi >= angular_from_mhz(1000.0)
