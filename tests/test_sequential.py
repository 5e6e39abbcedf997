"""One-at-a-time addressing budgets: closed forms vs exact-rational sums.

The closed forms and the weight-sum oracles are two independent
derivations of the same state-averaged error; they must agree to float
precision for every parameter draw.  Frozen numbers below were produced
by the oracle path and locked in before the closed forms were trusted.
"""

import math

import pytest
from hypothesis import given, strategies as st

from rydgate import (
    LatticeGeometry,
    budget_grover_uniform,
    budget_sequential_lattice,
    budget_sequential_uniform,
    build_layout,
)
from rydgate.sequential import worst_case_detuned_inv_sq
from rydgate.units import angular_from_mhz

from oracles import sum_oracle_grover, sum_oracle_sequential

W10 = angular_from_mhz(9200.0)


class ConstantLaw:
    """Distance-independent stand-in: collapses lattice sums to uniform."""

    def __init__(self, b: float):
        self.b = b

    def shift_at(self, r: float) -> float:
        return self.b


# frozen oracle output: k=5, omega/2pi = 1 MHz, b/2pi = 20 MHz, tau = 500 us
FROZEN_K5 = {
    "se_c_1": 0.01,
    "se_c_2": 1.25e-05,
    "se_t_1": 3.125e-05,
    "se_t_2": 1.5136718750000002e-06,
    "r_c_1": 0.003828125000000001,
    "r_c_2": 2.9615777190300398e-08,
    "r_t_1": 0.0018164062500000005,
    "r_t_2": 1.7427795328714336e-08,
}


def test_frozen_k5_budget():
    laurent = budget_sequential_uniform(5, angular_from_mhz(20.0), 500e-6, W10)
    budget = laurent.at(angular_from_mhz(1.0))
    assert laurent.terms == tuple(FROZEN_K5)
    for name, expected in FROZEN_K5.items():
        assert budget[name] == pytest.approx(expected, rel=1e-12, abs=0.0), name
    assert budget["total"] == pytest.approx(0.01568984196544752, rel=1e-12, abs=0.0)


def test_first_control_decay_term_is_exact():
    # 2 pi k / (omega tau) with no approximation at all
    k, omega, tau = 7, 2.0e6, 3.3e-4
    budget = budget_sequential_uniform(k, 1.0e9, tau, W10).at(omega)
    assert budget["se_c_1"] == 2.0 * math.pi * k / (omega * tau)


@given(
    k=st.integers(min_value=1, max_value=64),
    log_omega=st.floats(min_value=4.0, max_value=8.0),
    log_ratio=st.floats(min_value=0.3, max_value=3.0),
    log_tau=st.floats(min_value=-5.0, max_value=-2.0),
)
def test_closed_forms_match_rational_sum_oracle(k, log_omega, log_ratio, log_tau):
    omega = 2.0 * math.pi * 10.0**log_omega
    b = omega * 10.0**log_ratio
    tau = 10.0**log_tau
    laurent = budget_sequential_uniform(k, b, tau, W10)
    closed, oracle = laurent.at(omega), sum_oracle_sequential(k, b, tau, W10, omega)
    for name in laurent.terms:
        assert closed[name] == pytest.approx(oracle[name], rel=1e-10, abs=1e-300), name


@given(
    k=st.integers(min_value=1, max_value=64),
    log_omega=st.floats(min_value=4.0, max_value=8.0),
    log_ratio=st.floats(min_value=0.3, max_value=3.0),
    log_tau=st.floats(min_value=-5.0, max_value=-2.0),
)
def test_grover_closed_forms_match_oracle(k, log_omega, log_ratio, log_tau):
    omega = 2.0 * math.pi * 10.0**log_omega
    b = omega * 10.0**log_ratio
    tau = 10.0**log_tau
    laurent = budget_grover_uniform(k, b, tau, W10)
    closed, oracle = laurent.at(omega), sum_oracle_grover(k, b, tau, W10, omega)
    for name in laurent.terms:
        assert closed[name] == pytest.approx(oracle[name], rel=1e-10, abs=1e-300), name


def test_grover_frozen_k5():
    laurent = budget_grover_uniform(5, angular_from_mhz(20.0), 500e-6, W10)
    budget = laurent.at(angular_from_mhz(1.0))
    assert laurent.terms == ("se_c_1", "se_c_2", "r_c_1", "r_c_2")
    assert budget["total"] == pytest.approx(0.010928662428277192, rel=1e-12, abs=0.0)
    # the single-expression reduction is an independent diagnostic, kept
    # out of the total; it differs from the term sum only at higher order
    variant = budget["diag_collapsed_total_variant"]
    assert variant == pytest.approx(budget["total"], rel=1e-6, abs=0.0)
    assert variant != budget["total"]


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_lattice_collapses_to_uniform_for_constant_law(k):
    omega = angular_from_mhz(1.3)
    b = angular_from_mhz(35.0)
    tau = 4.2e-4
    geom = build_layout(1.0e-6, k)
    lattice = budget_sequential_lattice(ConstantLaw(b), geom, tau, W10)
    uniform = budget_sequential_uniform(k, b, tau, W10)
    for name in uniform.terms:
        assert lattice.at(omega)[name] == pytest.approx(
            uniform.at(omega)[name], rel=1e-12, abs=0.0), name
    # only a lattice budget keeps the pair shifts it was built from
    assert lattice.pair_shifts and not uniform.pair_shifts


def test_lattice_geometry_k_mismatch_rejected():
    # the lattice budget takes k from its geometry, and a geometry whose k
    # disagrees with its control sites cannot be built
    geom = build_layout(1.0e-6, 4)
    with pytest.raises(ValueError, match="k must match"):
        LatticeGeometry(d=geom.d, k=5, target_site=(0, 0), control_sites=geom.control_sites)


def _pulse_times(k: int, omega: float) -> tuple[float, float]:
    """Durations of the sequential and grover gates, s."""
    return tuple(
        build(k, 1.0e9, 5e-4, W10).duration(omega)
        for build in (budget_sequential_uniform, budget_grover_uniform)
    )


def test_duration_sequential():
    # 2k+3 pi pulses at pi/omega each: k=5 at omega/2pi = 1 MHz gives 6.5 us
    sequential, _ = _pulse_times(5, angular_from_mhz(1.0))
    assert sequential == pytest.approx(6.5e-6, rel=1e-12, abs=0.0)


def test_duration_grover():
    _, grover = _pulse_times(5, angular_from_mhz(1.0))
    assert grover == pytest.approx(5.0e-6, rel=1e-12, abs=0.0)


@given(k=st.integers(min_value=1, max_value=64))
def test_durations_scale_linearly_in_k(k):
    omega = 2.0e6
    sequential, grover = _pulse_times(k, omega)
    assert sequential == pytest.approx((2 * k + 3) * math.pi / omega, rel=1e-12, abs=0.0)
    assert grover == pytest.approx(2 * k * math.pi / omega, rel=1e-12, abs=0.0)


def test_worst_case_detuned_inv_sq_uses_nearer_resonance():
    w10, b = 10.0, 3.0
    assert worst_case_detuned_inv_sq(w10, b) == pytest.approx(1.0 / (w10 - b) ** 2)
    assert worst_case_detuned_inv_sq(w10, 0.0) == pytest.approx(1.0 / w10**2)


def test_k_above_cap_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        budget_sequential_uniform(65, 1e8, 5e-4, W10)


def test_totals_are_positive_and_sum_of_terms():
    laurent = budget_sequential_uniform(12, angular_from_mhz(30.0), 6e-4, W10)
    budget = laurent.at(angular_from_mhz(0.7))
    assert budget["total"] == pytest.approx(math.fsum(budget[name] for name in laurent.terms))
    assert all(budget[name] >= 0.0 for name in laurent.terms)
