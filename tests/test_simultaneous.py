"""Collective-addressing budget tests.

The rotation weight identity here is deliberately tested twice: once
against a brute-force expectation in exact arithmetic, and once through
the reported diagnostic that carries the alternative cubic scaling.  The
two disagree by construction; the budget must keep them separate.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rydgate import (
    BlockadeRegimeWarning,
    InteractionModel,
    SimultaneousParams,
    budget_simultaneous_lattice,
    budget_simultaneous_uniform,
    build_layout,
    cc_rotation_weight,
    gate_duration_simultaneous,
    subset_inverse_square_expectations,
    target_blockade_sums,
)
from rydgate.units import (
    angular_from_mhz,
    c3_si_from_mhz_um3,
    c6_si_from_mhz_um6,
    meters_from_um,
)

from oracles import subset_inv_sq_enumerated, subset_inv_sq_quad

W10 = angular_from_mhz(9200.0)


def _brute_force_weight(k: int) -> Fraction:
    """Direct expectation: k/2 controls in |1> on average, each dephased
    by the j excited others; E[j^2] taken over the 2^(k-1) configurations
    of the remaining controls, exact rationals throughout."""
    e_j2 = Fraction(0)
    for j in range(k):
        e_j2 += Fraction(math.comb(k - 1, j) * j * j, 2 ** (k - 1))
    return Fraction(k, 4) * e_j2


@pytest.mark.parametrize("k", range(2, 21))
def test_cc_weight_equals_quadratic_closed_form(k):
    weight = cc_rotation_weight(k)
    assert weight == _brute_force_weight(k)
    assert weight == Fraction(k * k * (k - 1), 16)


@pytest.mark.parametrize("k", [3, 8, 20])
def test_cc_weight_deviates_from_cubic_variant(k):
    # the cubic k(k^2-1)/16 alternative differs for every k >= 3
    assert cc_rotation_weight(k) != Fraction(k**3 - k, 16)


def _uniform_params(k: int) -> SimultaneousParams:
    return SimultaneousParams(
        k=k,
        omega_c=angular_from_mhz(390.0),
        omega_t=angular_from_mhz(1.6),
        tau_c=148e-6,
        tau_t=97e-6,
        omega10=W10,
        b_ct=angular_from_mhz(10.0),
        d_cc=angular_from_mhz(9200.0 / 4096.0),
    )


def test_uniform_rotation_term_matches_weight():
    p = _uniform_params(35)
    budget = budget_simultaneous_uniform(p)
    ratio2 = (p.d_cc / p.omega_c) ** 2
    assert budget.terms["r_c_1"] == pytest.approx(
        float(cc_rotation_weight(35)) * ratio2, rel=1e-12, abs=0.0
    )
    assert budget.diagnostics["r_c_1_cubic_variant"] == pytest.approx(
        (35**3 - 35) / 16.0 * ratio2, rel=1e-12, abs=0.0
    )


def test_uniform_term_names_and_total():
    budget = budget_simultaneous_uniform(_uniform_params(5))
    assert tuple(budget.terms) == ("se_c", "se_t", "r_c_1", "r_c_2", "r_t")
    assert budget.total == pytest.approx(math.fsum(budget.terms.values()))


def test_target_blockade_sums_small_k_by_hand():
    # k=2, b=1, w10=0: j=1 weight 2/4 at 1/1, j=2 weight 1/4 at 1/4
    s_block, s_split = target_blockade_sums(2, 1.0, 0.0)
    assert s_block == pytest.approx(0.5 + 0.25 / 4.0, rel=1e-14, abs=0.0)
    assert s_split == s_block


@given(
    k=st.integers(min_value=2, max_value=12),
    log_b=st.floats(min_value=5.0, max_value=9.0),
)
def test_subset_expectation_enumeration_vs_quadrature(k, log_b):
    # two independent routes to E[1/X^2]: exact subset enumeration and
    # a Laplace-transform quadrature that never sees the 2^k subsets
    base = 10.0**log_b
    shifts = tuple(base / (1.0 + 0.37 * i) for i in range(k))
    for offset in (0.0, W10):
        exact = subset_inv_sq_enumerated(shifts, offset)
        quad_value = subset_inv_sq_quad(shifts, offset)
        assert quad_value == pytest.approx(exact, rel=1e-8, abs=0.0)


@st.composite
def _shift_sets(draw):
    """k = 1..64 shifts from 1e5..1e9 rad/s up to 1e5 times that, spread
    evenly in log or clustered at the two ends."""
    k = draw(st.integers(min_value=1, max_value=64))
    base = 10.0 ** draw(st.floats(min_value=5.0, max_value=9.0))
    spread = draw(st.sampled_from([st.floats(0.0, 5.0), st.sampled_from([0.0, 5.0])]))
    return tuple(base * 10.0 ** draw(spread) for _ in range(k))


@given(_shift_sets())
@example((1.0e7,) + (1.0e12,) * 63)  # two scales, the quadrature rule's hardest case
def test_subset_expectations_match_oracles(shifts):
    # enumeration is exact but 2^k; past k = 20 adaptive quadrature stands in
    oracle = subset_inv_sq_enumerated if len(shifts) <= 20 else subset_inv_sq_quad
    e_block, e_split = subset_inverse_square_expectations(shifts, W10)
    assert e_block == pytest.approx(oracle(shifts, 0.0), rel=1e-12, abs=0.0)
    assert e_split == pytest.approx(oracle(shifts, W10), rel=1e-12, abs=0.0)


# Frozen lattice-averaged totals for the bundled room-temperature preset:
# d = 4 um, c3_ct/2pi = 640 MHz um^3, c6_cc/2pi = 9200 MHz um^6,
# tau_c = 148 us, tau_t = 97 us, omega_c/2pi = 390 MHz, omega_t/2pi = 1.6 MHz.
FROZEN_LATTICE_TOTALS = {
    3: 0.021879951737618586,
    8: 0.03964641495043855,
    15: 0.06592809099061962,
    24: 0.10114184943036886,
    35: 0.14588604151728835,
}


def _lattice_budget(k: int):
    p = SimultaneousParams(
        k=k,
        omega_c=angular_from_mhz(390.0),
        omega_t=angular_from_mhz(1.6),
        tau_c=148e-6,
        tau_t=97e-6,
        omega10=W10,
    )
    model_ct = InteractionModel(c3=c3_si_from_mhz_um3(640.0))
    model_cc = InteractionModel(c6=c6_si_from_mhz_um6(9200.0))
    geom = build_layout(meters_from_um(4.0), k)
    return budget_simultaneous_lattice(p, model_ct, model_cc, geom)


def test_lattice_totals_frozen():
    for k, expected in FROZEN_LATTICE_TOTALS.items():
        assert _lattice_budget(k).total == pytest.approx(expected, rel=1e-10, abs=0.0), k


def test_lattice_totals_grow_monotonically():
    totals = [FROZEN_LATTICE_TOTALS[k] for k in sorted(FROZEN_LATTICE_TOTALS)]
    assert totals == sorted(totals)
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_lattice_k35_total_near_expected_scale():
    assert 0.5 * 0.23 < _lattice_budget(35).total < 2.0 * 0.23


def test_lattice_collapses_to_uniform_for_constant_models():
    class ConstantLaw:
        def __init__(self, b):
            self.b = b

        def shift_at(self, r):
            return self.b

    p = _uniform_params(6)
    geom = build_layout(meters_from_um(4.0), 6)
    lattice = budget_simultaneous_lattice(
        p, ConstantLaw(p.b_ct), ConstantLaw(p.d_cc), geom
    )
    uniform = budget_simultaneous_uniform(p)
    for name in uniform.terms:
        assert lattice.terms[name] == pytest.approx(uniform.terms[name], rel=1e-9, abs=0.0), name


def test_duration_k35_frequencies():
    p = _uniform_params(35)
    expected = 3.0 * math.pi / p.omega_t + 2.0 * math.pi / p.omega_c
    assert gate_duration_simultaneous(p) == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert gate_duration_simultaneous(p) == pytest.approx(0.94006410e-6, rel=1e-6, abs=0.0)


def test_blockade_regime_warning():
    with pytest.warns(BlockadeRegimeWarning):
        SimultaneousParams(
            k=4,
            omega_c=angular_from_mhz(1.0),
            omega_t=angular_from_mhz(0.1),
            tau_c=1e-4,
            tau_t=1e-4,
            omega10=W10,
            b_ct=angular_from_mhz(100.0),
            d_cc=angular_from_mhz(5.0),
        )


def test_uniform_requires_shift_values():
    p = SimultaneousParams(
        k=3,
        omega_c=1e8,
        omega_t=1e6,
        tau_c=1e-4,
        tau_t=1e-4,
        omega10=W10,
    )
    with pytest.raises(ValueError, match="requires b_ct and d_cc"):
        budget_simultaneous_uniform(p)
