"""Collective-addressing budget tests.

The rotation weight identity here is deliberately tested twice: once
against a brute-force expectation in exact arithmetic, and once through
the reported diagnostic that carries the alternative cubic scaling.  The
two disagree by construction; the budget must keep them separate.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rydgate import (
    BlockadeRegimeWarning,
    InteractionModel,
    budget_simultaneous_lattice,
    budget_simultaneous_uniform,
    build_layout,
    subset_inverse_square_expectations,
)
from rydgate.cli import cmd_budget, load_config
from rydgate.simultaneous import target_blockade_sums
from rydgate.units import (
    angular_from_mhz,
    c3_si_from_mhz_um3,
    c6_si_from_mhz_um6,
    meters_from_um,
)

from oracles import cc_rotation_weight, subset_inv_sq_enumerated, subset_inv_sq_quad

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


OMEGA_C = angular_from_mhz(390.0)
OMEGA_T = angular_from_mhz(1.6)
B_CT = angular_from_mhz(10.0)
D_CC = angular_from_mhz(9200.0 / 4096.0)


def _uniform_budget(k: int):
    return budget_simultaneous_uniform(k, B_CT, D_CC, 148e-6, 97e-6, W10)


def test_uniform_rotation_term_matches_weight():
    budget = _uniform_budget(35).at(OMEGA_C, OMEGA_T)
    ratio2 = (D_CC / OMEGA_C) ** 2
    assert budget["r_c_1"] == pytest.approx(
        float(cc_rotation_weight(35)) * ratio2, rel=1e-12, abs=0.0
    )
    assert budget["diag_r_c_1_cubic_variant"] == pytest.approx(
        (35**3 - 35) / 16.0 * ratio2, rel=1e-12, abs=0.0
    )


def test_uniform_term_names_and_total():
    laurent = _uniform_budget(5)
    budget = laurent.at(OMEGA_C, OMEGA_T)
    assert laurent.terms == ("se_c", "se_t", "r_c_1", "r_c_2", "r_t")
    assert budget["total"] == pytest.approx(math.fsum(budget[name] for name in laurent.terms))


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
    model_ct = InteractionModel(c3=c3_si_from_mhz_um3(640.0))
    model_cc = InteractionModel(c6=c6_si_from_mhz_um6(9200.0))
    geom = build_layout(meters_from_um(4.0), k)
    budget = budget_simultaneous_lattice(model_ct, model_cc, geom, 148e-6, 97e-6, W10)
    return budget.at(OMEGA_C, OMEGA_T)


def test_lattice_totals_frozen():
    for k, expected in FROZEN_LATTICE_TOTALS.items():
        assert _lattice_budget(k)["total"] == pytest.approx(expected, rel=1e-10, abs=0.0), k


def test_lattice_totals_grow_monotonically():
    totals = [FROZEN_LATTICE_TOTALS[k] for k in sorted(FROZEN_LATTICE_TOTALS)]
    assert totals == sorted(totals)
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_lattice_k35_total_near_expected_scale():
    assert 0.5 * 0.23 < _lattice_budget(35)["total"] < 2.0 * 0.23


def test_lattice_collapses_to_uniform_for_constant_models():
    class ConstantLaw:
        def __init__(self, b):
            self.b = b

        def shift_at(self, r):
            return self.b

    geom = build_layout(meters_from_um(4.0), 6)
    lattice = budget_simultaneous_lattice(
        ConstantLaw(B_CT), ConstantLaw(D_CC), geom, 148e-6, 97e-6, W10
    ).at(OMEGA_C, OMEGA_T)
    uniform = _uniform_budget(6)
    for name in uniform.terms:
        assert lattice[name] == pytest.approx(
            uniform.at(OMEGA_C, OMEGA_T)[name], rel=1e-9, abs=0.0), name


def test_duration_k35_frequencies():
    duration = _uniform_budget(35).duration(OMEGA_C, OMEGA_T)
    expected = 3.0 * math.pi / OMEGA_T + 2.0 * math.pi / OMEGA_C
    assert duration == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert duration == pytest.approx(0.94006410e-6, rel=1e-6, abs=0.0)


def test_blockade_regime_warning(tmp_path):
    # a reported row with omega_c below d_cc is outside the regime
    cfg = {
        "scheme": "simultaneous",
        "k": 4,
        "omega10_mhz": 9200.0,
        "uniform": {"b_ct_mhz": 100.0, "d_cc_mhz": 5.0, "tau_c_us": 100.0, "tau_t_us": 100.0},
        "frequencies": {"mode": "fixed", "omega_c_mhz": 1.0, "omega_t_mhz": 0.1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.warns(BlockadeRegimeWarning):
        cmd_budget(load_config(str(path), "budget"))
