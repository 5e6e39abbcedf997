"""Acceptance suite: nine numbered criteria, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` pytest shows the captured line for any failing criterion.
Each test prints its verdict before asserting, so a FAIL is always
reported with the measured numbers that produced it.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from rydgate import (
    budget_grover_uniform,
    budget_sequential_lattice,
    budget_sequential_uniform,
    budget_simultaneous_uniform,
    build_layout,
    canonical_sequence,
    e_opt_analytic,
    gate_error_sim,
    minimize_error,
    omega_opt_analytic,
    uniform_interactions,
)
from rydgate.cli import build_interaction, cmd_budget, load_config, preset_path
from rydgate.units import (
    angular_from_mhz,
    meters_from_um,
    mhz_from_angular,
    seconds_from_us,
    us_from_seconds,
)

from oracles import cc_rotation_weight, sum_oracle_grover, sum_oracle_sequential

W10 = angular_from_mhz(9200.0)


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


# 1. closed-form optimum reproduces three lab anchor points within 5%
def test_criterion_1_analytic_optimum_anchors():
    anchors = [(0.69, 330.0, 0.11), (9.0, 540.0, 0.53), (52.0, 820.0, 1.5)]
    measured = []
    ok = True
    for b_mhz, tau_us, target in anchors:
        w = mhz_from_angular(
            omega_opt_analytic(angular_from_mhz(b_mhz), seconds_from_us(tau_us))
        )
        measured.append(f"{w:.4f}")
        ok = ok and abs(w - target) <= 0.05 * target
    assert verdict(1, "analytic optimum anchors (MHz)", ok, ", ".join(measured))


# 2. optimized k=50 uniform budget lands on the 6% benchmark within 10%
def test_criterion_2_k50_budget_level():
    b = angular_from_mhz(52.0)
    tau = seconds_from_us(820.0)

    budget = budget_sequential_uniform(50, b, tau, W10)
    at_analytic = budget.at(omega_opt_analytic(b, tau))["total"]
    numeric = minimize_error(budget)
    numeric_min = budget.at(*numeric.argmin)["total"]
    ok = (
        abs(at_analytic - 0.06) <= 0.10 * 0.06
        and abs(numeric_min - 0.06) <= 0.10 * 0.06
        and numeric.converged
    )
    assert verdict(
        2,
        "k=50 optimized total near 0.06",
        ok,
        f"analytic point {at_analytic:.6f}, numeric min {numeric_min:.6f}",
    )


# 3. closed forms against the exact rational state sums, 100 random draws
def test_criterion_3_closed_forms_match_oracles():
    rng = random.Random(20260823)
    worst = 0.0
    for _ in range(100):
        k = rng.randint(1, 64)
        b = angular_from_mhz(10.0 ** rng.uniform(0.5, 3.5))
        om = b / 10.0 ** rng.uniform(1.0, 2.5)
        w10 = b * 10.0 ** rng.uniform(1.0, 2.0)
        tau = seconds_from_us(10.0 ** rng.uniform(1.0, 3.5))
        for closed_fn, oracle_fn in (
            (budget_sequential_uniform, sum_oracle_sequential),
            (budget_grover_uniform, sum_oracle_grover),
        ):
            budget = closed_fn(k, b, tau, w10)
            closed = budget.at(om)
            oracle = oracle_fn(k, b, tau, w10, om)
            assert {*budget.terms, "total"} == set(oracle)
            for name in budget.terms:
                value, ref = closed[name], oracle[name]
                if ref == 0.0:
                    # k=1 has no control pairs; both routes must vanish
                    worst = max(worst, abs(value))
                else:
                    worst = max(worst, abs(value - ref) / abs(ref))
            worst = max(worst, abs(closed["total"] - oracle["total"]) / oracle["total"])
    ok = worst < 1.0e-10
    assert verdict(3, "closed forms vs rational sums", ok, f"worst rel {worst:.2e}")


def _collective_k8():
    """The k = 8 collective gate of checks 4 and 8, uniform shifts."""
    return budget_simultaneous_uniform(
        8, angular_from_mhz(1000.0), angular_from_mhz(2.0),
        seconds_from_us(148.0), seconds_from_us(97.0), W10,
    )


# 4. collective dephasing weight: brute-force binomial expectation agrees
#    with k^2(k-1)/16 exactly, and the budget surfaces the deviation of the
#    cubic (k^3-k)/16 variant as a diagnostic
def test_criterion_4_dephasing_weight_exact():
    exact = True
    for k in range(2, 21):
        e_j2 = Fraction(0)
        for j in range(k):
            e_j2 += Fraction(math.comb(k - 1, j) * j * j, 2 ** (k - 1))
        brute = Fraction(k, 4) * e_j2
        exact = exact and brute == cc_rotation_weight(k) == Fraction(k * k * (k - 1), 16)

    budget = _collective_k8().at(angular_from_mhz(390.0), angular_from_mhz(1.6))
    variant = budget["diag_r_c_1_cubic_variant"]
    surfaced = variant != budget["r_c_1"] and variant / budget[
        "r_c_1"
    ] == pytest.approx(Fraction(8 + 1, 8), rel=1e-12, abs=0.0)
    ok = exact and surfaced
    assert verdict(
        4,
        "binomial dephasing weight",
        ok,
        f"exact k=2..20: {exact}, cubic variant surfaced: {surfaced}",
    )


# 5. closed-form argmin within 10% of the analytic optimum across the
#    blockade-regime ensemble (B*tau/k between 30 and 3e4, B << omega10)
def test_criterion_5_numeric_vs_analytic_optimum():
    rng = random.Random(11)
    worst = 0.0
    checked = 0
    while checked < 40:
        k = rng.randint(2, 64)
        tau = 10.0 ** rng.uniform(-4.0, -3.0)
        ratio = 10.0 ** rng.uniform(math.log10(30.0), math.log10(3.0e4))
        b = k * ratio / tau
        if b > W10 / 50.0:
            continue
        analytic = omega_opt_analytic(b, tau)
        result = minimize_error(budget_sequential_uniform(k, b, tau, W10))
        worst = max(worst, abs(result.argmin[0] - analytic) / analytic)
        checked += 1
    ok = worst < 0.10
    assert verdict(
        5, "numeric argmin tracks analytic", ok, f"worst rel {worst:.4f} over {checked} draws"
    )


# 6. simulator reproduces the ideal gate permutation in the infinite
#    blockade, no-decay limit for k = 1, 2, 3
def test_criterion_6_ideal_limit_truth_tables():
    worst_off = 0.0
    ok = True
    for k in (1, 2, 3):
        seq = canonical_sequence("sequential", k, omega=angular_from_mhz(1.0))
        res = gate_error_sim(seq, k, uniform_interactions(k, math.inf))
        dim = res.truth_table.shape[0]
        for idx in range(dim):
            row = res.truth_table[idx].copy()
            ideal = int(res.ideal_outputs[idx])
            off = float(row.sum() - row[ideal])
            worst_off = max(worst_off, off)
            ok = ok and row[ideal] > 1.0 - 1.0e-6
    ok = ok and worst_off < 1.0e-6
    assert verdict(6, "ideal-limit truth tables k=1..3", ok, f"worst off-target {worst_off:.2e}")


# 7. finite-blockade simulator error matches the (13/16)(Omega/B)^2
#    leading-order prediction within a factor 2 and scales as (Omega/B)^2
def test_criterion_7_finite_blockade_scaling():
    om = angular_from_mhz(1.0)
    seq = canonical_sequence("sequential", 2, omega=om)
    errors = []
    for ratio in (10.0, 20.0, 40.0):
        res = gate_error_sim(seq, 2, uniform_interactions(2, ratio * om))
        errors.append(res.avg_error)
    preds = [(13.0 / 16.0) / ratio**2 for ratio in (10.0, 20.0, 40.0)]
    level_ok = all(0.5 <= e / p <= 2.0 for e, p in zip(errors, preds))
    s1 = errors[0] / errors[1]
    s2 = errors[1] / errors[2]
    scaling_ok = abs(s1 - 4.0) <= 0.2 * 4.0 and abs(s2 - 4.0) <= 0.2 * 4.0
    ok = level_ok and scaling_ok
    assert verdict(
        7,
        "finite blockade quadratic error",
        ok,
        f"ratios to prediction {errors[0]/preds[0]:.3f}/{errors[1]/preds[1]:.3f}/"
        f"{errors[2]/preds[2]:.3f}, scalings {s1:.3f}, {s2:.3f}",
    )


# 8. collective gate duration 3pi/Omega_t + 2pi/Omega_c lands near 1.1 us
def test_criterion_8_simultaneous_duration():
    duration = _collective_k8().duration(angular_from_mhz(390.0), angular_from_mhz(1.6))
    dur_us = us_from_seconds(duration)
    ok = abs(dur_us - 1.1) <= 0.20 * 1.1
    assert verdict(8, "collective gate duration", ok, f"{dur_us:.4f} us vs 1.1 us")


# 9. lattice-averaged sequential minima: growth between linear and
#    quadratic in k, below the error at the analytic operating point
#    Omega_opt(mean shift), and the improvement over that operating point
#    is about 20%, reached at a reduced Rabi frequency
#
# On this preset the 1/Omega decay terms (se_c_1, se_t_1) and the Omega^2
# leakage terms (r_*) make up at least 99.5% of every row at its minimum;
# only the Omega-linear se_*_2 terms are left over. So each row lies on the
# two-term curve E(Omega) = a/Omega + c Omega^2. Its minimum sits at
# a = 2 c Omega*^3 with E* = 3 c Omega*^2, and at f Omega* the error is
# c Omega*^2 (2/f + f^2). Hence, per row,
#     E(f Omega*) / E* = (2/f + f^2) / 3,
# which locks the gain 1 - E*/E(f Omega*) to the Rabi factor f: the gain
# band fixes the factor band. A 20% gain means f ~ 1.58; the paper's
# "about half the analytic Rabi frequency" (f = 2) would mean a gain of
# 0.40 on this curve. That discrepancy is printed on every run.
GAIN_BAND = (0.17, 0.23)
LINK_RTOL = 5e-3


def two_term_loss(f: float) -> float:
    """E(f Omega*) / E* on the curve a/Omega + c Omega^2."""
    return (2.0 / f + f * f) / 3.0


def two_term_gain(f: float) -> float:
    return 1.0 - 1.0 / two_term_loss(f)


def factor_for_gain(gain: float) -> float:
    """The Rabi factor f > 1 at which the two-term curve gives ``gain``."""
    return brentq(lambda f: two_term_gain(f) - gain, 1.0, 10.0, xtol=1e-12)


def test_criterion_9_lattice_minima_vs_analytic_recipe():
    cfg = load_config(preset_path("sequential_lattice_crossover"), "budget")
    report = cmd_budget(cfg)
    rows = report["rows"]
    ks = [row["k"] for row in rows]
    assert ks == [3, 8, 15, 24, 35]
    emin = np.array([row["total"] for row in rows])
    w_star = np.array([row["omega_mhz"] for row in rows])
    w_opt = np.array([row["omega_opt_analytic_mhz"] for row in rows])

    slope = float(np.polyfit(np.log(ks), np.log(emin), 1)[0])
    ok_growth = 1.0 < slope < 2.0

    model = build_interaction(cfg["interaction"], "interaction")
    tau = seconds_from_us(cfg["lattice"]["tau_us"])
    d = meters_from_um(cfg["lattice"]["d_um"])
    omega10 = angular_from_mhz(cfg["omega10_mhz"])
    e_at_analytic = []
    for k, w_mhz in zip(ks, w_opt):
        geom = build_layout(d, k)
        budget = budget_sequential_lattice(model, geom, tau, omega10)
        e_at_analytic.append(budget.at(angular_from_mhz(float(w_mhz)))["total"])
    e_at_analytic = np.array(e_at_analytic)

    ok_below = bool(np.all(emin < e_at_analytic))

    factors = w_opt / w_star
    link_dev = np.abs((e_at_analytic / emin) / two_term_loss(factors) - 1.0)
    ok_link = bool(np.all(link_dev <= LINK_RTOL))

    gain = float(1.0 - np.mean(emin / e_at_analytic))
    factor = float(np.mean(factors))
    factor_band = tuple(factor_for_gain(g) for g in GAIN_BAND)
    ok_gain = GAIN_BAND[0] <= gain <= GAIN_BAND[1]
    ok_factor = factor_band[0] <= factor <= factor_band[1]

    ok = ok_growth and ok_below and ok_link and ok_gain and ok_factor
    verdict(
        9,
        "lattice minima vs analytic recipe",
        ok,
        f"slope {slope:.4f}, all below analytic: {ok_below}, "
        f"two-term link max dev {float(np.max(link_dev)):.2e}, "
        f"gain {gain:.4f}, rabi factor {factor:.4f} "
        f"in [{factor_band[0]:.4f}, {factor_band[1]:.4f}]; "
        f"paper factor 2 gives gain {two_term_gain(2.0):.4f} on this curve",
    )
    failures = []
    if not ok_growth:
        failures.append(f"log-log slope {slope:.4f} outside (1, 2)")
    if not ok_below:
        failures.append("some lattice minimum not below the analytic operating point")
    if not ok_link:
        failures.append(
            "loss ratio off (2/f + f^2)/3 by "
            + ", ".join(f"{x:.2e}" for x in link_dev)
            + f" (tolerance {LINK_RTOL:g})"
        )
    if not ok_gain:
        failures.append(f"improvement {gain:.4f} outside [{GAIN_BAND[0]}, {GAIN_BAND[1]}]")
    if not ok_factor:
        failures.append(
            f"rabi reduction factor {factor:.4f} outside "
            f"[{factor_band[0]:.4f}, {factor_band[1]:.4f}] implied by the gain band"
        )
    assert not failures, "; ".join(failures)
