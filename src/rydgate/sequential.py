"""Error budgets for the one-control-at-a-time C_kNOT pulse sequence.

The gate uses 2k+3 pi pulses: controls 1..k are driven |0> -> |r| in
excitation order, three pulses swap the target ground states through |r>,
and the controls are returned in reverse order with a pi phase offset.
Each budget term is an average over the 2^(k+1) computational basis
states.  Two error classes are tracked per atom group:

* spontaneous emission (``se_*``): Rydberg decay during pulses and waits,
  proportional to 1/(Omega tau) or, for blockade-leaked population,
  Omega/(B^2 tau);
* rotation errors (``r_*``): population transfer by off-resonant driving,
  proportional to Omega^2 over the squared detuning (blockade shift B,
  qubit splitting omega10, or their combination).

Closed forms and their un-collapsed per-state sums are both provided; the
sums use exact rational state weights and serve as the independent check
of every collapsed expression.  The +/- ambiguity in (omega10 +/- B)
denominators is resolved conservatively: each term takes the sign that
maximizes it.

For lattice-averaged budgets the substitution happens before the sums
collapse: each blockade shift keeps the identity of the atom pair that
produced it, weighted by the probability that this pair is the one acting
(the first control found in |0> blocks everyone after it, which happens
with probability 2^-i for control i in excitation order).

A phase-inversion variant with 2k pulses and no target (the conditional
phase used inside quantum-search circuits) shares the control bookkeeping;
its four terms are evaluated by ``budget_grover_uniform``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .budget import _MAX_K, ErrorBudget
from .lattice import LatticeGeometry, pair_sets
from .model import GateParams, pair_shift

SEQUENTIAL_TERMS = (
    "se_c_1",
    "se_c_2",
    "se_t_1",
    "se_t_2",
    "r_c_1",
    "r_c_2",
    "r_t_1",
    "r_t_2",
)

GROVER_TERMS = ("se_c_1", "se_c_2", "r_c_1", "r_c_2")


def _check_inputs(p: GateParams, b: float | None, tau: float) -> None:
    if p.omega is None:
        raise ValueError("GateParams.omega is required for this scheme")
    if p.k > _MAX_K:
        raise ValueError(f"k = {p.k} exceeds the supported maximum of {_MAX_K}")
    if b is not None and not (b > 0.0):
        raise ValueError("blockade shift b must be positive")
    if not (tau > 0.0):
        raise ValueError("lifetime tau must be positive")


def worst_case_detuned_inv_sq(omega10: float, b: float) -> float:
    """max of 1/(omega10 - b)^2 and 1/(omega10 + b)^2.

    The sign of the combined detuning depends on level structure not
    resolved here, so every term takes the larger (pessimistic) value.
    """
    minus = omega10 - b
    plus = omega10 + b
    worst = 1.0 / (plus * plus)
    if minus == 0.0:
        return math.inf
    return max(worst, 1.0 / (minus * minus))


def budget_sequential_uniform(p: GateParams, b: float, tau: float) -> ErrorBudget:
    """Closed-form budget with one blockade shift ``b`` for every pair.

    Parameters
    ----------
    p : GateParams
        Needs ``omega``, ``omega10``, ``k``.
    b : float
        Blockade shift, rad/s.
    tau : float
        Rydberg lifetime, s.
    """
    _check_inputs(p, b, tau)
    k, om, w10 = p.k, p.omega, p.omega10
    half_k = math.ldexp(1.0, -k)  # 2^-k, exact
    inv_b2 = 1.0 / (b * b)
    det = worst_case_detuned_inv_sq(w10, b)
    terms = {
        "se_c_1": 2.0 * math.pi * k / (om * tau),
        "se_c_2": math.pi * om * inv_b2 / (4.0 * tau) * (k * k - k),
        "se_t_1": math.pi / (om * tau) * half_k,
        "se_t_2": 5.0 * math.pi * om * inv_b2 / (8.0 * tau) * (1.0 - half_k),
        "r_c_1": 0.5 * om * om * inv_b2 * (k - 2.0 + 2.0 * half_k),
        "r_c_2": om * om / (w10 * w10) * (1.0 - half_k)
        + 0.5 * om * om * det * (k - 2.0 + 2.0 * half_k),
        "r_t_1": 0.75 * om * om * inv_b2 * (1.0 - half_k),
        "r_t_2": half_k * om * om / (2.0 * w10 * w10)
        + (1.0 - half_k) * 1.5 * om * om * det,
    }
    return ErrorBudget.from_terms("sequential", "uniform", terms)


# Exact rational state weights for the un-collapsed sums.  Control i
# (1-based, excitation order) is the first control in |0> with probability
# 2^-i; a later control m in |0> coexists with first-blocker j in
# 2^(k-j) of the 2^(k+1) basis states.


def _sum_se_c_1_weight(k: int) -> Fraction:
    # per state: one excitation plus one return pulse (two half-populated
    # pulses -> 1) plus n_wait = 3 + 2(k-i) fully excited pulse slots
    return sum(
        (Fraction(1, 2**i) * (1 + 3 + 2 * (k - i)) for i in range(1, k + 1)),
        Fraction(0),
    )


def _sum_se_c_2_weight(k: int) -> Fraction:
    return sum(
        (
            Fraction((1 + 3 + 2 * (k - i)) * sum(2 ** (k - j) for j in range(1, i)), 2 ** (k + 1))
            for i in range(2, k + 1)
        ),
        Fraction(0),
    )


def _sum_blocked_pair_weight(k: int) -> Fraction:
    # sum over blocked control m and earlier blocker j of 2^-(j+1)
    return sum(
        (Fraction(1, 2 ** (j + 1)) for m in range(2, k + 1) for j in range(1, m)),
        Fraction(0),
    )


def sum_oracle_sequential(p: GateParams, b: float, tau: float) -> ErrorBudget:
    """Budget evaluated from the per-state sums before any collapse.

    Combinatorial weights are exact rationals; only the final product with
    the physical prefactor is floating point.  Serves as the independent
    oracle for ``budget_sequential_uniform``.
    """
    _check_inputs(p, b, tau)
    k, om, w10 = p.k, p.omega, p.omega10
    det = worst_case_detuned_inv_sq(w10, b)

    se_c_1 = math.pi / (om * tau) * float(_sum_se_c_1_weight(k))
    se_c_2 = math.pi * om / (2.0 * b * b * tau) * float(_sum_se_c_2_weight(k))
    se_t_1 = math.pi / (om * tau) * float(Fraction(2, 2 ** (k + 1)))
    # blocked-target leak, resolved by which control blocks first
    w = sum((Fraction(2 ** (k - i), 2 ** (k + 1)) for i in range(1, k + 1)), Fraction(0))
    se_t_2 = 5.0 * math.pi * om / (4.0 * b * b * tau) * float(w)
    w = Fraction(sum(2**k - 2**i for i in range(1, k)), 2 ** (k + 1))
    r_c_1 = om * om / (b * b) * float(w)
    w_res = sum((Fraction(1, 2**i) for i in range(1, k + 1)), Fraction(0))
    w_det = sum(
        (
            Fraction(sum(2 ** (k - j) for j in range(0, i - 1)), 2 ** (k + 2))
            for i in range(2, k + 1)
        ),
        Fraction(0),
    )
    r_c_2 = om * om / (w10 * w10) * float(w_res) + om * om * det * float(w_det)
    w = sum((Fraction(1, 2 ** (i + 1)) for i in range(1, k + 1)), Fraction(0))
    r_t_1 = 3.0 * om * om / (2.0 * b * b) * float(w)
    r_t_2 = float(Fraction(1, 2**k)) * om * om / (2.0 * w10 * w10) + float(
        Fraction(2**k - 1, 2**k)
    ) * 1.5 * om * om * det
    terms = {
        "se_c_1": se_c_1,
        "se_c_2": se_c_2,
        "se_t_1": se_t_1,
        "se_t_2": se_t_2,
        "r_c_1": r_c_1,
        "r_c_2": r_c_2,
        "r_t_1": r_t_1,
        "r_t_2": r_t_2,
    }
    return ErrorBudget.from_terms("sequential", "uniform", terms)


def budget_sequential_lattice(
    p: GateParams, model, geom: LatticeGeometry, tau: float
) -> ErrorBudget:
    """Lattice-averaged budget: per-pair shifts inside the state sums.

    Every blockade-dependent term is evaluated before collapsing, with the
    shift of the concrete pair involved: the first-in-|0> control j blocks
    control m through pair_shift(R_jm) and blocks the target through
    pair_shift(R_j,target).  Terms without blockade dependence keep their
    closed forms.  With a distance-independent model this reproduces
    ``budget_sequential_uniform`` exactly.
    """
    _check_inputs(p, None, tau)
    if geom.k != p.k:
        raise ValueError("geometry and GateParams disagree on k")
    k, om, w10 = p.k, p.omega, p.omega10
    half_k = math.ldexp(1.0, -k)
    ps = pair_sets(geom)
    b_ct = [pair_shift(model, r) for r in ps.control_target]
    b_cc: dict[tuple[int, int], float] = {
        (i, j): pair_shift(model, sep) for (i, j, sep) in ps.control_control_ordered
    }
    for shift in list(b_cc.values()) + b_ct:
        if not (shift > 0.0):
            raise ValueError("pair shift must be positive for every pair")

    # weight of (blocker j, blocked m): 2^-(j+1) with 1-based j
    def blocker_weight(j1: int) -> float:
        return math.ldexp(1.0, -(j1 + 1))

    se_c_2 = 0.0
    r_c_1 = 0.0
    r_c_2_det = 0.0
    for m0 in range(1, k):  # blocked control, 0-based
        m1 = m0 + 1
        n_pulses = 1 + 3 + 2 * (k - m1)
        for j0 in range(m0):  # earlier blocker, 0-based
            w = blocker_weight(j0 + 1)
            shift = b_cc[(j0, m0)]
            inv2 = 1.0 / (shift * shift)
            se_c_2 += math.pi * om / (2.0 * tau) * n_pulses * w * inv2
            r_c_1 += om * om * w * inv2
            r_c_2_det += om * om * w * worst_case_detuned_inv_sq(w10, shift)

    se_t_2 = 0.0
    r_t_1 = 0.0
    r_t_2_det = 0.0
    for i0 in range(k):  # first-in-|0> control blocking the target
        w_first = math.ldexp(1.0, -(i0 + 1))  # 2^-i, 1-based i
        shift = b_ct[i0]
        inv2 = 1.0 / (shift * shift)
        se_t_2 += 5.0 * math.pi * om / (4.0 * tau) * 0.5 * w_first * inv2
        r_t_1 += 0.75 * om * om * w_first * inv2
        r_t_2_det += 1.5 * om * om * w_first * worst_case_detuned_inv_sq(w10, shift)

    terms = {
        "se_c_1": 2.0 * math.pi * k / (om * tau),
        "se_c_2": se_c_2,
        "se_t_1": math.pi / (om * tau) * half_k,
        "se_t_2": se_t_2,
        "r_c_1": r_c_1,
        "r_c_2": om * om / (w10 * w10) * (1.0 - half_k) + r_c_2_det,
        "r_t_1": r_t_1,
        "r_t_2": half_k * om * om / (2.0 * w10 * w10) + r_t_2_det,
    }
    return ErrorBudget.from_terms("sequential", "lattice", terms)


def budget_grover_uniform(p: GateParams, b: float, tau: float) -> ErrorBudget:
    """Budget for the 2k-pulse conditional-phase variant (no target atom).

    The first control found in |0> makes a full 2 pi excursion through
    |r> and imprints the conditional phase; later controls in |0> are
    blockaded.  Only control terms arise.  The total is the sum of the
    four terms; the further-collapsed single-expression variant (which
    drops the omega10-only rotation piece and the 2^-k remainders of the
    combined detuning weight) is reported under diagnostics.
    """
    _check_inputs(p, b, tau)
    k, om, w10 = p.k, p.omega, p.omega10
    half_k = math.ldexp(1.0, -k)
    inv_b2 = 1.0 / (b * b)
    det = worst_case_detuned_inv_sq(w10, b)
    terms = {
        "se_c_1": math.pi / (om * tau) * (2.0 * k - 3.0 + 3.0 * half_k),
        "se_c_2": math.pi * om * inv_b2 / (4.0 * tau)
        * (k * k - 4.0 * k + 6.0 - 6.0 * half_k),
        "r_c_1": 0.5 * om * om * inv_b2 * (k - 2.0 + 2.0 * half_k),
        "r_c_2": om * om / (w10 * w10) * (1.0 - half_k)
        + om * om * det * (0.5 * k + half_k - 1.0),
    }
    combined = (
        math.pi * om * inv_b2 / (4.0 * tau) * (k * k - 4.0 * k + 6.0 * (1.0 - half_k))
        + 2.0 * math.pi / (om * tau) * (k - 1.5 + 1.5 * half_k)
        + 0.5 * om * om * inv_b2 * (k - 2.0 + 2.0 * half_k)
        + 0.5 * om * om * det * k
    )
    return ErrorBudget.from_terms(
        "grover", "uniform", terms, {"collapsed_total_variant": combined}
    )


def sum_oracle_grover(p: GateParams, b: float, tau: float) -> ErrorBudget:
    """Per-state-sum oracle for ``budget_grover_uniform``.

    Re-derived from the same bookkeeping as the C_kNOT sums: the first
    |0> control waits n_wait = 2(k-i) pulses between its two resonant
    pulses; blocked pair weights are identical because dropping the target
    halves both the state count and the pair-state count.
    """
    _check_inputs(p, b, tau)
    k, om, w10 = p.k, p.omega, p.omega10
    det = worst_case_detuned_inv_sq(w10, b)

    w = sum(
        (Fraction(1 + 2 * (k - i), 2**i) for i in range(1, k + 1)), Fraction(0)
    )
    se_c_1 = math.pi / (om * tau) * float(w)
    w = sum(
        (
            Fraction(1 + 2 * (k - m), 2 ** (j + 1))
            for m in range(2, k + 1)
            for j in range(1, m)
        ),
        Fraction(0),
    )
    se_c_2 = math.pi * om / (2.0 * b * b * tau) * float(w)
    w_pair = _sum_blocked_pair_weight(k)
    r_c_1 = om * om / (b * b) * float(w_pair)
    w_res = sum((Fraction(1, 2**i) for i in range(1, k + 1)), Fraction(0))
    r_c_2 = om * om / (w10 * w10) * float(w_res) + om * om * det * float(w_pair)
    terms = {
        "se_c_1": se_c_1,
        "se_c_2": se_c_2,
        "r_c_1": r_c_1,
        "r_c_2": r_c_2,
    }
    return ErrorBudget.from_terms("grover", "uniform", terms)


def gate_duration_sequential(p: GateParams) -> float:
    """Total pulse time of the 2k+3 pi-pulse sequence, seconds."""
    if p.omega is None:
        raise ValueError("GateParams.omega is required")
    return (2 * p.k + 3) * math.pi / p.omega


def gate_duration_grover(p: GateParams) -> float:
    """Total pulse time of the 2k-pulse conditional-phase sequence, seconds."""
    if p.omega is None:
        raise ValueError("GateParams.omega is required")
    return 2 * p.k * math.pi / p.omega
