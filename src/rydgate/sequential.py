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

The uniform budgets are closed forms; their un-collapsed per-state sums,
with exact rational state weights, live in the tests as the independent
check of every collapsed expression.  The +/- ambiguity in (omega10 +/- B)
denominators is resolved conservatively: each term takes the sign that
maximizes it, which for B, omega10 > 0 is always the minus sign.

Lattice-averaged budgets keep each blockade shift with the atom pair that
produced it, weighted by the probability that this pair is the one acting
(the first control found in |0> blocks everyone after it, which happens
with probability 2^-i for control i in excitation order).

Every term is c Omega^p with p in {-1, 1, 2}.  ``budget_sequential_uniform``
and ``budget_sequential_lattice`` build those coefficients once (the
uniform closed forms are the lattice pair sums with one shift for every
pair), together with the pulse time (2k+3) pi / Omega; the returned
``LaurentBudget`` is evaluated at any frequency with ``at`` or ``table``.

A phase-inversion variant with 2k pulses and no target (the conditional
phase used inside quantum-search circuits) shares the control bookkeeping;
``budget_grover_uniform`` builds its four terms and its 2k pi / Omega pulse
time.
"""

from __future__ import annotations

import math

from .budget import LaurentBudget, check_inputs, check_k
from .lattice import LatticeGeometry, pair_sets
from .model import pair_shift

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

GROVER_DIAGNOSTICS = ("collapsed_total_variant",)


def worst_case_detuned_inv_sq(omega10: float, b: float) -> float:
    """max of 1/(omega10 - b)^2 and 1/(omega10 + b)^2, inf at b = omega10.

    The sign of the combined detuning depends on level structure not
    resolved here, so every term takes the larger (pessimistic) value.
    For b >= 0 and omega10 > 0, which ``check_inputs`` ensures, |omega10 - b|
    <= omega10 + b, and rounding keeps that order, so it is 1/(omega10 - b)^2.
    """
    minus = omega10 - b
    return math.inf if minus == 0.0 else 1.0 / (minus * minus)


# the monomial basis of the single-frequency budgets: Omega^-1, Omega, Omega^2
_POWERS = ((0, -1), (0, 1), (0, 2))


def _sequential_laurent(
    k: int,
    tau: float,
    omega10: float,
    sums: tuple[float, float, float, float, float],
    pair_shifts: tuple[tuple[float, ...], ...] = (),
) -> LaurentBudget:
    """The C_kNOT budget from its five blockade sums over weighted pairs.

    ``sums`` are (cc_slots_inv_sq, cc_inv_sq, cc_det, ct_inv_sq, ct_det):
    control j (1-based, excitation order) blocks a later control m with
    weight w = 2^-(j+1) over n_m = 4 + 2(k-m) pulse slots, and blocks the
    target as the first control in |0> with weight w = 2^-j.  The sums run
    over control pairs of n_m w / B^2, w / B^2 and w det, then over
    control-target pairs of w / B^2 and w det, where ``det`` is
    ``worst_case_detuned_inv_sq(omega10, B)`` of the pair's shift B.
    """
    cc_slots_inv_sq, cc_inv_sq, cc_det, ct_inv_sq, ct_det = sums
    half_k = math.ldexp(1.0, -k)
    inv_w10 = 1.0 / (omega10 * omega10)
    rows = (
        (2.0 * math.pi * k / tau, 0.0, 0.0),  # se_c_1
        (0.0, math.pi / (2.0 * tau) * cc_slots_inv_sq, 0.0),  # se_c_2
        (math.pi / tau * half_k, 0.0, 0.0),  # se_t_1
        (0.0, 5.0 * math.pi / (8.0 * tau) * ct_inv_sq, 0.0),  # se_t_2
        (0.0, 0.0, cc_inv_sq),  # r_c_1
        (0.0, 0.0, inv_w10 * (1.0 - half_k) + cc_det),  # r_c_2
        (0.0, 0.0, 0.75 * ct_inv_sq),  # r_t_1
        (0.0, 0.0, half_k * 0.5 * inv_w10 + 1.5 * ct_det),  # r_t_2
    )
    return LaurentBudget(_POWERS, dict(zip(SEQUENTIAL_TERMS, rows)), pair_shifts=pair_shifts,
                         pulse_time=((2 * k + 3) * math.pi,))


def budget_sequential_uniform(k: int, b: float, tau: float, omega10: float) -> LaurentBudget:
    """Closed-form budget with one blockade shift ``b`` (rad/s) for every
    pair; ``tau`` is the Rydberg lifetime, s, and ``omega10`` the qubit
    splitting, rad/s."""
    check_inputs(k, (b,), (tau,), omega10)
    half_k = math.ldexp(1.0, -k)  # 2^-k, exact
    inv_b2 = 1.0 / (b * b)
    det = worst_case_detuned_inv_sq(omega10, b)
    pairs = 0.5 * (k - 2.0 + 2.0 * half_k)  # sum over control pairs of w
    sums = (0.5 * (k * k - k) * inv_b2, pairs * inv_b2, pairs * det,
            (1.0 - half_k) * inv_b2, (1.0 - half_k) * det)
    return _sequential_laurent(k, tau, omega10, sums)


def budget_sequential_lattice(
    model, geom: LatticeGeometry, tau: float, omega10: float
) -> LaurentBudget:
    """Lattice-averaged budget: per-pair shifts inside the state sums.

    Every blockade-dependent term is evaluated before collapsing, with the
    shift of the concrete pair involved: the first-in-|0> control j blocks
    control m through pair_shift(R_jm) and blocks the target through
    pair_shift(R_j,target).  Terms without blockade dependence keep their
    closed forms.  With a distance-independent model this reproduces
    ``budget_sequential_uniform`` exactly.  The budget is built from one
    ``pair_shift`` per pair; ``pair_shifts`` holds the control-target
    shifts in excitation order and the control-control shifts in
    ``pair_sets`` order.
    """
    check_k(geom.k)  # before the O(k^2) pair work
    ps = pair_sets(geom)
    b_ct = tuple(pair_shift(model, r) for r in ps.control_target)
    b_cc = tuple(pair_shift(model, sep) for sep in ps.control_control_all)
    check_inputs(geom.k, b_ct + b_cc, (tau,), omega10)
    cc_slots = cc_inv = cc_det = ct_inv = ct_det = 0.0
    for (j0, m0, _), b in zip(ps.control_control_ordered, b_cc):
        w = math.ldexp(1.0, -(j0 + 2))  # 2^-(j+1), 1-based blocker j
        cc_slots += (4 + 2 * (geom.k - m0 - 1)) * w / (b * b)
        cc_inv += w / (b * b)
        cc_det += w * worst_case_detuned_inv_sq(omega10, b)
    for i0, b in enumerate(b_ct):
        w = math.ldexp(1.0, -(i0 + 1))  # 2^-i, 1-based first-in-|0> control i
        ct_inv += w / (b * b)
        ct_det += w * worst_case_detuned_inv_sq(omega10, b)
    sums = (cc_slots, cc_inv, cc_det, ct_inv, ct_det)
    return _sequential_laurent(geom.k, tau, omega10, sums, (b_ct, b_cc))


def budget_grover_uniform(k: int, b: float, tau: float, omega10: float) -> LaurentBudget:
    """Budget for the 2k-pulse conditional-phase variant (no target atom).

    The first control found in |0> makes a full 2 pi excursion through
    |r> and imprints the conditional phase; later controls in |0> are
    blockaded.  Only control terms arise.  The total is the sum of the
    four terms; the further-collapsed single-expression variant (which
    drops the omega10-only rotation piece and the 2^-k remainders of the
    combined detuning weight) is reported under diagnostics.
    """
    check_inputs(k, (b,), (tau,), omega10)
    half_k = math.ldexp(1.0, -k)
    inv_b2 = 1.0 / (b * b)
    det = worst_case_detuned_inv_sq(omega10, b)
    pairs = 0.5 * (k - 2.0 + 2.0 * half_k)
    se_c_1 = math.pi / tau * (2.0 * k - 3.0 + 3.0 * half_k)
    se_c_2 = math.pi * inv_b2 / (4.0 * tau) * (k * k - 4.0 * k + 6.0 - 6.0 * half_k)
    r_c_1 = pairs * inv_b2
    rows = (
        (se_c_1, 0.0, 0.0),  # se_c_1
        (0.0, se_c_2, 0.0),  # se_c_2
        (0.0, 0.0, r_c_1),  # r_c_1
        (0.0, 0.0, (1.0 - half_k) / (omega10 * omega10) + pairs * det),  # r_c_2
    )
    # the variant keeps k det / 2 of r_c_2 only
    combined = (se_c_1, se_c_2, r_c_1 + 0.5 * det * k)
    return LaurentBudget(_POWERS, dict(zip(GROVER_TERMS, rows)),
                         dict(zip(GROVER_DIAGNOSTICS, (combined,))), pulse_time=(2 * k * math.pi,))
