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
maximizes it, which for B, omega10 > 0 is always the minus sign; at
B = omega10 the builders raise ``DivergentBudgetError`` instead.

Lattice-averaged budgets keep each blockade shift with the atom pair that
produced it, weighted by the probability that this pair is the one acting
(the first control found in |0> blocks everyone after it, which happens
with probability 2^-i for control i in excitation order).  The pairs at one
squared separation share a shift, so each sum runs over the distinct
separations of a layout with the summed weights of their pairs.

Every term is c Omega^p with p in {-1, 1, 2}.  ``budget_sequential_uniform``
and ``budget_sequential_lattice`` build those coefficients once (the
uniform closed forms are the lattice pair sums with one shift for every
pair), together with the pulse time (2k+3) pi / Omega, for one k or as one
batch over a list of k (elementwise closed forms) or of layouts (one set
of pair sums each); the returned ``LaurentBudget`` is evaluated at any
frequency with ``at`` or ``table``.

A phase-inversion variant with 2k pulses and no target (the conditional
phase used inside quantum-search circuits) shares the control bookkeeping;
``budget_grover_uniform`` builds its four terms and its 2k pi / Omega pulse
time.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import LaurentBudget, check_inputs, check_k, float_errors
from .lattice import LatticeGeometry, squared_separations
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


class DivergentBudgetError(ValueError):
    """A blockade shift equals omega10: the terms detuned by omega10 - B diverge."""


def worst_case_detuned_inv_sq(omega10: float, b: float) -> float:
    """max of 1/(omega10 - b)^2 and 1/(omega10 + b)^2; DivergentBudgetError at b = omega10.

    The sign of the combined detuning depends on level structure not
    resolved here, so every term takes the larger (pessimistic) value.
    For b >= 0 and omega10 > 0, which ``check_inputs`` ensures, |omega10 - b|
    <= omega10 + b, and rounding keeps that order, so it is 1/(omega10 - b)^2.
    """
    minus = omega10 - b
    if minus == 0.0:
        raise DivergentBudgetError("the terms detuned by omega10 - B diverge at B = omega10")
    return 1.0 / (minus * minus)


# the monomial basis of the single-frequency budgets: Omega^-1, Omega, Omega^2
_POWERS = ((0, -1), (0, 1), (0, 2))


@float_errors()
def _sequential_laurent(
    k,
    tau: float,
    omega10: float,
    sums,
    pair_shifts: tuple = (),
) -> LaurentBudget:
    """The C_kNOT budget from its five blockade sums over weighted pairs;
    ``k`` and each sum are a number, or an array with one per case.

    ``sums`` are (cc_slots_inv_sq, cc_inv_sq, cc_det, ct_inv_sq, ct_det):
    control j (1-based, excitation order) blocks a later control m with
    weight w = 2^-(j+1) over n_m = 4 + 2(k-m) pulse slots, and blocks the
    target as the first control in |0> with weight w = 2^-j.  The sums run
    over control pairs of n_m w / B^2, w / B^2 and w det, then over
    control-target pairs of w / B^2 and w det, where ``det`` is
    ``worst_case_detuned_inv_sq(omega10, B)`` of the pair's shift B.
    """
    cc_slots_inv_sq, cc_inv_sq, cc_det, ct_inv_sq, ct_det = sums
    half_k = np.ldexp(1.0, -k)
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


@float_errors()
def budget_sequential_uniform(k, b: float, tau: float, omega10: float) -> LaurentBudget:
    """Closed-form budget for ``k`` controls (or a batch over a sequence of
    k) with one blockade shift ``b`` (rad/s) for every pair; ``tau`` is the
    Rydberg lifetime, s, and ``omega10`` the qubit splitting, rad/s."""
    check_inputs(k, (b,), (tau,), omega10)
    k = np.asarray(k)
    half_k = np.ldexp(1.0, -k)  # 2^-k, exact
    inv_b2 = 1.0 / (b * b)
    det = worst_case_detuned_inv_sq(omega10, b)
    pairs = 0.5 * (k - 2.0 + 2.0 * half_k)  # sum over control pairs of w
    sums = (0.5 * (k * k - k) * inv_b2, pairs * inv_b2, pairs * det,
            (1.0 - half_k) * inv_b2, (1.0 - half_k) * det)
    return _sequential_laurent(k, tau, omega10, sums)


@float_errors()
def _layout_sums(model, geom: LatticeGeometry, tau: float, omega10: float):
    """The five blockade sums of ``_sequential_laurent`` for one layout,
    and its (control-target, control-control) pair shifts: each sum is the
    exact float sum, over the squared separations m, of the summed weight
    of m's pairs times 1/B^2 or det of m's shift."""
    k = geom.k
    ct, blocker, blocked, cc = squared_separations(geom)
    ct_m, cc_m = ct.tolist(), cc.tolist()
    shift = {m: pair_shift(model, geom.d * math.sqrt(m)) for m in dict.fromkeys(ct_m + cc_m)}
    check_inputs(k, shift.values(), (tau,), omega10)
    inv = np.array([1.0 / (b * b) for b in shift.values()])
    det = np.array([worst_case_detuned_inv_sq(omega10, b) for b in shift.values()])
    seps, top = list(shift), 1 + max(shift)
    w = np.ldexp(1.0, -(blocker + 2))  # 2^-(j+1), 1-based blocker j
    cc_slots, cc_w = (np.bincount(cc, weights, top)[seps] for weights
                      in ((4 + 2 * (k - blocked - 1)) * w, w))
    # 2^-i, 1-based first-in-|0> control i
    ct_w = np.bincount(ct, np.ldexp(1.0, -np.arange(1, k + 1)), top)[seps]
    weights = np.array((cc_slots, cc_w, cc_w, ct_w, ct_w))
    # an m without pairs of a kind adds 0 to their sums, even where 1/B^2 is inf
    terms = np.where(weights > 0.0, weights * (inv, inv, det, inv, det), 0.0)
    b_ct, b_cc = tuple(map(shift.__getitem__, ct_m)), tuple(map(shift.__getitem__, cc_m))
    return list(map(math.fsum, terms.tolist())), (b_ct, b_cc)


def budget_sequential_lattice(model, geom, tau: float, omega10: float) -> LaurentBudget:
    """Lattice-averaged budget of layout ``geom`` (or a batch over a
    sequence of layouts): per-pair shifts inside the state sums.

    Every blockade-dependent term is evaluated before collapsing, with the
    shift of the concrete pair involved: the first-in-|0> control j blocks
    control m through pair_shift(R_jm) and blocks the target through
    pair_shift(R_j,target).  Terms without blockade dependence keep their
    closed forms.  With a distance-independent model this reproduces
    ``budget_sequential_uniform`` to rounding.  Each layout calls
    ``pair_shift`` once per distinct squared separation; ``pair_shifts``
    holds the control-target shifts in excitation order and the
    control-control shifts in ``pair_sets`` order.
    """
    single = isinstance(geom, LatticeGeometry)
    geoms = [geom] if single else list(geom)
    for each in geoms:
        check_k(each.k)  # before the O(k^2) pair work
    sums, shifts = zip(*(_layout_sums(model, each, tau, omega10) for each in geoms))
    ks = np.array([each.k for each in geoms])
    budget = _sequential_laurent(ks, tau, omega10, np.array(sums).T, shifts)
    return budget[0] if single else budget


@float_errors()
def budget_grover_uniform(k, b: float, tau: float, omega10: float) -> LaurentBudget:
    """Budget for the 2k-pulse conditional-phase variant (no target atom),
    for ``k`` controls or a batch over a sequence of k.

    The first control found in |0> makes a full 2 pi excursion through
    |r> and imprints the conditional phase; later controls in |0> are
    blockaded.  Only control terms arise.  The total is the sum of the
    four terms; the further-collapsed single-expression variant (which
    drops the omega10-only rotation piece and the 2^-k remainders of the
    combined detuning weight) is reported under diagnostics.
    """
    check_inputs(k, (b,), (tau,), omega10)
    k = np.asarray(k)
    half_k = np.ldexp(1.0, -k)
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
