"""Error budgets for the all-controls-at-once C_kNOT pulse sequence.

Five pulses total: one collective pi pulse takes every |0> control to a
storage Rydberg level |s> at Rabi frequency omega_c, three pulses at
omega_t swap the target ground states through |r>, and a collective
return pulse (pi phase offset) brings the controls back.  Because the
controls are excited together, blockade physics is driven by the number
j of excited controls: control-control shifts add up to j*d_cc on each
excited control, and the target sees a total shift of j*b_ct.  State
averaging therefore produces binomial sums over j.

The control-control rotation term carries the binomial weight
(k / 2^(k+1)) sum_j C(k-1, j) j^2, which reduces to k^2 (k-1)/16 exactly;
the collapsed polynomial (k^3 - k)/16 overstates it, so that variant is
only reported under diagnostics.

Lattice averaging replaces the j identical shifts by sums over the
concrete excited subset.  The quadratic control term has an exact
closed-moment expectation; the target terms need E[1/X^2] over random
subsets.  1/X^2 is the integral of t*exp(-tX) over t > 0 and the subset
average of exp(-tX) is a product over the shifts, so one fixed exp-sinh
quadrature rule gives it in O(k) work per node, for every k.  None of
these sums depends on the drive frequencies.

Every term is c omega_c^p (p in {-1, -2, 2}) or c omega_t^p (p in
{-1, 2}), so the budget separates into an omega_c part and an omega_t
part.  ``budget_simultaneous_uniform`` and ``budget_simultaneous_lattice``
build those coefficients once, together with the pulse time
2 pi / omega_c + 3 pi / omega_t; the returned ``LaurentBudget`` is
evaluated at any frequency pair with ``at``.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import LaurentBudget, check_inputs, check_k
from .lattice import LatticeGeometry, pair_sets
from .model import pair_shift

# Exp-sinh (double-exponential) rule on (0, inf), after Takahasi & Mori
# (1974): nodes s = exp(pi/2 sinh u) for u in [-4.5, 4] at step 1/64, so
# s runs from 2e-31 to 4e18 in units of the slowest decay time.  The step
# sets the accuracy.  Shifts that cluster at two scales 1e5 apart put
# mass at both ends of that range: at k = 64, step 1/32 errs by up to
# 3e-10 relative there, step 1/64 by under 1e-14.
_DE_STEP = 1.0 / 64.0
_DE_U = _DE_STEP * np.arange(-288, 257)
_DE_NODES = np.exp(0.5 * math.pi * np.sinh(_DE_U))
_DE_WEIGHTS = _DE_STEP * 0.5 * math.pi * np.cosh(_DE_U) * _DE_NODES

SIMULTANEOUS_TERMS = ("se_c", "se_t", "r_c_1", "r_c_2", "r_t")

SIMULTANEOUS_DIAGNOSTICS = ("r_c_1_cubic_variant", "r_t_blockade_part", "r_t_splitting_part")


class BlockadeRegimeWarning(UserWarning):
    """Control-control shift is not small against the control Rabi frequency."""


def target_blockade_sums(k: int, b_ct: float, omega10: float) -> tuple[float, float]:
    """The two binomial sums of the blocked-target rotation term.

    Returns (sum over j of C(k,j)/2^k / (j b_ct)^2,
             sum over j of C(k,j)/2^k / (j b_ct + omega10)^2), j = 1..k.
    """
    scale = math.ldexp(1.0, -k)
    s_block = 0.0
    s_split = 0.0
    for j in range(1, k + 1):
        w = math.comb(k, j) * scale
        s_block += w / (j * b_ct) ** 2
        s_split += w / (j * b_ct + omega10) ** 2
    return s_block, s_split


# the monomial basis: omega_c^-1, omega_c^-2, omega_c^2, omega_t^-1, omega_t^2
_POWERS = ((0, -1), (0, -2), (0, 2), (1, -1), (1, 2))


def _simultaneous_laurent(
    k: int,
    tau_c: float,
    tau_t: float,
    omega10: float,
    sums: tuple[float, float, float],
    cubic_variant: tuple[float, ...] | None = None,
    pair_shifts: tuple[tuple[float, ...], ...] = (),
) -> LaurentBudget:
    """The collective-gate budget from its three frequency-free sums.

    ``sums`` are (cc_moment, e_block, e_split): the sum over controls i of
    E[(sum_m eps_m D_im)^2] with independent eps ~ Bernoulli(1/2), then
    E[1/X^2] and E[1/(X + omega10)^2] for X the summed control-target
    shift of the excited subset.  ``cubic_variant`` is the row of the
    uniform budget's collapsed r_c_1 polynomial, reported as a diagnostic.
    """
    cc_moment, e_block, e_split = sums
    half_k = math.ldexp(1.0, -k)
    se_c = math.pi * k / (2.0 * tau_c)
    rows = (
        (se_c, 0.0, 0.0, 3.0 * se_c, 0.0),  # se_c
        (0.0, 0.0, 0.0, math.pi / tau_t * half_k, 0.0),  # se_t
        (0.0, cc_moment / 4.0, 0.0, 0.0, 0.0),  # r_c_1
        (0.0, 0.0, k / (2.0 * omega10**2), 0.0, 0.0),  # r_c_2
        (0.0, 0.0, 0.0, 0.0, 0.75 * (e_block + e_split)),  # r_t
    )
    variants = (
        cubic_variant,
        (0.0, 0.0, 0.0, 0.0, 0.75 * e_block),  # r_t_blockade_part
        (0.0, 0.0, 0.0, 0.0, 0.75 * e_split),  # r_t_splitting_part
    )
    diagnostics = {name: row for name, row in zip(SIMULTANEOUS_DIAGNOSTICS, variants)
                   if row is not None}
    return LaurentBudget(_POWERS, dict(zip(SIMULTANEOUS_TERMS, rows)), diagnostics,
                         pair_shifts, pulse_time=(2.0 * math.pi, 3.0 * math.pi))


def budget_simultaneous_uniform(
    k: int, b_ct: float, d_cc: float, tau_c: float, tau_t: float, omega10: float
) -> LaurentBudget:
    """Closed-form budget with uniform per-pair shifts ``b_ct`` and
    ``d_cc`` (rad/s); ``tau_c`` is the storage-level lifetime of the
    controls, ``tau_t`` the target Rydberg lifetime (s)."""
    check_inputs(k, (b_ct, d_cc), (tau_c, tau_t), omega10)
    cc_moment = 4.0 * d_cc**2 * (k * k * (k - 1) / 16)
    cubic = (0.0, d_cc**2 * (k**3 - k) / 16.0, 0.0, 0.0, 0.0)
    sums = (cc_moment, *target_blockade_sums(k, b_ct, omega10))
    return _simultaneous_laurent(k, tau_c, tau_t, omega10, sums, cubic)


def subset_inverse_square_expectations(
    shifts: tuple[float, ...], omega10: float
) -> tuple[float, float]:
    """(E[1/X^2], E[1/(X+omega10)^2]) for X the summed shift of a
    nonempty uniform-random subset of ``shifts``.

    Uses 1/Y^2 = int_0^inf t exp(-tY) dt for Y = X + offset, offset 0 or
    omega10.  The subset average of exp(-tX) is prod (1 + exp(-t b_i))/2;
    removing the empty subset leaves 2^-k expm1(sum log1p(exp(-t b_i))),
    which is evaluated without cancellation.  Time is measured in units of
    1/(offset + min b), the slowest surviving decay, and the integral over
    t is one fixed exp-sinh rule, so both offsets cost one (2, nodes, k)
    array.
    """
    b = np.asarray(shifts, dtype=float)
    offsets = np.array([0.0, omega10])
    scale = offsets + b.min()
    t = _DE_NODES / scale[:, None]
    subsets = np.expm1(np.log1p(np.exp(-t[:, :, None] * b)).sum(axis=2))
    integrand = t * subsets * np.exp(-t * offsets[:, None])
    e_block, e_split = math.ldexp(1.0, -len(b)) * (integrand @ _DE_WEIGHTS) / scale
    return float(e_block), float(e_split)


def budget_simultaneous_lattice(
    model_ct, model_cc, geom: LatticeGeometry, tau_c: float, tau_t: float, omega10: float
) -> LaurentBudget:
    """Lattice-averaged budget with per-pair control-target and
    control-control interaction models.

    The control-control rotation term uses the exact second moment of the
    summed shift each control sees from the random excited subset of the
    others: with the row sums s1 of the control-control shift matrix D and
    s2 of D^2, cc_moment = sum 1/2 s2 + 1/4 (s1^2 - s2).  The
    blocked-target term averages 1/X^2 over the excited subset exactly
    (see ``subset_inverse_square_expectations``).  Constant models
    reproduce ``budget_simultaneous_uniform``.  The budget is built from
    one ``pair_shift`` per pair; ``pair_shifts`` holds the control-target
    shifts in excitation order and the control-control shifts in
    ``pair_sets`` order.
    """
    k = geom.k
    check_k(k)  # before the O(k^2) pair work
    ps = pair_sets(geom)
    b_ct = tuple(pair_shift(model_ct, r) for r in ps.control_target)
    d_cc = tuple(pair_shift(model_cc, sep) for sep in ps.control_control_all)
    check_inputs(k, b_ct + d_cc, (tau_c, tau_t), omega10)
    d = np.zeros((k, k))
    for (i, j, _), shift in zip(ps.control_control_ordered, d_cc):
        d[i, j] = d[j, i] = shift
    s1 = d.sum(axis=1)
    s2 = (d * d).sum(axis=1)
    cc_moment = float(np.sum(0.5 * s2 + 0.25 * (s1 * s1 - s2)))
    sums = (cc_moment, *subset_inverse_square_expectations(b_ct, omega10))
    return _simultaneous_laurent(k, tau_c, tau_t, omega10, sums, pair_shifts=(b_ct, d_cc))
