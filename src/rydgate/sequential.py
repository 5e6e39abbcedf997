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
maximizes it.

Lattice-averaged budgets keep each blockade shift with the atom pair that
produced it, weighted by the probability that this pair is the one acting
(the first control found in |0> blocks everyone after it, which happens
with probability 2^-i for control i in excitation order).  Each such term
is an Omega-free pair sum times a power of Omega, so
``sequential_lattice_sums`` builds the sums once per geometry and
``SequentialLatticeSums.budget`` evaluates them per frequency in O(1).

A phase-inversion variant with 2k pulses and no target (the conditional
phase used inside quantum-search circuits) shares the control bookkeeping;
its four terms are evaluated by ``budget_grover_uniform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SequentialLatticeSums:
    """Omega-free pair sums of the lattice-averaged sequential budget.

    Control j (1-based, excitation order) blocks a later control m with
    weight w = 2^-(j+1) over n_m = 4 + 2(k-m) pulse slots, and blocks the
    target as the first control in |0> with weight w = 2^-j; ``det`` is
    ``worst_case_detuned_inv_sq(omega10, B)`` of the pair's shift B.
    """

    tau: float
    omega10: float
    b_ct: tuple[float, ...]  # control-target shifts, excitation order
    b_cc: tuple[float, ...]  # control-control shifts, in pair_sets order
    cc_slots_inv_sq: float  # sum over control pairs of n_m w / B^2
    cc_inv_sq: float  # sum over control pairs of w / B^2
    cc_det: float  # sum over control pairs of w det
    ct_inv_sq: float  # sum over control-target pairs of w / B^2
    ct_det: float  # sum over control-target pairs of w det

    def budget(self, om: float) -> ErrorBudget:
        """The budget at drive frequency ``om`` (rad/s), O(1) in k."""
        k, w10, tau = len(self.b_ct), self.omega10, self.tau
        half_k = math.ldexp(1.0, -k)
        om2 = om * om
        terms = {
            "se_c_1": 2.0 * math.pi * k / (om * tau),
            "se_c_2": math.pi * om / (2.0 * tau) * self.cc_slots_inv_sq,
            "se_t_1": math.pi / (om * tau) * half_k,
            "se_t_2": 5.0 * math.pi * om / (8.0 * tau) * self.ct_inv_sq,
            "r_c_1": om2 * self.cc_inv_sq,
            "r_c_2": om2 / (w10 * w10) * (1.0 - half_k) + om2 * self.cc_det,
            "r_t_1": 0.75 * om2 * self.ct_inv_sq,
            "r_t_2": half_k * om2 / (2.0 * w10 * w10) + 1.5 * om2 * self.ct_det,
        }
        return ErrorBudget.from_terms("sequential", "lattice", terms)


def sequential_lattice_sums(
    model, geom: LatticeGeometry, tau: float, omega10: float
) -> SequentialLatticeSums:
    """The pair sums of one geometry, from one ``pair_shift`` per pair."""
    ps = pair_sets(geom)
    b_ct = tuple(pair_shift(model, r) for r in ps.control_target)
    b_cc = tuple(pair_shift(model, sep) for sep in ps.control_control_all)
    if not all(shift > 0.0 for shift in b_ct + b_cc):
        raise ValueError("pair shift must be positive for every pair")
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
    return SequentialLatticeSums(
        tau, omega10, b_ct, b_cc, cc_slots, cc_inv, cc_det, ct_inv, ct_det
    )


def budget_sequential_lattice(
    p: GateParams, model, geom: LatticeGeometry, tau: float
) -> ErrorBudget:
    """Lattice-averaged budget: per-pair shifts inside the state sums.

    Every blockade-dependent term is evaluated before collapsing, with the
    shift of the concrete pair involved: the first-in-|0> control j blocks
    control m through pair_shift(R_jm) and blocks the target through
    pair_shift(R_j,target).  Terms without blockade dependence keep their
    closed forms.  With a distance-independent model this reproduces
    ``budget_sequential_uniform`` exactly.  Builds the sums once and
    evaluates them; see ``sequential_lattice_sums``.
    """
    _check_inputs(p, None, tau)
    if geom.k != p.k:
        raise ValueError("geometry and GateParams disagree on k")
    return sequential_lattice_sums(model, geom, tau, p.omega10).budget(p.omega)


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
