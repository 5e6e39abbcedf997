"""Independent oracles for the budget closed forms and lattice sums.

``sum_oracle_sequential`` and ``sum_oracle_grover`` evaluate the uniform
budgets from their per-state sums with exact rational weights.
``sequential_lattice_loops`` and ``simultaneous_lattice_loops`` evaluate
the lattice budgets the direct way: every call rebuilds the pair sets with
``pair_sets_loop``, one ``math.hypot`` per pair of sites, and calls
``pair_shift`` for each pair inside the per-pair weighted loops, with the
drive frequency inside every summand.  All four return the report cells
``LaurentBudget.at`` returns.  ``cc_rotation_weight`` is the exact
rational binomial weight of the collective gate's control-control rotation
term.  ``target_blockade_sums`` is the binomial sum over the number j of
excited controls of its target terms at one repeated shift.
``subset_inv_sq_enumerated`` and ``subset_inv_sq_quad`` are two
independent routes to the subset expectation E[1/(X + offset)^2]: all 2^k
subsets, and adaptive quadrature of its Laplace-transform integral.
``golden_section_minimize`` minimizes any objective numerically (a
64-point logarithmic grid refined by golden-section search, coordinate
descent over two frequencies): the oracle of the closed-form argmin.
``basis_diagonal`` forms the simulator's diagonal one basis row at a time
in plain Python.  ``dense_hamiltonian`` assembles one pulse's whole 3^n
Hamiltonian, the oracle of the simulator's block propagator, and
``gate_error_sim_full_basis`` runs every computational input through a
sequence on the full 3^n basis, block by block, the oracle of the
reachable-basis truth table.  ``pattern_blocks`` builds a pulse on several
atoms over the reachable basis, by Pade on the blocks of its excitation
patterns: in place of the simulator's single-atom builder, it gives the
reachable-basis table of a collective pulse, the reference of the class
basis.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from rydgate import pair_shift
from rydgate.budget import check_inputs
from rydgate.lattice import PairSets
from rydgate.optimize import DEFAULT_BRACKET
from rydgate.sequential import worst_case_detuned_inv_sq
from rydgate.simulator import (
    _TRANSITIONS,
    SimResult,
    _computational_indices,
    _expm,
    _normalize_decay,
    _normalize_interactions,
    _pulse_blocks,
    ideal_map,
)
from rydgate.simultaneous import subset_inverse_square_expectations


def _cells(terms: dict[str, float], diagnostics: dict[str, float] | None = None) -> dict[str, float]:
    """The report cells of a budget, as ``LaurentBudget.at`` returns them:
    each term, their exact float sum ``total``, each diagnostic as
    ``diag_<name>``."""
    out = dict(terms, total=math.fsum(terms.values()))
    out.update((f"diag_{name}", value) for name, value in (diagnostics or {}).items())
    return out


def cc_rotation_weight(k: int) -> Fraction:
    """Exact binomial expectation behind the control-control rotation term.

    (k / 2^(k+1)) * sum_j C(k-1, j) j^2, which collapses to k^2 (k-1)/16.
    """
    total = sum(math.comb(k - 1, j) * j * j for j in range(1, k))
    return Fraction(k * total, 2 ** (k + 1))


def target_blockade_sums(k: int, b_ct: float, omega10: float) -> tuple[float, float]:
    """The two binomial sums of the collective gate's blocked-target
    rotation term at one shift ``b_ct`` for every control-target pair.

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


def pair_sets_loop(geom) -> PairSets:
    """The pair sets of ``geom``, one ``math.hypot`` per pair of sites."""
    ct = tuple(geom.d * math.hypot(x, y) for (x, y) in geom.control_sites)
    ordered = []
    for i in range(geom.k):
        xi, yi = geom.control_sites[i]
        for j in range(i + 1, geom.k):
            xj, yj = geom.control_sites[j]
            ordered.append((i, j, geom.d * math.hypot(xi - xj, yi - yj)))
    return PairSets(control_target=ct, control_control_ordered=tuple(ordered))


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


def sum_oracle_sequential(k: int, b: float, tau: float, w10: float, om: float) -> dict:
    """Budget at drive frequency ``om`` evaluated from the per-state sums
    before any collapse.

    Combinatorial weights are exact rationals; only the final product with
    the physical prefactor is floating point.  Serves as the independent
    oracle for ``budget_sequential_uniform``.
    """
    check_inputs(k, (b,), (tau,), w10)
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
    return _cells(terms)


def sum_oracle_grover(k: int, b: float, tau: float, w10: float, om: float) -> dict:
    """Per-state-sum oracle for ``budget_grover_uniform``.

    Re-derived from the same bookkeeping as the C_kNOT sums: the first
    |0> control waits n_wait = 2(k-i) pulses between its two resonant
    pulses; blocked pair weights are identical because dropping the target
    halves both the state count and the pair-state count.
    """
    check_inputs(k, (b,), (tau,), w10)
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
    return _cells(terms)


def sequential_lattice_loops(model, geom, tau, w10, om) -> dict:
    """Lattice-averaged sequential budget at drive frequency ``om``, summed
    pair by pair per call."""
    k = geom.k
    half_k = math.ldexp(1.0, -k)
    ps = pair_sets_loop(geom)
    b_ct = [pair_shift(model, r) for r in ps.control_target]
    b_cc: dict[tuple[int, int], float] = {
        (i, j): pair_shift(model, sep) for (i, j, sep) in ps.control_control_ordered
    }
    check_inputs(k, [*b_cc.values(), *b_ct], (tau,), w10)

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
    return _cells(terms)


def simultaneous_lattice_loops(
    model_ct, model_cc, geom, tau_c, tau_t, w10, omega_c, omega_t
) -> dict:
    """Lattice-averaged simultaneous budget at (``omega_c``, ``omega_t``),
    summed pair by pair per call."""
    k = geom.k
    half_k = math.ldexp(1.0, -k)
    ps = pair_sets_loop(geom)
    b_ct = tuple(pair_shift(model_ct, r) for r in ps.control_target)
    d = np.zeros((k, k))
    for (i, j, sep) in ps.control_control_ordered:
        d[i, j] = d[j, i] = pair_shift(model_cc, sep)

    se_c = math.pi * k / (2.0 * omega_c * tau_c) + 3.0 * math.pi * k / (
        2.0 * omega_t * tau_c
    )
    se_t = math.pi / (omega_t * tau_t) * half_k

    # E[(sum_m eps_m D_im)^2] with independent eps ~ Bernoulli(1/2):
    # 1/2 sum D^2 + 1/4 sum_{m != m'} D D'
    r_c_1 = 0.0
    for i in range(k):
        row = np.delete(d[i], i)
        s1 = float(np.sum(row))
        s2 = float(np.sum(row * row))
        r_c_1 += (0.5 * s2 + 0.25 * (s1 * s1 - s2)) / (4.0 * omega_c**2)

    r_c_2 = omega_c**2 * k / (2.0 * w10**2)

    e_block, e_split = subset_inverse_square_expectations(b_ct, w10)
    r_t = 0.75 * omega_t**2 * (e_block + e_split)

    terms = {
        "se_c": se_c,
        "se_t": se_t,
        "r_c_1": r_c_1,
        "r_c_2": r_c_2,
        "r_t": r_t,
    }
    diagnostics = {
        "r_t_blockade_part": 0.75 * omega_t**2 * e_block,
        "r_t_splitting_part": 0.75 * omega_t**2 * e_split,
    }
    return _cells(terms, diagnostics)


def subset_inv_sq_enumerated(shifts: tuple[float, ...], offset: float) -> float:
    """E[1/(X + offset)^2] over nonempty uniform-random subsets, exact."""
    sums = np.zeros(1)
    for b in shifts:
        sums = np.concatenate([sums, sums + b])
    x = sums[1:] + offset  # drop the empty subset
    return float(np.sum(1.0 / (x * x))) * math.ldexp(1.0, -len(shifts))


def subset_inv_sq_quad(shifts: tuple[float, ...], offset: float) -> float:
    """Same expectation via 1/X^2 = int_0^inf t exp(-t X) dt, integrated
    adaptively by ``scipy.integrate.quad``.

    The subset average of exp(-tX) is prod (1 + exp(-t b_i))/2; removing
    the empty subset leaves 2^-k expm1(sum log1p(exp(-t b_i))), which is
    evaluated without cancellation.  Every subset sum X puts mass near
    t = 1/X, so the range is cut at half-decades from the largest sum
    down; over one unbroken (0, inf) ``quad`` misses the narrow peak of
    widely spread shifts and can be off by orders of magnitude.
    """
    k = len(shifts)
    b = np.asarray(shifts)
    scale = offset + min(shifts)  # slowest surviving decay rate

    def integrand(s: float) -> float:
        t = s / scale
        log_prod = np.sum(np.log1p(np.exp(-t * b)))
        return t * math.expm1(log_prod) * math.ldexp(1.0, -k) * math.exp(-t * offset)

    edges = np.geomspace(1.0e-3 * scale / (offset + b.sum()), 1.0e2, 24)
    pieces = [
        quad(integrand, lo, hi, epsabs=0.0, epsrel=1.0e-13, limit=200)[0]
        for lo, hi in zip([0.0, *edges], [*edges, np.inf])
    ]
    return math.fsum(pieces) / scale


_GRID_POINTS = 64
_LOG_TOL = 1.0e-4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ROUNDS_2D = 50
_ROUND_TOL_2D = 1.0e-3


@dataclass(frozen=True)
class OracleMinimum:
    """``argmin`` (one frequency per axis), the objective there, the
    objective evaluations spent, and False for a minimum at a grid edge or
    an unconverged descent."""

    argmin: tuple[float, ...]
    min_error: float
    evaluations: int
    converged: bool


class _CountedObjective:
    def __init__(self, fn):
        self.fn = fn
        self.evaluations = 0

    def __call__(self, *args: float) -> float:
        self.evaluations += 1
        value = self.fn(*args)
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at {args!r}")
        return float(value)


def _golden_section_log(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimization of f(exp(u)) on [log lo, log hi]."""
    a, b = math.log(lo), math.log(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(math.exp(x1)), f(math.exp(x2))
    while b - a > _LOG_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(math.exp(x2))
    if f1 <= f2:
        return math.exp(x1), f1
    return math.exp(x2), f2


def _minimize_1d(f, lo: float, hi: float) -> tuple[float, float, bool]:
    grid = np.logspace(math.log10(lo), math.log10(hi), _GRID_POINTS)
    values = [f(x) for x in grid]
    best = min(range(_GRID_POINTS), key=values.__getitem__)
    interior = 0 < best < _GRID_POINTS - 1
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _GRID_POINTS - 1)]
    x_ref, f_ref = _golden_section_log(f, a, b)
    # never report a point worse than the scanned grid
    if values[best] < f_ref:
        x_ref, f_ref = float(grid[best]), values[best]
    return x_ref, f_ref, interior


def golden_section_minimize(fn, dims: int = 1, bracket=DEFAULT_BRACKET) -> OracleMinimum:
    """Numeric minimum of ``fn`` over ``dims`` frequencies in ``bracket``.

    A minimum found at a grid edge is returned with ``converged=False``.
    """
    lo, hi = bracket
    counted = _CountedObjective(fn)
    if dims == 1:
        x, fx, interior = _minimize_1d(counted, lo, hi)
        return OracleMinimum((x,), fx, counted.evaluations, interior)

    point = [math.sqrt(lo * hi)] * dims
    value = counted(*point)
    interior_flags = [True] * dims
    converged = False
    for _ in range(_MAX_ROUNDS_2D):
        moved = 0.0
        for axis in range(dims):

            def along(x: float, axis: int = axis) -> float:
                trial = list(point)
                trial[axis] = x
                return counted(*trial)

            x, value, interior_flags[axis] = _minimize_1d(along, lo, hi)
            moved = max(moved, abs(x - point[axis]) / point[axis])
            point[axis] = x
        if moved < _ROUND_TOL_2D:
            converged = True
            break
    return OracleMinimum(
        tuple(point), value, counted.evaluations, converged and all(interior_flags)
    )


def basis_diagonal(keys, natoms, interactions, decay_rates):
    """Per (input, base-3 index) key, atom 0 the most significant base-3
    digit: the sum of the pair shifts of its doubly excited pairs minus i/2
    the decay rates of its excited atoms, and whether one of those pairs
    has an infinite shift, which sets the diagonal to 0."""
    diag, forbidden = [], []
    for key in keys:
        up = [a for a in range(natoms) if int(key) // 3 ** (natoms - 1 - a) % 3 == 2]
        shifts = [float(interactions[a][b]) for i, a in enumerate(up) for b in up[i + 1:]]
        blocked = any(math.isinf(shift) for shift in shifts)
        decay = math.fsum(float(decay_rates[a]) for a in up)
        diag.append(0j if blocked else complex(math.fsum(shifts), -0.5 * decay))
        forbidden.append(blocked)
    return diag, forbidden


def dense_hamiltonian(natoms, step, interactions, decay_rates):
    """The whole 3^n pulse Hamiltonian: pair shifts and decay on the
    diagonal, half-Rabi couplings per driven atom, and every state holding
    a doubly excited infinite-shift pair decoupled."""
    dim = 3**natoms
    digits = (np.arange(dim)[:, None] // 3 ** np.arange(natoms - 1, -1, -1)) % 3
    excited = (digits == 2).astype(float)
    finite = np.where(np.isinf(interactions), 0.0, interactions)
    diag = 0.5 * np.einsum("sa,ab,sb->s", excited, finite, excited)
    diag = diag - 0.5j * excited @ decay_rates
    forbidden = np.zeros(dim, dtype=bool)
    for a, b in np.argwhere(np.isinf(np.triu(interactions, k=1))):
        forbidden |= (digits[:, a] == 2) & (digits[:, b] == 2)
    h = np.diag(np.where(forbidden, 0.0, diag))
    ground = {"g0-r": 0, "g1-r": 1, "g0-s": 0}[step.transition]
    half = 0.5 * step.rabi * np.exp(1j * step.phase)
    for a in step.atoms:
        s_g = np.flatnonzero(digits[:, a] == ground)
        s_e = s_g + (2 - ground) * 3 ** (natoms - 1 - a)
        keep = ~(forbidden[s_g] | forbidden[s_e])
        h[s_e[keep], s_g[keep]] = half
        h[s_g[keep], s_e[keep]] = np.conj(half)
    return h


def pattern_blocks(step, basis):
    """One pulse's phase-0 blocks over a ``_basis`` tuple, in the groups of
    ``_apply_pulse``; a single-atom pulse is the simulator's own.

    A pulse keeps every undriven digit and the active set A of driven atoms
    in its ground level or 2 (not the other ground level), so the rows
    split into blocks of the 2^|A| excitation patterns of A, whose rows are
    found by key.  A block carries pair shifts and decay on its diagonal
    and half-Rabi couplings off it.  States holding a doubly excited
    infinite-shift pair get a zero diagonal and no couplings, so perfect
    blockade leaves them untouched.  Blocks sharing A are exponentiated in
    one Pade batch, and those that also excite the same atoms share one
    exponential."""
    if len(step.atoms) == 1:
        return _pulse_blocks(step, basis)
    keys, digits, diag, forbidden = basis
    natoms = digits.shape[1]
    excited = (digits == 2) @ (1 << np.arange(natoms))
    ground = _TRANSITIONS[step.transition]
    driven = digits[:, list(step.atoms)]
    lift = (2 - ground) * 3 ** (natoms - 1 - np.array(step.atoms))
    time = step.effective_duration
    bases = np.flatnonzero(np.all(driven != 2, axis=1))  # blocks' unexcited rows
    active = (driven[bases] == ground) @ (1 << np.arange(len(step.atoms)))
    blocks = []
    masks, group = np.unique(active, return_inverse=True)
    for m, mask in enumerate(masks):
        on = (mask >> np.arange(len(step.atoms))) & 1 == 1
        members = bases[group == m]
        if not mask:  # 1 x 1 blocks: each row only picks up its diagonal
            blocks.append((members, None, np.exp(-1j * time * diag[members]), None))
            continue
        bits = (np.arange(2 ** on.sum())[:, None] >> np.arange(on.sum())) & 1
        index = np.searchsorted(keys, keys[members, None] + bits @ lift[on])
        _, first, which = np.unique(excited[members], return_index=True, return_inverse=True)
        allowed = ~forbidden[index[first]]
        # patterns one excitation apart are coupled
        coupled = np.sum(bits[:, None] != bits, axis=2) == 1
        h = (0.5 * step.rabi + 0j) * (coupled & allowed[:, :, None] & allowed[:, None, :])
        np.einsum("bii->bi", h)[:] = diag[index[first]]
        blocks.append((index, which, _expm(-1j * time * h), bits.sum(axis=1)))
    return blocks


def _full_basis_pulse(columns, step, interactions, decay_rates):
    """One pulse on a 3^n x m matrix of states: the basis splits into the
    blocks of excitation patterns of the driven atoms sitting in the driven
    ground level, and blocks with equal diagonals and masks share one
    exponential."""
    natoms = len(interactions)
    digits = (np.arange(3**natoms)[:, None] // 3 ** np.arange(natoms - 1, -1, -1)) % 3
    excited = (digits == 2).astype(float)
    blocked = np.isinf(interactions)
    forbidden = np.einsum("sa,ab,sb->s", excited, blocked, excited) > 0
    finite = np.where(blocked, 0.0, interactions)
    diag = 0.5 * np.einsum("sa,ab,sb->s", excited, finite, excited)
    diag = np.where(forbidden, 0.0, diag - 0.5j * excited @ decay_rates)

    ground = _TRANSITIONS[step.transition]
    driven = digits[:, list(step.atoms)]
    lift = (2 - ground) * 3 ** (natoms - 1 - np.array(step.atoms))
    bases = np.flatnonzero(np.all(driven != 2, axis=1))
    active = driven[bases] == ground
    half = 0.5 * step.rabi * np.exp(1j * step.phase)
    out = np.empty_like(columns)
    for active_set in np.unique(active, axis=0):
        patterns = np.arange(2 ** active_set.sum())
        bits = (patterns[:, None] >> np.arange(active_set.sum())) & 1
        index = bases[np.all(active == active_set, axis=1), None] + bits @ lift[active_set]
        flips = np.sum(bits[:, None] != bits, axis=2)
        raising = (flips == 1) & (patterns[:, None] > patterns)
        key = np.column_stack([diag[index], forbidden[index]])
        _, first, which = np.unique(key, axis=0, return_index=True, return_inverse=True)
        allowed = ~forbidden[index[first]]
        h = (half * raising + np.conj(half) * raising.T) * (
            allowed[:, :, None] & allowed[:, None, :]
        )
        np.einsum("bii->bi", h)[:] = diag[index[first]]
        u = _expm(-1j * step.effective_duration * h)
        out[index] = u[which.reshape(-1)] @ columns[index]
    return out


def gate_error_sim_full_basis(sequence, k, interactions, decay_rates=None, ideal="cnot"):
    """``gate_error_sim`` on all 3^(k+1) x 2^(k+1) amplitudes: one column
    per computational input, each pulse applied to every basis state."""
    natoms = k + 1
    v = _normalize_interactions(natoms, interactions)
    g = _normalize_decay(natoms, decay_rates)
    ideal_out, phases = ideal_map(k, ideal)
    comp = _computational_indices(natoms)
    inputs = np.arange(comp.size)
    columns = np.zeros((3**natoms, comp.size), dtype=np.complex128)
    columns[comp, inputs] = 1.0
    for step in sequence:
        columns = _full_basis_pulse(columns, step, v, g)
    outputs = columns[comp]
    truth_table = (np.abs(outputs) ** 2).T
    m_overlap = phases[:, None] * outputs[ideal_out]
    d = float(comp.size)
    f_avg = (
        float(np.sum(np.abs(m_overlap) ** 2)) + abs(np.trace(m_overlap)) ** 2
    ) / (d * (d + 1.0))
    return SimResult(
        avg_error=1.0 - f_avg,
        errors_by_input=1.0 - truth_table[inputs, ideal_out],
        truth_table=truth_table,
        ideal_outputs=ideal_out,
    )
