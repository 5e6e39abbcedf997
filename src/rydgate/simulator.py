"""State-vector simulator for blockade-gate pulse sequences.

Each atom is a three-level system: the two qubit states ``g0`` and ``g1``
plus one excited level (digit 2).  A pulse drives one ground level of one
or more atoms to the excited level with fixed Rabi frequency and phase;
pairwise shifts act on the diagonal whenever both atoms of a pair are
excited.  Spontaneous emission enters as a non-Hermitian decay of the
excited levels, so the state norm shrinks and lost population counts as
error.  An infinite pairwise shift selects perfect-blockade mode: basis
states containing that doubly excited pair are decoupled entirely.

The qubit splitting between ``g0`` and ``g1`` is not modelled; a pulse
couples only the ground level named in its transition.  The simulator
therefore reproduces blockade-leakage and decay physics, not the detuned
coupling of the spectator qubit state.  A truth table builds each distinct
pulse once, whatever its phase, and runs in one of two bases.  A gate
symmetric under permutations of its controls, such as the simultaneous
gate's, runs in the class basis: the controls in the driven ground level
stay in their symmetric (Dicke) subspace, so a pulse on all controls is
one chain per control count, exponentiated by Pade, over 6 (k + 1)**2 rows
(486 at ``k = 8``); ``class_amplitudes`` gives its amplitudes up to ``k =
64``.  Any other gate runs in the reachable basis, where each atom keeps
the closure of its input level under the sequence's pulses: 6 * 3**k rows
for the sequential gate (39 366 at ``k = 8``, against 10.1 M amplitudes
over the full basis).  There every pulse drives one atom and is a set of
two-level problems, solved in closed form; a pulse on several atoms is
refused.  The README gives the measured time and memory of a truth table
at k = 6..8.
``evolve`` steps one state over the full ``3**(k+1)`` basis, up to
``k = 10``, by single-atom pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .budget import check_k

_TRANSITIONS = {"g0-r": 0, "g1-r": 1, "g0-s": 0}
_MAX_ATOMS_STATE = 11
_MAX_K_TABLE = 8

# Degree-13 Pade coefficients and the 1-norm up to which they reach double
# precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class PulseStep:
    """One square pulse: a transition, the driven atoms, amplitude, phase."""

    transition: str
    rabi: float
    atoms: tuple[int, ...]
    phase: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.transition not in _TRANSITIONS:
            raise ValueError(f"unknown transition {self.transition!r}")
        if not (self.rabi > 0.0):
            raise ValueError("rabi must be positive")
        if not self.atoms:
            raise ValueError("a pulse must drive at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom in pulse")
        if any(a < 0 for a in self.atoms):
            raise ValueError("atom indices must be >= 0")
        if self.duration is not None and not (self.duration > 0.0):
            raise ValueError("duration must be positive")

    @property
    def effective_duration(self) -> float:
        """Pulse length; defaults to the pi-pulse time."""
        if self.duration is not None:
            return self.duration
        return math.pi / self.rabi


@dataclass
class SimState:
    """Amplitudes over the full 3^natoms basis plus accumulated norm loss."""

    amplitudes: np.ndarray
    norm_deficit: float = 0.0


@dataclass(frozen=True)
class SimResult:
    """``avg_error`` is the Haar-average gate error 1 - F_avg computed from
    the computational-subspace overlap matrix M between simulated and ideal
    outputs, F_avg = (tr(M M^dag) + |tr M|^2) / (d (d + 1)); the form stays
    exact when decay or leakage subnormalizes M.  ``errors_by_input`` holds
    the per-input population missing from the ideal output state, which
    ignores phases."""

    avg_error: float
    errors_by_input: np.ndarray
    truth_table: np.ndarray
    ideal_outputs: np.ndarray


def _computational_indices(natoms: int) -> np.ndarray:
    """Basis index of every computational input: the input's bits, atom 0
    the most significant, read as base-3 digits."""
    places = np.arange(natoms - 1, -1, -1)
    return ((np.arange(2**natoms)[:, None] >> places) & 1) @ 3**places


def computational_state(k: int, index: int) -> SimState:
    """Basis state for input ``index``; bit 0 is the target, high bits the
    controls in excitation order."""
    natoms = k + 1
    if natoms > _MAX_ATOMS_STATE:
        raise ValueError(f"k too large for state-vector simulation (max k = "
                         f"{_MAX_ATOMS_STATE - 1})")
    if not 0 <= index < 2**natoms:
        raise ValueError("index out of range")
    amps = np.zeros(3**natoms, dtype=np.complex128)
    amps[_computational_indices(natoms)[index]] = 1.0
    return SimState(amplitudes=amps)


# each ideal gate's control bits at k controls that ideal_map marks -1; the identity marks none
IDEAL_GATES = {"cnot": lambda k: 2**k - 1, "grover": lambda k: 2**k - 2, "identity": lambda k: -1}


def ideal_map(k: int, gate: str = "cnot") -> tuple[np.ndarray, np.ndarray]:
    """Computational output index and output phase of the ideal gate for
    every basis input, in input order.

    The pi-phase bookkeeping of the pulse sequences leaves -1 on the
    target-flipped branch of the multi-control NOT, and -1 on the single
    control configuration (1, ..., 1, 0) of the no-target phase gate."""
    if gate not in IDEAL_GATES:
        raise ValueError(f"unknown ideal gate {gate!r}")
    inputs = np.arange(2 ** (k + 1))
    marked = (inputs >> 1) == IDEAL_GATES[gate](k)
    indices = np.where(marked & (gate == "cnot"), inputs ^ 1, inputs)
    return indices, np.where(marked, -1.0, 1.0)


def _normalize_interactions(natoms: int, interactions: np.ndarray) -> np.ndarray:
    v = np.asarray(interactions, dtype=float)
    if v.shape != (natoms, natoms):
        raise ValueError(f"interactions must be ({natoms}, {natoms})")
    if not np.array_equal(v, v.T):
        raise ValueError("interactions must be symmetric")
    if np.any(np.diag(v) != 0.0):
        raise ValueError("interaction diagonal must be zero")
    return v


def _normalize_decay(natoms: int, decay_rates) -> np.ndarray:
    if decay_rates is None:
        return np.zeros(natoms)
    g = np.asarray(decay_rates, dtype=float)
    if g.ndim == 0:
        g = np.full(natoms, float(g))
    if g.shape != (natoms,):
        raise ValueError(f"decay_rates must be scalar or length {natoms}")
    if np.any(g < 0.0):
        raise ValueError("decay rates must be >= 0")
    return g


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in a (batch, n, n) stack by Pade-13 scaling and
    squaring, with one scaling exponent for the whole stack, set by its
    largest 1-norm."""
    norm = np.abs(a).sum(axis=1).max()
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _basis(keys: np.ndarray, natoms: int, interactions: np.ndarray,
           decay_rates: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows a propagation runs over, given by sorted (input, base-3
    index) keys, and what no pulse changes: each row's digits, its
    diagonal of pair shifts and decay, and whether it holds a doubly
    excited infinite-shift pair.  Atom 0 is the most significant base-3
    digit of the index."""
    digits = keys[:, None] // 3 ** np.arange(natoms - 1, -1, -1) % 3
    excited = (digits == 2) @ (1 << np.arange(natoms))
    # the diagonal depends only on which atoms a row excites: each of the
    # 2^n excitation patterns is evaluated once
    patterns = (np.arange(2**natoms)[:, None] >> np.arange(natoms) & 1).astype(float)
    blocked = np.isinf(interactions)
    forbidden = np.einsum("sa,ab,sb->s", patterns, blocked, patterns) > 0
    finite = np.where(blocked, 0.0, interactions)
    diag = 0.5 * np.einsum("sa,ab,sb->s", patterns, finite, patterns)
    diag = np.where(forbidden, 0.0, diag - 0.5j * (patterns @ decay_rates))
    return keys, digits, diag[excited], forbidden[excited]


def _reach_keys(sequence: Sequence[PulseStep], natoms: int) -> np.ndarray:
    """Sorted (input, base-3 index) keys of the states each computational
    input can reach.  An atom's reachable levels are the closure of its
    input level under the sequence's pulses, where a pulse driving ground
    level g on the atom joins g and 2, so every pulse maps the product of
    these per-atom sets into itself."""
    drives = np.zeros((natoms, 2), dtype=bool)
    for step in sequence:  # _pulse_blocks refuses atoms past the last
        drives[[a for a in step.atoms if a < natoms], _TRANSITIONS[step.transition]] = True
    keys = np.arange(2**natoms) * 3**natoms
    for a in range(natoms):
        place = 3 ** (natoms - 1 - a)
        bits = (keys // 3**natoms >> (natoms - 1 - a)) & 1
        parts = []
        for bit in (0, 1):
            # the input level; 2 once it is driven; the other ground level
            # once that is driven too
            reach = (bit, 2, 1 - bit)[: 1 + drives[a, bit] * (1 + drives[a, 1 - bit])]
            parts += [keys[bits == bit] + level * place for level in reach]
        keys = np.concatenate(parts)
    return np.sort(keys)


def _two_level_blocks(step: PulseStep, idle: np.ndarray, lower: np.ndarray,
                      upper: np.ndarray, diag: np.ndarray, forbidden: np.ndarray) -> list[tuple]:
    """A pulse on one atom at phase 0, in either basis: the ``idle`` rows,
    which hold the atom in the other ground level, only pick up their
    diagonal, and each ``lower`` row, the atom in the driven ground level,
    is a two-level problem with its ``upper`` row, the atom lifted.

    Each pair H = [[a, c], [c, b]] is solved in closed form: with m = (a +
    b) / 2, d = (a - b) / 2 and s^2 = d^2 + c^2, exp(-i t H) = exp(-i t m)
    (cos(s t) - i t sinc(s t) (d sigma_z + c sigma_x)).  It is evaluated as
    exp(-i t (m + s)) times (1 + e^z) / 2 and t (e^z - 1) / z, z = 2 i s t,
    on the root s with Im s >= 0, where, as decay only damps, no factor
    exceeds 1.  An upper row holding a doubly excited infinite-shift pair,
    which it does whenever its lower row does, leaves the pair uncoupled.
    The groups are (idle rows, None, their phases, None) and (lower rows,
    upper rows, (u00, u01, u11), None)."""
    time = step.effective_duration
    c = np.where(forbidden[upper], 0.0, 0.5 * step.rabi)
    m, d = 0.5 * (diag[lower] + diag[upper]), 0.5 * (diag[lower] - diag[upper])
    r = np.sqrt(-(d * d + c * c))  # -i s: Re r = Im s >= 0
    z = -2.0 * time * r
    em1 = np.expm1(z)
    scale = np.exp(time * (r - 1j * m))
    sine = -1j * time * scale * np.divide(em1, z, out=np.ones_like(z), where=z != 0)
    cosine = scale * (1.0 + 0.5 * em1)
    return [(idle, None, np.exp(-1j * time * diag[idle]), None),
            (lower, upper, (cosine + sine * d, sine * c, cosine - sine * d), None)]


def _pulse_blocks(step: PulseStep, basis: tuple) -> list[tuple]:
    """A single-atom pulse's blocks at phase 0 over ``basis``, whose rows
    the pulse must map into themselves: the rows holding the atom in the
    other ground level, and the row pairs of the atom in the driven ground
    level and lifted, found by key and solved by ``_two_level_blocks``.  A
    pulse on several atoms is refused: it runs only in the class basis."""
    keys, digits, diag, forbidden = basis
    natoms = digits.shape[1]
    if len(step.atoms) > 1:
        raise ValueError("a pulse on several atoms runs only in the class basis: every pulse "
                         "on the target alone or on all controls from one ground level, one "
                         "control-target shift, one control-control shift and one control "
                         "decay rate")
    (atom,) = step.atoms
    if atom >= natoms:
        raise ValueError(f"pulse drives atom {atom} but only {natoms} exist")
    ground = _TRANSITIONS[step.transition]
    idle, lower = (np.flatnonzero(digits[:, atom] == level) for level in (1 - ground, ground))
    upper = np.searchsorted(keys, keys[lower] + (2 - ground) * 3 ** (natoms - 1 - atom))
    return _two_level_blocks(step, idle, lower, upper, diag, forbidden)


def _apply_pulse(psi: np.ndarray, phase: float, blocks: list[tuple]) -> np.ndarray:
    """Exact propagator of one pulse of ``phase``, given its phase-0
    ``blocks``, applied to ``psi``, one amplitude per basis row.  Every
    coupling raises one driven atom, so the pulse is P u(0) P^dag with P =
    diag(exp(i phase n)), n a row's count of excited driven atoms: a truth
    table builds each distinct pulse once and applies each phase as this
    frame change, in place on a single-atom pulse's row pairs and through
    one stacked product per group of chains."""
    out = np.empty_like(psi)
    for rows, which, u, excitations in blocks:
        if which is None:
            out[rows] = u * psi[rows]
            continue
        if excitations is None:  # rows and which: the lower and upper rows of pairs
            (d0, off, d1), p0, p1 = u, psi[rows], psi[which]
            turn = np.exp(1j * phase)
            out[rows] = d0 * p0 + off * p1 / turn
            out[which] = off * turn * p0 + d1 * p1
            continue
        frame = np.exp(1j * phase * excitations)
        out[rows] = frame * (u[which] @ (psi[rows] / frame)[:, :, None])[:, :, 0]
    return out


def _propagate(psi: np.ndarray, sequence: Sequence[PulseStep], build) -> np.ndarray:
    """``psi`` after ``sequence``, with ``build(step)`` giving each distinct
    pulse's phase-0 blocks once, whatever its phase."""
    blocks: dict[tuple, list[tuple]] = {}
    for step in sequence:
        key = (_TRANSITIONS[step.transition], step.atoms, step.rabi, step.effective_duration)
        if key not in blocks:
            blocks[key] = build(step)
        psi = _apply_pulse(psi, step.phase, blocks[key])
    return psi


def _control_ground(sequence: Sequence[PulseStep], k: int) -> int | None:
    """The ground level the controls are driven from (0 if no pulse drives
    them) when every pulse drives either the target, atom k, alone or all k
    controls at once, and every control pulse the same ground level; None
    otherwise."""
    controls = [step for step in sequence if step.atoms != (k,)]
    grounds = {_TRANSITIONS[step.transition] for step in controls}
    if len(grounds) > 1 or any(sorted(step.atoms) != list(range(k)) for step in controls):
        return None
    return min(grounds, default=0)


def _class_basis(k: int, b_ct: float, d_cc: float, decay_c: float,
                 decay_t: float) -> tuple[np.ndarray, ...]:
    """The class basis of a gate symmetric under permutations of its k
    controls, rows in C order over (w, input target bit, target level, n):
    w controls in the driven ground level hold n excitations in their
    symmetric (Dicke) state; rows n > w pad each chain to k + 1 rows and
    stay empty.  Returns each row's w, target level and n, its diagonal of
    pair shifts and decay, and whether it holds a doubly excited
    infinite-shift pair, as ``_basis`` does."""
    w, _, level, n = np.indices((k + 1, 2, 3, k + 1)).reshape(4, -1)
    lifted = level == 2
    forbidden = (math.isinf(d_cc) & (n >= 2)) | (math.isinf(b_ct) & lifted & (n >= 1))
    shifts = ((0.0 if math.isinf(d_cc) else d_cc) * (n * (n - 1) // 2)
              + (0.0 if math.isinf(b_ct) else b_ct) * (n * lifted))
    diag = np.where(forbidden, 0.0, shifts - 0.5j * (decay_c * n + decay_t * lifted))
    return w, level, n, diag, forbidden


def _class_blocks(step: PulseStep, k: int, basis: tuple) -> list[tuple]:
    """One pulse's phase-0 blocks over the class basis.  A target pulse
    pairs the rows (n, g) and (n, r) for ``_two_level_blocks``.  The
    collective pulse is one chain per (w, input target bit, target level),
    coupling n and n + 1 excitations by (Omega / 2) sqrt((w - n)(n + 1));
    the chains of one w with the target in r, or not, share an exponential,
    all in one Pade batch.  Its one group holds the chains' rows, ``which``
    exponential each chain takes, the exponentials, and each row's n."""
    w, level, n, diag, forbidden = basis
    ground = _TRANSITIONS[step.transition]
    if step.atoms == (k,):
        lower = np.flatnonzero(level == ground)
        return _two_level_blocks(step, np.flatnonzero(level == 1 - ground), lower,
                                 lower + (2 - ground) * (k + 1), diag, forbidden)
    rows = np.arange(w.size).reshape(-1, k + 1)
    which = 2 * w[rows[:, 0]] + (level[rows[:, 0]] == 2)
    # the chains of input target bit 0 with the target in g0 and in r
    first = rows[6 * np.arange(k + 1)[:, None] + [0, 2]].reshape(-1, k + 1)
    up = np.arange(k)
    allowed = ~(forbidden[first[:, :-1]] | forbidden[first[:, 1:]])
    h = np.zeros((2 * k + 2, k + 1, k + 1), dtype=np.complex128)
    h[:, up + 1, up] = h[:, up, up + 1] = allowed * (
        0.5 * step.rabi * np.sqrt(np.maximum(w[first[:, :1]] - up, 0) * (up + 1)))
    np.einsum("bii->bi", h)[:] = diag[first]
    return [(rows, which, _expm(-1j * step.effective_duration * h), n[: k + 1])]


def class_amplitudes(
    sequence: Sequence[PulseStep],
    k: int,
    b_ct: float,
    d_cc: float,
    decay_c: float = 0.0,
    decay_t: float = 0.0,
) -> np.ndarray:
    """Computational amplitudes a[j, t_out, t_in] of a gate symmetric under
    permutations of its k controls, for k up to the budgets' 64.

    Every pulse drives the target, atom k, alone or all controls at once,
    each control pulse from one ground level.  Every control-target pair is
    shifted by ``b_ct``, every control pair by ``d_cc``, each control decays
    at ``decay_c`` and the target at ``decay_t``.  An input whose control
    bits hold j ones and whose target bit is t_in reaches no computational
    state but itself with the target bit set to t_out, at amplitude a[j,
    t_out, t_in].

    The controls in the driven ground level stay in their symmetric
    subspace, so the table runs over ``_class_basis``: 6 (k + 1)^2 rows
    with each distinct pulse built once, by ``_class_blocks``."""
    check_k(k)
    sequence = tuple(sequence)  # read to find the ground level, then to propagate
    ground = _control_ground(sequence, k)
    if ground is None:
        raise ValueError("a symmetric gate drives the target alone or all controls at once, "
                         "the controls from one ground level")
    basis = _class_basis(k, b_ct, d_cc, decay_c, decay_t)
    psi = np.zeros((k + 1, 2, 3, k + 1), dtype=np.complex128)
    psi[:, (0, 1), (0, 1), 0] = 1.0  # no excitation, the target at its input bit
    psi = _propagate(psi.ravel(), sequence, lambda step: _class_blocks(step, k, basis))
    # computational outputs: no excitation and the target in a ground level
    amps = psi.reshape(k + 1, 2, 3, k + 1)[:, :, :2, 0].transpose(0, 2, 1)
    return amps if ground == 1 else amps[::-1]  # from w, in the driven level, to j ones


def _symmetric_form(sequence: Sequence[PulseStep], k: int, v: np.ndarray,
                    g: np.ndarray) -> tuple[float, ...] | None:
    """``class_amplitudes``' shifts and decay rates (b_ct, d_cc, decay_c,
    decay_t) when the gate is symmetric under permutations of its controls;
    None otherwise."""
    cc, ct, gc = v[:k, :k][~np.eye(k, dtype=bool)], v[:k, k], g[:k]
    if _control_ground(sequence, k) is None or any(np.any(x != x[:1]) for x in (cc, ct, gc)):
        return None
    return ct[0], cc[0] if k > 1 else 0.0, gc[0], g[k]


def _reach_outputs(sequence: Sequence[PulseStep], natoms: int, v: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """Computational amplitudes of every output (rows) from every input
    (columns), propagated over the reachable basis."""
    inputs = np.arange(2**natoms)
    basis = _basis(_reach_keys(sequence, natoms), natoms, v, g)
    # each row's input, and its computational output or -1
    output_index = np.full(3**natoms, -1)
    output_index[_computational_indices(natoms)] = inputs
    input_of, state_of = np.divmod(basis[0], 3**natoms)
    output_of = output_index[state_of]
    psi = _propagate((output_of == input_of).astype(np.complex128), sequence,
                     lambda step: _pulse_blocks(step, basis))
    hit = output_of >= 0
    outputs = np.zeros((inputs.size, inputs.size), dtype=np.complex128)
    outputs[output_of[hit], input_of[hit]] = psi[hit]
    return outputs


def evolve(
    state: SimState,
    step: PulseStep,
    interactions: np.ndarray,
    decay_rates=None,
) -> SimState:
    """Apply one single-atom pulse to a state, tracking population lost to
    decay.  The atom count is that of the interaction matrix.  A pulse on
    several atoms is refused: it runs only in ``class_amplitudes``."""
    natoms = len(interactions)
    v = _normalize_interactions(natoms, interactions)
    if state.amplitudes.shape != (3**natoms,):
        raise ValueError(f"the state must hold 3**{natoms} amplitudes")
    g = _normalize_decay(natoms, decay_rates)
    before = float(np.vdot(state.amplitudes, state.amplitudes).real)
    basis = _basis(np.arange(3**natoms), natoms, v, g)
    psi = _apply_pulse(state.amplitudes, step.phase, _pulse_blocks(step, basis))
    after = float(np.vdot(psi, psi).real)
    return SimState(
        amplitudes=psi,
        norm_deficit=state.norm_deficit + (before - after),
    )


def canonical_sequence(
    scheme: str,
    k: int,
    omega: float | None = None,
    omega_c: float | None = None,
    omega_t: float | None = None,
) -> tuple[PulseStep, ...]:
    """Standard pulse list for one gate.

    ``sequential``: controls 1..k driven in turn, the target's three-pulse
    swap of its ground states through r, controls returned in reverse with
    phase pi so their round-trip phases cancel.  ``grover``: the same
    control ladder without target pulses; the last control makes an
    immediate round trip and imprints the conditional phase.
    ``simultaneous``: all controls in one pulse, the same target swap at
    ``omega_t``, all controls back.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scheme == "simultaneous":
        if omega_c is None or omega_t is None:
            raise ValueError("simultaneous sequence requires omega_c and omega_t")
        up, omega = [PulseStep("g0-s", omega_c, atoms=tuple(range(k)))], omega_t
    elif scheme in ("sequential", "grover"):
        if omega is None:
            raise ValueError(f"{scheme} sequence requires omega")
        up = [PulseStep("g0-r", omega, atoms=(i,)) for i in range(k)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    down = [replace(step, phase=math.pi) for step in reversed(up)]
    if scheme == "grover":
        # control k just went up; bring it straight down with the same
        # phase so the unblocked branch of the round trip picks up -1
        return (*up, up[-1], *down[1:])
    # the target (atom k) swaps its ground states through r
    swap = [PulseStep(transition, omega, atoms=(k,)) for transition in ("g0-r", "g1-r", "g0-r")]
    return (*up, *swap, *down)


def sequence_duration(sequence: Sequence[PulseStep]) -> float:
    return math.fsum(step.effective_duration for step in sequence)


def uniform_interactions(k: int, b: float) -> np.ndarray:
    """Every pair shifted by the same amount, controls and target alike."""
    return simultaneous_interactions(k, b, b)


def simultaneous_interactions(k: int, b_ct: float, d_cc: float) -> np.ndarray:
    """Control-target shift ``b_ct``, control-control shift ``d_cc``."""
    natoms = k + 1
    v = np.full((natoms, natoms), float(d_cc))
    v[:, k] = b_ct
    v[k, :] = b_ct
    np.fill_diagonal(v, 0.0)
    return v


def gate_error_sim(
    sequence: Sequence[PulseStep],
    k: int,
    interactions: np.ndarray,
    decay_rates=None,
    ideal: str = "cnot",
) -> SimResult:
    """Run every computational input through the sequence.

    Returns the full truth table of output probabilities, each input's
    population missing from its ideal output, and ``avg_error``, 1 - F_avg
    against the ideal gate with its phases (see ``SimResult``).  A gate
    symmetric under permutations of its controls (every pulse on the target
    alone or on all controls from one ground level; one control-target
    shift, one control-control shift, one control decay rate) runs through
    ``class_amplitudes``, any other over the reachable basis, where every
    pulse must drive one atom: a pulse on several atoms is refused there.
    """
    if not 1 <= k <= _MAX_K_TABLE:
        raise ValueError("k must be >= 1" if k < 1 else
                         f"full truth table capped at k = {_MAX_K_TABLE}")
    natoms = k + 1
    v = _normalize_interactions(natoms, interactions)
    g = _normalize_decay(natoms, decay_rates)
    ideal_out, phases = ideal_map(k, ideal)
    inputs = np.arange(2**natoms)
    sequence = tuple(sequence)  # read to pick the basis, then to propagate
    # a value past the float range raises, as LaurentBudget.table does
    with np.errstate(over="raise", invalid="raise"):
        # rows: computational outputs; columns: inputs
        symmetric = _symmetric_form(sequence, k, v, g)
        if symmetric is None:
            outputs = _reach_outputs(sequence, natoms, v, g)
        else:
            amps = class_amplitudes(sequence, k, *symmetric)
            controls = inputs >> 1
            ones = (controls[:, None] >> np.arange(k) & 1).sum(axis=1)
            outputs = np.zeros((inputs.size, inputs.size), dtype=np.complex128)
            for bit in (0, 1):
                outputs[2 * controls + bit, inputs] = amps[ones, bit, inputs & 1]
        truth_table = (np.abs(outputs) ** 2).T
        errors = 1.0 - truth_table[inputs, ideal_out]

        # overlap matrix of simulated outputs with the phase-correct ideal ones
        m_overlap = phases[:, None] * outputs[ideal_out]
        d = float(inputs.size)
        f_avg = (
            float(np.sum(np.abs(m_overlap) ** 2)) + abs(np.trace(m_overlap)) ** 2
        ) / (d * (d + 1.0))
    return SimResult(
        avg_error=1.0 - f_avg,
        errors_by_input=errors,
        truth_table=truth_table,
        ideal_outputs=ideal_out,
    )
