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
coupling of the spectator qubit state.  A truth table runs in the reachable
basis, where each atom keeps the closure of its input level under the
sequence's pulses: 6 * 3**k rows for the sequential and simultaneous gates
(39 366 at ``k = 8``, against 10.1 M amplitudes over the full basis).  In a
fresh process on a 2-core x86 VM a lossy sequential truth table takes
0.03 s wall (0.03 s CPU) at ``k = 6``, 0.06 s (0.06 s) at ``k = 7`` and
0.19 s (0.18 s) at ``k = 8``; a simultaneous one 0.06 s (0.09 s), 0.18 s
(0.32 s) and 0.73 s (1.4 s), its dense collective-pulse blocks running on
both cores.  ``k = 8`` peaks near 54 MB (simultaneous 69 MB) of process
memory.  ``evolve`` steps one state over the full ``3**(k+1)`` basis, up to
``k = 10``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def ideal_map(k: int, gate: str = "cnot") -> tuple[np.ndarray, np.ndarray]:
    """Computational output index and output phase of the ideal gate for
    every basis input, in input order.

    The pi-phase bookkeeping of the pulse sequences leaves -1 on the
    target-flipped branch of the multi-control NOT, and -1 on the single
    control configuration (1, ..., 1, 0) of the no-target phase gate."""
    # the control bits that pick up the -1; the identity marks none
    marked_controls = {"cnot": 2**k - 1, "grover": 2**k - 2, "identity": -1}
    if gate not in marked_controls:
        raise ValueError(f"unknown ideal gate {gate!r}")
    inputs = np.arange(2 ** (k + 1))
    marked = (inputs >> 1) == marked_controls[gate]
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
    excited-atom bitmask, its diagonal of pair shifts and decay, and
    whether it holds a doubly excited infinite-shift pair.  Atom 0 is the
    most significant base-3 digit of the index."""
    digits = keys[:, None] // 3 ** np.arange(natoms - 1, -1, -1) % 3
    excited = (digits == 2).astype(float)
    blocked = np.isinf(interactions)
    forbidden = np.einsum("sa,ab,sb->s", excited, blocked, excited) > 0
    finite = np.where(blocked, 0.0, interactions)
    diag = 0.5 * np.einsum("sa,ab,sb->s", excited, finite, excited)
    # a real product: OpenBLAS hands the complex one to its thread pool
    # from 1 458 rows (k = 5), and the woken worker then spins idle
    diag = np.where(forbidden, 0.0, diag - 0.5j * (excited @ decay_rates))
    return keys, digits, (digits == 2) @ (1 << np.arange(natoms)), diag, forbidden


def _reach_keys(sequence: Sequence[PulseStep], natoms: int) -> np.ndarray:
    """Sorted (input, base-3 index) keys of the states each computational
    input can reach.  An atom's reachable levels are the closure of its
    input level under the sequence's pulses, where a pulse driving ground
    level g on the atom joins g and 2, so every pulse maps the product of
    these per-atom sets into itself."""
    drives = np.zeros((natoms, 2), dtype=bool)
    for step in sequence:  # _apply_pulse refuses atoms past the last
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


def _apply_pulse(psi: np.ndarray, step: PulseStep, basis: tuple) -> np.ndarray:
    """Exact propagator of one pulse applied to ``psi``, one amplitude per
    row of ``basis``, whose rows the pulse must map into themselves.

    A pulse keeps every undriven digit and the active set A of driven atoms
    in its ground level or 2 (not the other ground level), so the rows
    split into blocks of the 2^|A| excitation patterns of A, whose rows are
    found by key.  A block carries pair shifts and decay on its diagonal
    and half-Rabi couplings off it.  Blocks sharing A are exponentiated in
    one batch, and those that also excite the same atoms share one
    exponential.  States holding a doubly excited infinite-shift pair get a
    zero diagonal and no couplings, so perfect blockade leaves them
    untouched."""
    keys, digits, excited, diag, forbidden = basis
    natoms = digits.shape[1]
    if max(step.atoms) >= natoms:
        raise ValueError(f"pulse drives atom {max(step.atoms)} but only {natoms} exist")
    ground = _TRANSITIONS[step.transition]
    driven = digits[:, list(step.atoms)]
    lift = (2 - ground) * 3 ** (natoms - 1 - np.array(step.atoms))
    bases = np.flatnonzero(np.all(driven != 2, axis=1))  # blocks' unexcited rows
    active = (driven[bases] == ground) @ (1 << np.arange(len(step.atoms)))
    half = 0.5 * step.rabi * np.exp(1j * step.phase)
    time = step.effective_duration
    out = np.empty_like(psi)
    # with return_inverse, np.unique takes a path that never imports numpy.ma
    masks, group = np.unique(active, return_inverse=True)
    for m, mask in enumerate(masks):
        on = (mask >> np.arange(len(step.atoms))) & 1 == 1
        members = bases[group == m]
        if not mask:  # 1 x 1 blocks: each row only picks up its diagonal
            out[members] = np.exp(-1j * time * diag[members]) * psi[members]
            continue
        patterns = np.arange(2 ** on.sum())
        bits = (patterns[:, None] >> np.arange(on.sum())) & 1
        index = np.searchsorted(keys, keys[members, None] + bits @ lift[on])
        # raising[i, j]: pattern i is pattern j with one more atom excited
        flips = np.sum(bits[:, None] != bits, axis=2)
        raising = (flips == 1) & (patterns[:, None] > patterns)
        _, first, which = np.unique(excited[members], return_index=True, return_inverse=True)
        allowed = ~forbidden[index[first]]
        h = (half * raising + np.conj(half) * raising.T) * (
            allowed[:, :, None] & allowed[:, None, :]
        )
        np.einsum("bii->bi", h)[:] = diag[index[first]]
        u = _expm(-1j * time * h)
        out[index] = (u[which] @ psi[index][:, :, None])[:, :, 0]
    return out


def evolve(
    state: SimState,
    step: PulseStep,
    interactions: np.ndarray,
    decay_rates=None,
) -> SimState:
    """Apply one pulse to a state, tracking population lost to decay.  The
    atom count is that of the interaction matrix."""
    natoms = len(interactions)
    v = _normalize_interactions(natoms, interactions)
    if state.amplitudes.shape != (3**natoms,):
        raise ValueError(f"the state must hold 3**{natoms} amplitudes")
    g = _normalize_decay(natoms, decay_rates)
    before = float(np.vdot(state.amplitudes, state.amplitudes).real)
    psi = _apply_pulse(state.amplitudes, step, _basis(np.arange(3**natoms), natoms, v, g))
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

    ``sequential``: controls 1..k driven in turn, three target pulses,
    controls returned in reverse with phase pi so their round-trip phases
    cancel.  ``grover``: the same control ladder without target pulses;
    the last control makes an immediate round trip and imprints the
    conditional phase.  ``simultaneous``: all controls in one pulse, three
    target pulses, all controls back.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    target = k
    if scheme in ("sequential", "grover"):
        if omega is None:
            raise ValueError(f"{scheme} sequence requires omega")
        steps = [
            PulseStep("g0-r", omega, atoms=(i,)) for i in range(k)
        ]
        if scheme == "sequential":
            steps += [
                PulseStep("g0-r", omega, atoms=(target,)),
                PulseStep("g1-r", omega, atoms=(target,)),
                PulseStep("g0-r", omega, atoms=(target,)),
            ]
            steps += [
                PulseStep("g0-r", omega, atoms=(i,), phase=math.pi)
                for i in reversed(range(k))
            ]
        else:
            # control k just went up; bring it straight down with the same
            # phase so the unblocked branch of the round trip picks up -1
            steps += [PulseStep("g0-r", omega, atoms=(k - 1,))]
            steps += [
                PulseStep("g0-r", omega, atoms=(i,), phase=math.pi)
                for i in reversed(range(k - 1))
            ]
        return tuple(steps)
    if scheme == "simultaneous":
        if omega_c is None or omega_t is None:
            raise ValueError("simultaneous sequence requires omega_c and omega_t")
        controls = tuple(range(k))
        return (
            PulseStep("g0-s", omega_c, atoms=controls),
            PulseStep("g0-r", omega_t, atoms=(target,)),
            PulseStep("g1-r", omega_t, atoms=(target,)),
            PulseStep("g0-r", omega_t, atoms=(target,)),
            PulseStep("g0-s", omega_c, atoms=controls, phase=math.pi),
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def sequence_duration(sequence: Sequence[PulseStep]) -> float:
    return math.fsum(step.effective_duration for step in sequence)


def uniform_interactions(k: int, b: float) -> np.ndarray:
    """Every pair shifted by the same amount, controls and target alike."""
    natoms = k + 1
    v = np.full((natoms, natoms), float(b))
    np.fill_diagonal(v, 0.0)
    return v


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

    Returns the uniform average over the 2^(k+1) inputs of the population
    missing from the ideal output state, together with the full truth
    table of output probabilities.
    """
    if k > _MAX_K_TABLE:
        raise ValueError(f"full truth table capped at k = {_MAX_K_TABLE}")
    natoms = k + 1
    v = _normalize_interactions(natoms, interactions)
    g = _normalize_decay(natoms, decay_rates)
    ideal_out, phases = ideal_map(k, ideal)
    inputs = np.arange(2**natoms)
    sequence = tuple(sequence)  # read twice: for the reach and to propagate
    basis = _basis(_reach_keys(sequence, natoms), natoms, v, g)
    # each row's input, and its computational output or -1
    output_index = np.full(3**natoms, -1)
    output_index[_computational_indices(natoms)] = inputs
    input_of, state_of = np.divmod(basis[0], 3**natoms)
    output_of = output_index[state_of]

    psi = (output_of == input_of).astype(np.complex128)
    for step in sequence:
        psi = _apply_pulse(psi, step, basis)

    # rows: computational outputs; columns: inputs
    hit = output_of >= 0
    outputs = np.zeros((inputs.size, inputs.size), dtype=np.complex128)
    outputs[output_of[hit], input_of[hit]] = psi[hit]
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
