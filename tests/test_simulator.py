"""State-vector simulator tests.

The simulator is the independent oracle for the closed-form budgets, so
its own tests avoid the budget formulas wherever possible: truth tables
are checked against hand permutations, leakage against the two-level
detuned-drive solution, and decay against first-order exposure times.
The block propagator is checked against a dense full-space oracle, and
the reachable-basis truth table against the full-basis one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from rydgate import (
    PulseStep,
    SimState,
    budget_sequential_uniform,
    canonical_sequence,
    computational_state,
    evolve,
    gate_error_sim,
    ideal_map,
    sequence_duration,
    simultaneous_interactions,
    uniform_interactions,
)
from rydgate.simulator import _basis, _expm, _reach_keys
from rydgate.units import angular_from_mhz

from oracles import basis_diagonal, dense_hamiltonian, gate_error_sim_full_basis

OMEGA = 2.0 * math.pi * 1.0e6
W10 = angular_from_mhz(9200.0)


# ------------------------------------------------------------ ideal tables

@pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 8])
def test_cnot_truth_table_in_ideal_limit(k):
    seq = canonical_sequence("sequential", k, omega=OMEGA)
    res = gate_error_sim(seq, k, uniform_interactions(k, math.inf))
    expected, _ = ideal_map(k)
    np.testing.assert_allclose(
        res.truth_table[np.arange(2 ** (k + 1)), expected], 1.0, rtol=0.0, atol=1e-12
    )
    assert res.avg_error == pytest.approx(0.0, abs=1e-12)


def test_ideal_map_flips_target_only_when_all_controls_set():
    # k=2: inputs 6 (110) and 7 (111) are the all-controls-one block
    for gate in ("cnot", "grover", "identity"):
        indices, _ = ideal_map(2, gate)
        swapped = [0, 1, 2, 3, 4, 5, 7, 6] if gate == "cnot" else list(range(8))
        np.testing.assert_array_equal(indices, swapped)


def test_ideal_phases():
    np.testing.assert_array_equal(ideal_map(2, "cnot")[1], [1, 1, 1, 1, 1, 1, -1, -1])
    # the phase gate's -1 sits on the control configuration (1, 0)
    np.testing.assert_array_equal(ideal_map(2, "grover")[1], [1, 1, 1, 1, -1, -1, 1, 1])
    np.testing.assert_array_equal(ideal_map(2, "identity")[1], np.ones(8))


def test_ideal_map_refuses_unknown_gate():
    with pytest.raises(ValueError, match="unknown ideal gate"):
        ideal_map(2, "toffoli")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grover_sequence_applies_conditional_phase(k):
    seq = canonical_sequence("grover", k, omega=OMEGA)
    res = gate_error_sim(seq, k, uniform_interactions(k, math.inf), ideal="grover")
    assert res.avg_error == pytest.approx(0.0, abs=1e-12)
    # populations land on the identity permutation for every input
    for m in range(2 ** (k + 1)):
        assert res.truth_table[m, m] == pytest.approx(1.0, abs=1e-12)


def test_grover_phase_is_invisible_to_populations_but_not_to_fidelity():
    # measured against a phase-free identity, the k=2 oracle leaves
    # populations perfect but costs exactly 2/3 in average fidelity:
    # tr M = 8 - 2*2 = 4, so F = (8 + 16) / 72 = 1/3
    seq = canonical_sequence("grover", 2, omega=OMEGA)
    res = gate_error_sim(seq, 2, uniform_interactions(2, math.inf), ideal="identity")
    assert max(res.errors_by_input) < 1e-12
    assert res.avg_error == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_simultaneous_sequence_ideal_limit():
    k = 2
    seq = canonical_sequence("simultaneous", k, omega_c=10.0 * OMEGA, omega_t=OMEGA)
    v = simultaneous_interactions(k, math.inf, 0.0)
    res = gate_error_sim(seq, k, v)
    expected, _ = ideal_map(k)
    np.testing.assert_allclose(
        res.truth_table[np.arange(2 ** (k + 1)), expected], 1.0, rtol=0.0, atol=1e-12
    )
    assert res.avg_error == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------------- leakage

@pytest.mark.parametrize("x", [3.0, 5.0, 10.0, 20.0])
def test_blocked_drive_leak_matches_two_level_solution(x):
    # control parked in r detunes the target g0-r drive by B; after one
    # pi-time the excited population is sin^2((pi/2) sqrt(1+x^2)) / (1+x^2)
    b = x * OMEGA
    state = computational_state(1, 2)  # control 1, target 0
    v = uniform_interactions(1, b)
    state = evolve(state, PulseStep("g1-r", OMEGA, atoms=(0,)), v)
    state = evolve(state, PulseStep("g0-r", OMEGA, atoms=(1,)), v)
    leak = abs(state.amplitudes[3 * 2 + 2]) ** 2
    expected = math.sin(0.5 * math.pi * math.sqrt(1.0 + x * x)) ** 2 / (1.0 + x * x)
    assert leak == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_rotation_error_scales_as_inverse_b_squared():
    errs = []
    for ratio in (10.0, 20.0, 40.0):
        seq = canonical_sequence("sequential", 2, omega=OMEGA)
        res = gate_error_sim(seq, 2, uniform_interactions(2, ratio * OMEGA))
        errs.append(res.avg_error)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2, abs=0.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2, abs=0.0)


# ----------------------------------------------------------------- decay

@pytest.mark.parametrize("k", [1, 2, 3])
def test_decay_only_error_matches_budget_exposure(k):
    # with perfect blockade and gamma = 1/tau, the first-order error is
    # the decay part of the closed-form budget; both metrics agree
    tau = 5.0e-3
    seq = canonical_sequence("sequential", k, omega=OMEGA)
    res = gate_error_sim(
        seq, k, uniform_interactions(k, math.inf), decay_rates=1.0 / tau
    )
    bud = budget_sequential_uniform(k, math.inf, tau, W10).at(OMEGA)
    decay_budget = bud["se_c_1"] + bud["se_t_1"]
    assert float(np.mean(res.errors_by_input)) == pytest.approx(decay_budget, rel=1e-3, abs=0.0)
    assert res.avg_error == pytest.approx(decay_budget, rel=1e-3, abs=0.0)


def test_norm_deficit_accumulates_only_with_decay():
    v = uniform_interactions(1, math.inf)
    pulse = PulseStep("g1-r", OMEGA, atoms=(0,))
    lossless = evolve(computational_state(1, 2), pulse, v)
    assert lossless.norm_deficit == pytest.approx(0.0, abs=1e-12)
    lossy = evolve(computational_state(1, 2), pulse, v, decay_rates=1.0e3)
    assert lossy.norm_deficit > 0.0


# ------------------------------------------------------------- durations

def test_sequence_durations():
    seq = canonical_sequence("sequential", 5, omega=OMEGA)
    assert len(seq) == 13
    assert sequence_duration(seq) == pytest.approx(13.0 * math.pi / OMEGA, rel=1e-12, abs=0.0)
    grover = canonical_sequence("grover", 5, omega=OMEGA)
    assert len(grover) == 10
    simultaneous = canonical_sequence(
        "simultaneous", 5, omega_c=10.0 * OMEGA, omega_t=OMEGA
    )
    assert sequence_duration(simultaneous) == pytest.approx(
        3.0 * math.pi / OMEGA + 2.0 * math.pi / (10.0 * OMEGA), rel=1e-12, abs=0.0
    )


# ------------------------------------------------------------ validation

def test_pulse_step_validation():
    with pytest.raises(ValueError, match="unknown transition"):
        PulseStep("g2-r", OMEGA, atoms=(0,))
    with pytest.raises(ValueError, match="rabi"):
        PulseStep("g0-r", 0.0, atoms=(0,))
    with pytest.raises(ValueError, match="duplicate"):
        PulseStep("g0-r", OMEGA, atoms=(0, 0))
    with pytest.raises(ValueError, match="at least one atom"):
        PulseStep("g0-r", OMEGA, atoms=())
    step = PulseStep("g0-r", OMEGA, atoms=(0,), duration=1.0e-7)
    assert step.effective_duration == 1.0e-7
    assert PulseStep("g0-r", OMEGA, atoms=(0,)).effective_duration == pytest.approx(
        math.pi / OMEGA
    )


def test_table_cap_enforced():
    seq = canonical_sequence("sequential", 9, omega=OMEGA)
    with pytest.raises(ValueError, match="capped at k = 8"):
        gate_error_sim(seq, 9, uniform_interactions(9, math.inf))


def test_state_cap_enforced():
    with pytest.raises(ValueError, match="k too large"):
        computational_state(11, 0)


@pytest.mark.parametrize("k, atoms", [(2, 2), (2, 4), (1, 3)])
def test_evolve_refuses_state_of_another_size(k, atoms):
    # the atom count comes from the interaction matrix, so a state of k + 1
    # atoms needs a (k + 1) x (k + 1) one
    state = computational_state(k, 0)
    pulse = PulseStep("g0-r", OMEGA, atoms=(0,))
    with pytest.raises(ValueError, match=f"3\\*\\*{atoms} amplitudes"):
        evolve(state, pulse, uniform_interactions(atoms - 1, 5.0 * OMEGA))


@given(k=st.integers(min_value=1, max_value=3), index=st.integers(min_value=0, max_value=15))
def test_computational_state_round_trip(k, index):
    if index >= 2 ** (k + 1):
        index %= 2 ** (k + 1)
    state = computational_state(k, index)
    assert np.count_nonzero(state.amplitudes) == 1
    pos = int(np.argmax(np.abs(state.amplitudes)))
    digits = []
    for _ in range(k + 1):
        digits.append(pos % 3)
        pos //= 3
    digits.reverse()
    bits = 0
    for digit in digits:
        assert digit in (0, 1)
        bits = (bits << 1) | digit
    assert bits == index


# ------------------------------------------------------------ exponential

@st.composite
def _block_stacks(draw):
    """A batch of n x n blocks shaped like a pulse's: a Hermitian coupling
    and real shifts, a -i Gamma/2 decay diagonal, times -i t.  Each block
    gets its own 1-norm, 0 or 1e-3..1e4, so one batch mixes norms."""
    n = draw(st.sampled_from([1, 2, 4, 16]))
    norms = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda x: 10.0**x)),
            min_size=1,
            max_size=4,
        )
    )
    decay_share = draw(st.floats(0.0, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for norm in norms:
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = h + h.conj().T
        h = h - 1j * decay_share * np.diag(np.abs(rng.normal(size=n)))
        a = -1j * h
        blocks.append(a * (norm / np.abs(a).sum(axis=0).max()))
    return np.stack(blocks)


@given(_block_stacks())
def test_pade_exponential_matches_scipy(stack):
    want = np.stack([expm(a) for a in stack])
    np.testing.assert_allclose(_expm(stack), want, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------ basis diagonal

@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("blockade", ["finite", "infinite"])
def test_basis_diagonal_matches_per_row_oracle(k, blockade):
    # random signed shifts, some pairs infinite in the infinite case, and
    # per-atom decay with one atom lossless, over the rows of the
    # sequential and the simultaneous gate
    n = k + 1
    rng = np.random.default_rng(10 * k + (blockade == "infinite"))
    v = np.triu(rng.uniform(-5.0, 5.0, (n, n)) * OMEGA, 1)
    if blockade == "infinite":
        v[np.triu(rng.random((n, n)) < 0.4, 1)] = math.inf
        v[0, n - 1] = math.inf
    v = v + v.T
    decay = rng.uniform(0.0, 0.3, n) * OMEGA
    decay[rng.integers(n)] = 0.0
    sequences = [canonical_sequence("sequential", k, omega=OMEGA),
                 canonical_sequence("simultaneous", k, omega_c=5 * OMEGA, omega_t=OMEGA)]
    keys = np.unique(np.concatenate([_reach_keys(seq, n) for seq in sequences]))
    diag, forbidden = _basis(keys, n, v, decay)[3:]
    want_diag, want_forbidden = basis_diagonal(keys, n, v, decay)
    assert forbidden.tolist() == want_forbidden
    assert any(want_forbidden) == (blockade == "infinite")
    assert not np.any(diag[forbidden])
    np.testing.assert_allclose(diag, want_diag, rtol=1e-12, atol=1e-9 * OMEGA)


# ------------------------------------------------------------ dense oracle

@st.composite
def _gates(draw, max_k):
    """k <= max_k with random symmetric shifts (some infinite), per-atom
    decay (some zero), and 1..n-atom pulses on every transition at random
    phase and length: g1-r on controls and multi-atom g0-s included."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = k + 1
    v = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            shift = draw(st.one_of(st.just(math.inf), st.floats(-5.0, 5.0)))
            v[a, b] = v[b, a] = shift * OMEGA
    rate = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
    decay = np.array([draw(rate) * OMEGA for _ in range(n)])
    pulse = st.builds(
        PulseStep,
        transition=st.sampled_from(["g0-r", "g1-r", "g0-s"]),
        rabi=st.floats(0.5, 3.0).map(lambda x: x * OMEGA),
        atoms=st.lists(st.integers(0, k), min_size=1, max_size=n, unique=True).map(
            tuple
        ),
        phase=st.floats(0.0, 2.0 * math.pi),
        duration=st.floats(0.1, 3.0).map(lambda x: x * math.pi / OMEGA),
    )
    steps = draw(st.lists(pulse, min_size=1, max_size=5))
    return k, v, decay, steps


@st.composite
def _pulse_instances(draw):
    """A k <= 3 gate and a random start state over the whole basis."""
    k, v, decay, steps = draw(_gates(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.normal(size=3 ** (k + 1)) + 1j * rng.normal(size=3 ** (k + 1))
    return k, v, decay, steps, start / np.linalg.norm(start)


@given(_pulse_instances())
def test_block_propagator_matches_dense_oracle(instance):
    k, v, decay, steps, start = instance
    n = k + 1
    u = np.eye(3**n, dtype=complex)
    for step in steps:
        h = dense_hamiltonian(n, step, v, decay)
        u = expm(-1j * step.effective_duration * h) @ u

    state = SimState(amplitudes=start)
    for step in steps:
        state = evolve(state, step, v, decay_rates=decay)
    expected = u @ start
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0.0, atol=1e-10)
    deficit = 1.0 - np.vdot(expected, expected).real
    assert state.norm_deficit == pytest.approx(deficit, abs=1e-10)

    res = gate_error_sim(steps, k, v, decay_rates=decay)
    inputs = 2**n
    comp = [int(format(m, f"0{n}b"), 3) for m in range(inputs)]
    outputs = u[np.ix_(comp, comp)]
    np.testing.assert_allclose(
        res.truth_table, np.abs(outputs.T) ** 2, rtol=0.0, atol=1e-10
    )
    ideal, phases = ideal_map(k)
    overlap = np.conj(phases)[:, None] * outputs[ideal, :]
    f_avg = (np.sum(np.abs(overlap) ** 2) + abs(np.trace(overlap)) ** 2) / (
        inputs * (inputs + 1)
    )
    assert res.avg_error == pytest.approx(1.0 - f_avg, abs=1e-10)


@settings(max_examples=150)
@given(_gates(4), st.sampled_from(["cnot", "grover", "identity"]))
def test_truth_table_matches_full_basis_oracle(gate, ideal):
    # the reachable basis holds each input's closure under the sequence, so
    # it must give the full basis's tables to rounding, whatever drives what
    k, v, decay, steps = gate
    res = gate_error_sim(steps, k, v, decay_rates=decay, ideal=ideal)
    want = gate_error_sim_full_basis(steps, k, v, decay_rates=decay, ideal=ideal)
    np.testing.assert_allclose(res.truth_table, want.truth_table, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        res.errors_by_input, want.errors_by_input, rtol=0.0, atol=1e-12
    )
    assert res.avg_error == pytest.approx(want.avg_error, rel=0.0, abs=1e-12)
    np.testing.assert_array_equal(res.ideal_outputs, want.ideal_outputs)
