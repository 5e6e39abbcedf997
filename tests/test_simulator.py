"""State-vector simulator tests.

The simulator is the independent oracle for the closed-form budgets, so
its own tests avoid the budget formulas wherever possible: truth tables
are checked against hand permutations, leakage against the two-level
detuned-drive solution, and decay against first-order exposure times.
The block propagator is checked against a dense full-space oracle, and
the reachable-basis truth table against the full-basis one, on sequences
that repeat pulses at new phases; a pulse's phase is checked as a frame
change on its phase-0 blocks.  The reachable basis takes single-atom
pulses only; the tests' pattern blocks give it a collective pulse, the
reference the class basis is checked against.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from rydgate import (
    PulseStep,
    SimState,
    budget_grover_uniform,
    budget_sequential_uniform,
    budget_simultaneous_uniform,
    canonical_sequence,
    computational_state,
    evolve,
    gate_error_sim,
    ideal_map,
    sequence_duration,
    simultaneous_interactions,
    uniform_interactions,
)
from rydgate import simulator
from rydgate.schemas import SCHEMES
from rydgate.simulator import (
    _apply_pulse,
    _basis,
    _class_blocks,
    _expm,
    _pulse_blocks,
    _reach_keys,
    class_amplitudes,
)
from rydgate.units import angular_from_mhz

from oracles import basis_diagonal, dense_hamiltonian, gate_error_sim_full_basis, pattern_blocks

OMEGA = 2.0 * math.pi * 1.0e6
W10 = angular_from_mhz(9200.0)
MULTI_ATOM_REFUSAL = (
    "^a pulse on several atoms runs only in the class basis: every pulse on the target alone "
    "or on all controls from one ground level, one control-target shift, one control-control "
    "shift and one control decay rate$")


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

@pytest.mark.parametrize("k", range(1, 9))
def test_decay_only_error_matches_budget_exposure(k):
    # with perfect blockade and gamma = 1/tau, the first-order error is
    # the decay part of the closed-form budget; both metrics agree, up to
    # the table cap, for the ladder with a target and for grover's
    tau = 5.0e-3
    v = uniform_interactions(k, math.inf)
    for scheme, builder, terms in (("sequential", budget_sequential_uniform, ("se_c_1", "se_t_1")),
                                   ("grover", budget_grover_uniform, ("se_c_1", "se_c_2"))):
        seq = canonical_sequence(scheme, k, omega=OMEGA)
        res = gate_error_sim(seq, k, v, decay_rates=1.0 / tau,
                             ideal="grover" if scheme == "grover" else "cnot")
        bud = builder(k, math.inf, tau, W10).at(OMEGA)
        decay_budget = sum(bud[term] for term in terms)
        assert float(np.mean(res.errors_by_input)) == pytest.approx(
            decay_budget, rel=1e-3, abs=0.0), scheme
        assert res.avg_error == pytest.approx(decay_budget, rel=1e-3, abs=0.0), scheme


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
    # the pulse counts 2k + 3, 2k and 2 + 3 live in the pulse lists and in
    # the budgets' pulse_time: the two gate durations agree
    builders = {"sequential": budget_sequential_uniform, "grover": budget_grover_uniform,
                "simultaneous": budget_simultaneous_uniform}
    for scheme, builder in builders.items():
        row = SCHEMES[scheme]
        omegas = (3.7 * OMEGA, 1.3 * OMEGA)[: len(row.frequencies)]
        drives = {key.removesuffix("_mhz"): om for key, om in zip(row.frequencies, omegas)}
        for k in range(1, 9):
            budget = builder(k, *[50.0 * OMEGA] * len(row.shifts),
                             *[1.0e-3] * len(row.lifetimes), W10)
            assert sequence_duration(canonical_sequence(scheme, k, **drives)) == pytest.approx(
                budget.duration(*omegas), rel=1e-14, abs=0.0), (scheme, k)


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
    with pytest.raises(ValueError, match="atom indices must be >= 0"):
        PulseStep("g0-r", OMEGA, atoms=(-1,))
    for duration in (0.0, -1.0e-7):
        with pytest.raises(ValueError, match="duration must be positive"):
            PulseStep("g0-r", OMEGA, atoms=(0,), duration=duration)
    step = PulseStep("g0-r", OMEGA, atoms=(0,), duration=1.0e-7)
    assert step.effective_duration == 1.0e-7
    assert PulseStep("g0-r", OMEGA, atoms=(0,)).effective_duration == pytest.approx(
        math.pi / OMEGA
    )


def test_table_cap_enforced():
    seq = canonical_sequence("sequential", 9, omega=OMEGA)
    with pytest.raises(ValueError, match="capped at k = 8"):
        gate_error_sim(seq, 9, uniform_interactions(9, math.inf))
    # below one control there is no gate: at k = 0 a lone atom would be
    # checked against a bare NOT
    pulse = PulseStep("g0-r", OMEGA, atoms=(0,))
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            gate_error_sim([pulse], k, np.zeros((k + 1, k + 1)))


# (call, its arguments, refusal) for each input check of the simulator's
# public entry points
BLOCKED_PAIR = uniform_interactions(1, math.inf)
UNEQUAL_CC = simultaneous_interactions(3, math.inf, 0.0)
UNEQUAL_CC[0, 1] = UNEQUAL_CC[1, 0] = 0.5 * OMEGA
SIM_REFUSALS = {
    "state-index-past-last": (computational_state, (1, 4), "index out of range"),
    "state-index-negative": (computational_state, (1, -1), "index out of range"),
    "interactions-shape": (gate_error_sim, ((), 1, np.zeros((3, 3))),
                           r"interactions must be \(2, 2\)"),
    "interactions-asymmetric": (gate_error_sim, ((), 1, np.array([[0.0, 1.0], [2.0, 0.0]])),
                                "must be symmetric"),
    "interactions-diagonal": (gate_error_sim, ((), 1, np.array([[1.0, 0.0], [0.0, 0.0]])),
                              "diagonal must be zero"),
    "decay-length": (gate_error_sim, ((), 1, BLOCKED_PAIR, [0.0, 0.0, 0.0]),
                     "decay_rates must be scalar or length 2"),
    "decay-negative": (gate_error_sim, ((), 1, BLOCKED_PAIR, [0.0, -1.0]),
                       "decay rates must be >= 0"),
    "pulse-atom-past-last": (gate_error_sim, ([PulseStep("g0-r", OMEGA, atoms=(2,))], 1,
                                              BLOCKED_PAIR), "drives atom 2 but only 2 exist"),
    # a pulse on several atoms off the class basis: the simultaneous gate
    # with one unequal control-control shift, and any such pulse in evolve
    "table-multi-atom-asymmetric": (gate_error_sim, (canonical_sequence(
        "simultaneous", 3, omega_c=5.0 * OMEGA, omega_t=OMEGA), 3, UNEQUAL_CC),
        MULTI_ATOM_REFUSAL),
    "evolve-multi-atom": (evolve, (computational_state(1, 0),
                                   PulseStep("g0-r", OMEGA, atoms=(0, 1)), BLOCKED_PAIR),
                          MULTI_ATOM_REFUSAL),
    "sequence-k-below-1": (canonical_sequence, ("sequential", 0, OMEGA), "^k must be >= 1$"),
    "sequence-omega-missing": (canonical_sequence, ("grover", 2), "grover sequence requires"),
    "sequence-omega-t-missing": (canonical_sequence, ("simultaneous", 2, None, OMEGA),
                                 "requires omega_c and omega_t"),
    "sequence-unknown-scheme": (canonical_sequence, ("parallel", 2, OMEGA),
                                "unknown scheme 'parallel'"),
    "class-k-past-64": (class_amplitudes, ((), 65, math.inf, 0.0),
                        "exceeds the supported maximum of 64"),
    "class-k-below-1": (class_amplitudes, ((), 0, math.inf, 0.0), "^k must be >= 1$"),
    "class-sequence-asymmetric": (class_amplitudes,
                                  ([PulseStep("g0-r", OMEGA, atoms=(0,))], 2, math.inf, 0.0),
                                  "or all controls at once"),
}


@pytest.mark.parametrize("case", SIM_REFUSALS)
def test_simulator_input_refused(case):
    call, args, refusal = SIM_REFUSALS[case]
    with pytest.raises(ValueError, match=refusal):
        call(*args)


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


def _two_level_blocks(a, b, rabi, time, blocked):
    """The closed-form propagators ``_pulse_blocks`` gives a g0-r pulse on
    one atom over row pairs (g0, r) of diagonals ``a`` and ``b``, a pair
    ``blocked`` as by an infinite shift, and _expm of the same 2 x 2
    stack, each block alone."""
    pairs = len(a)
    keys = 3 * np.repeat(np.arange(pairs), 2) + np.tile([0, 2], pairs)
    diag = np.column_stack([a, b]).ravel()
    forbidden = np.column_stack([np.zeros(pairs, dtype=bool), blocked]).ravel()
    step = PulseStep("g0-r", rabi, atoms=(0,), duration=time)
    (idle, *_), (lower, upper, (u00, u01, u11), _) = _pulse_blocks(
        step, (keys, (keys % 3)[:, None], diag, forbidden))
    assert idle.size == 0
    np.testing.assert_array_equal(np.column_stack([lower, upper]).ravel(), np.arange(2 * pairs))
    c = np.where(blocked, 0.0, 0.5 * rabi)
    h = np.stack([[a, c], [c, b]]).transpose(2, 0, 1)
    want = np.concatenate([_expm(-1j * time * block[None]) for block in h])
    return np.stack([[u00, u01], [u01, u11]]).transpose(2, 0, 1), want


@st.composite
def _two_level_stacks(draw):
    """Row pairs of one pulse: diagonals with shifts up to 1e3 Omega either
    way and decay, so non-Hermitian, some pairs blocked."""
    pairs = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0)) * OMEGA
    decay = draw(st.floats(0.0, 1.0)) * scale
    a, b = (scale * rng.normal(size=pairs) - 1j * decay * np.abs(rng.normal(size=pairs))
            for _ in range(2))
    rabi = draw(st.floats(0.5, 3.0)) * OMEGA
    time = draw(st.floats(0.1, 3.0)) * math.pi / rabi
    return a, b, rabi, time, rng.random(pairs) < 0.3


@given(_two_level_stacks())
def test_two_level_blocks_match_pade(stack):
    got, want = _two_level_blocks(*stack)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", ["blocked", "equal", "exceptional+", "exceptional-",
                                  "far-detuned", "damped"])
def test_two_level_blocks_match_pade_at_the_edges(case):
    # a pair held by an infinite shift (c = 0); equal diagonals (d = 0);
    # the exceptional point d = +-ic, where s = 0 and H is not
    # diagonalizable; B / Omega = 1e3 with decay; and a decay of 2e3 Omega,
    # where cos(s t) alone would overflow
    gamma = np.array([0.0, 0.2, 2.0]) * OMEGA
    a = np.array([0.3, -1.7, 5.0]) * OMEGA - 0.5j * gamma
    b = {"blocked": a - 0.4 * OMEGA, "equal": a, "exceptional+": a - 1j * OMEGA,
         "exceptional-": a + 1j * OMEGA, "far-detuned": a + 1.0e3 * OMEGA - 0.1j * OMEGA,
         "damped": a - 1.0e3j * OMEGA}[case]
    got, want = _two_level_blocks(a, b, OMEGA, math.pi / OMEGA, np.full(3, case == "blocked"))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


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
    diag, forbidden = _basis(keys, n, v, decay)[2:]
    want_diag, want_forbidden = basis_diagonal(keys, n, v, decay)
    assert forbidden.tolist() == want_forbidden
    assert any(want_forbidden) == (blockade == "infinite")
    assert not np.any(diag[forbidden])
    np.testing.assert_allclose(diag, want_diag, rtol=1e-12, atol=1e-9 * OMEGA)


# ------------------------------------------------------------ dense oracle

def _pulses(transitions, atoms):
    """Pulses of the given transitions and atoms at random Rabi frequency,
    phase and length."""
    return st.builds(
        PulseStep,
        transition=transitions,
        rabi=st.floats(0.5, 3.0).map(lambda x: x * OMEGA),
        atoms=atoms,
        phase=st.floats(0.0, 2.0 * math.pi),
        duration=st.floats(0.1, 3.0).map(lambda x: x * math.pi / OMEGA),
    )


@st.composite
def _gates(draw, max_k, symmetric=False):
    """k <= max_k with random symmetric shifts (some infinite), per-atom
    decay (some zero), and 1..n-atom pulses on every transition at random
    phase and length: g1-r on controls and multi-atom g0-s included.

    ``symmetric`` draws a gate symmetric under permutations of its controls
    instead: one control-target and one control-control shift (some zero or
    infinite), one decay rate for the controls and one for the target, and
    each pulse on the target alone or on all controls, listed in any order,
    from one ground level."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = k + 1
    transitions = st.sampled_from(["g0-r", "g1-r", "g0-s"])
    rate = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
    if symmetric:
        shift = st.one_of(st.just(math.inf), st.just(0.0), st.floats(-5.0, 5.0))
        v = simultaneous_interactions(k, draw(shift) * OMEGA, draw(shift) * OMEGA)
        decay = np.array([draw(rate)] * k + [draw(rate)]) * OMEGA
        controls = draw(st.sampled_from([["g0-r", "g0-s"], ["g1-r"]]))
        pulse = st.one_of(_pulses(transitions, st.just((k,))),
                          _pulses(st.sampled_from(controls),
                                  st.permutations(range(k)).map(tuple)))
    else:
        v = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                shift = draw(st.one_of(st.just(math.inf), st.floats(-5.0, 5.0)))
                v[a, b] = v[b, a] = shift * OMEGA
        decay = np.array([draw(rate) * OMEGA for _ in range(n)])
        pulse = _pulses(transitions, st.lists(st.integers(0, k), min_size=1, max_size=n,
                                              unique=True).map(tuple))
    steps = draw(st.lists(pulse, min_size=1, max_size=5))
    phase = st.one_of(st.just(math.pi), st.floats(0.0, 2.0 * math.pi))
    repeats = draw(st.lists(st.tuples(st.sampled_from(steps), phase), max_size=3))
    steps += [dataclasses.replace(step, phase=phi) for step, phi in repeats]
    return k, v, decay, draw(st.permutations(steps))


@st.composite
def _pulse_instances(draw):
    """A k <= 3 gate and a random start state over the whole basis."""
    k, v, decay, steps = draw(_gates(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.normal(size=3 ** (k + 1)) + 1j * rng.normal(size=3 ** (k + 1))
    return k, v, decay, steps, start / np.linalg.norm(start)


@given(_pulse_instances())
def test_block_propagator_matches_dense_oracle(instance):
    # a pulse on several atoms runs only in the class basis, so evolve
    # refuses it; the draw's single-atom pulses are checked against the
    # dense propagator
    k, v, decay, steps, start = instance
    n = k + 1
    for step in steps:
        if len(step.atoms) > 1:
            with pytest.raises(ValueError, match=MULTI_ATOM_REFUSAL):
                evolve(SimState(amplitudes=start), step, v, decay_rates=decay)
    steps = [step for step in steps if len(step.atoms) == 1]
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


@pytest.mark.parametrize("phase", [math.pi, 0.3])
def test_phase_is_a_diagonal_frame_change(phase):
    # a pulse at phase phi, applied from its phase-0 blocks, is the
    # propagator of its own Hamiltonian at phi, with decay and finite
    # shifts: a multi-atom pulse's blocks through P u(0) P^dag, P =
    # diag(exp(i phi n)) over the driven atoms n each row excites, and a
    # single-atom pulse's row pairs through the phase their in-place
    # update carries.  The reachable basis refuses the multi-atom pulse,
    # so its blocks come from the tests' pattern builder
    n = 3
    v = np.array([[0.0, 2.0, -1.5], [2.0, 0.0, 0.7], [-1.5, 0.7, 0.0]]) * OMEGA
    decay = np.array([0.1, 0.2, 0.05]) * OMEGA
    basis = _basis(np.arange(3**n), n, v, decay)
    for atoms in ((2, 0, 1), (1,)):
        step = PulseStep("g0-r", 1.3 * OMEGA, atoms=atoms, phase=phase, duration=2.0 / OMEGA)
        blocks = pattern_blocks(step, basis)
        got = np.column_stack([_apply_pulse(column, phase, blocks)
                               for column in np.eye(3**n, dtype=complex)])
        want = expm(-1j * step.effective_duration * dense_hamiltonian(n, step, v, decay))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=str(atoms))
        # all driven atoms lifted from the ground level make the largest
        # block; a single-atom pulse has its row pairs alone
        sizes = [u.shape[-1] for *_, u, excitations in blocks if excitations is not None]
        assert max(sizes, default=2) == 2 ** len(atoms)


@pytest.mark.parametrize("sequence, builds", [("sequential", 5), ("grover", 3),
                                              ("simultaneous", 3), ("simultaneous-unequal", 3)])
def test_each_distinct_pulse_is_exponentiated_once(monkeypatch, sequence, builds):
    # at k = 3 the sequential gate's 9 pulses are 5 distinct ones, grover's
    # 6 are 3 and the simultaneous gate's 5 are 3, its collective pulse
    # coming back at phase pi.  Single-atom pulses are solved in closed
    # form, with no Pade batch.  The simultaneous gate is symmetric under
    # control permutations, so its collective pulse is one Pade batch of
    # 2 (k + 1) chains in the class basis; with one unequal control-control
    # shift it takes the reachable basis, which refuses that pulse, the
    # first it builds
    pulses, batches = [], []

    def built(build):
        def record(step, *args):
            pulses.append((build.__name__, step))
            return build(step, *args)
        return record

    def counted(a):
        batches.append(len(a))
        return _expm(a)

    monkeypatch.setattr(simulator, "_pulse_blocks", built(_pulse_blocks))
    monkeypatch.setattr(simulator, "_class_blocks", built(_class_blocks))
    monkeypatch.setattr(simulator, "_expm", counted)
    scheme = sequence.removesuffix("-unequal")
    seq = canonical_sequence(scheme, 3, omega=OMEGA, omega_c=5.0 * OMEGA, omega_t=OMEGA)
    gate = "grover" if scheme == "grover" else "cnot"
    v = simultaneous_interactions(3, math.inf, 0.0 if scheme == "simultaneous" else math.inf)
    if sequence == "simultaneous-unequal":
        v[0, 1] = v[1, 0] = 0.5 * OMEGA
        with pytest.raises(ValueError, match=MULTI_ATOM_REFUSAL):
            gate_error_sim(seq, 3, v, ideal=gate)
        assert pulses == [("_pulse_blocks", seq[0])] and not batches
        return
    res = gate_error_sim(seq, 3, v, ideal=gate)
    assert len(pulses) == builds
    basis = "_class_blocks" if sequence == "simultaneous" else "_pulse_blocks"
    assert {name for name, _ in pulses} == {basis}
    assert batches == ([8] if sequence == "simultaneous" else [])
    assert res.avg_error == pytest.approx(0.0, abs=1e-12)


def _assert_same_table(res, want):
    np.testing.assert_allclose(res.truth_table, want.truth_table, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        res.errors_by_input, want.errors_by_input, rtol=0.0, atol=1e-12
    )
    assert res.avg_error == pytest.approx(want.avg_error, rel=0.0, abs=1e-12)
    np.testing.assert_array_equal(res.ideal_outputs, want.ideal_outputs)


@settings(max_examples=150)
@given(st.one_of(_gates(4), _gates(4, symmetric=True)),
       st.sampled_from(["cnot", "grover", "identity"]))
def test_truth_table_matches_full_basis_oracle(gate, ideal):
    # the reachable basis holds each input's closure under the sequence, and
    # the class basis each symmetric input's Dicke chains, so both must give
    # the full basis's tables to rounding, whatever drives what
    k, v, decay, steps = gate
    want = gate_error_sim_full_basis(steps, k, v, decay_rates=decay, ideal=ideal)
    if (any(len(step.atoms) > 1 for step in steps)
            and simulator._symmetric_form(steps, k, v, decay) is None):
        # a pulse on several atoms runs only in the class basis; the tests'
        # pattern blocks, the class basis's reference, run it over the
        # reachable basis
        with pytest.raises(ValueError, match=MULTI_ATOM_REFUSAL):
            gate_error_sim(steps, k, v, decay_rates=decay, ideal=ideal)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_pulse_blocks", pattern_blocks)
            _assert_same_table(gate_error_sim(steps, k, v, decay_rates=decay, ideal=ideal), want)
        return
    _assert_same_table(gate_error_sim(steps, k, v, decay_rates=decay, ideal=ideal), want)


# (control-target shift, control-control shift, decay rate) in units of
# Omega; a decay list gives the controls' rate, then the target's
CLASS_CASES = {
    "finite": (20.0, 0.3, 0.0),
    "finite-lossy": (20.0, 0.3, 0.01),
    "blocked": (math.inf, 0.0, 0.0),
    "blocked-lossy": (math.inf, 0.0, 0.01),
    "cc-blocked-lossy": (8.0, math.inf, [0.01, 0.03]),
    "ct-zero-lossy": (0.0, 2.0, 0.01),
}


@pytest.mark.parametrize("case", CLASS_CASES)
@pytest.mark.parametrize("k", range(1, 9))
def test_class_basis_matches_reachable_basis(monkeypatch, k, case):
    # the simultaneous gate is symmetric under control permutations, so its
    # table runs in the class basis; forced over the reachable basis, with
    # its collective pulse built by the tests' pattern blocks, it must come
    # out the same
    b_ct, d_cc, rate = CLASS_CASES[case]
    decay = np.repeat(rate, [k, 1]) if isinstance(rate, list) else rate
    seq = canonical_sequence("simultaneous", k, omega_c=5.0 * OMEGA, omega_t=OMEGA)
    v = simultaneous_interactions(k, b_ct * OMEGA, d_cc * OMEGA)
    res = gate_error_sim(seq, k, v, decay_rates=np.multiply(decay, OMEGA))
    monkeypatch.setattr(simulator, "_symmetric_form", lambda *args: None)
    monkeypatch.setattr(simulator, "_pulse_blocks", pattern_blocks)
    _assert_same_table(res, gate_error_sim(seq, k, v, decay_rates=np.multiply(decay, OMEGA)))


@pytest.mark.parametrize("case", ["symmetric", "unequal-cc-shift", "own-control-decay",
                                  "control-subset", "both-ground-levels"])
def test_one_step_from_symmetry_takes_the_reachable_basis(monkeypatch, case):
    # a lossy simultaneous gate at k = 3 runs in the class basis; one
    # unequal control-control shift, one control with its own decay rate, a
    # pulse on a strict subset of the controls, or controls driven from both
    # ground levels sends it over the reachable basis, which refuses its
    # pulses on several atoms
    k = 3
    seq = list(canonical_sequence("simultaneous", k, omega_c=5.0 * OMEGA, omega_t=OMEGA))
    v = simultaneous_interactions(k, 20.0 * OMEGA, 0.3 * OMEGA)
    decay = np.full(k + 1, 0.01 * OMEGA)
    if case == "unequal-cc-shift":
        v[0, 2] = v[2, 0] = 0.5 * OMEGA
    elif case == "own-control-decay":
        decay[1] = 0.05 * OMEGA
    elif case == "control-subset":
        seq[0] = dataclasses.replace(seq[0], atoms=(0, 1))
    elif case == "both-ground-levels":
        seq[-1] = dataclasses.replace(seq[-1], transition="g1-r")
    paths = []
    for name in ("class_amplitudes", "_reach_outputs"):
        run = getattr(simulator, name)
        monkeypatch.setattr(simulator, name,
                            lambda *args, name=name, run=run: paths.append(name) or run(*args))
    if case != "symmetric":
        with pytest.raises(ValueError, match=MULTI_ATOM_REFUSAL):
            gate_error_sim(seq, k, v, decay_rates=decay)
        assert paths == ["_reach_outputs"]
        return
    res = gate_error_sim(seq, k, v, decay_rates=decay)
    assert paths == ["class_amplitudes"]
    _assert_same_table(res, gate_error_sim_full_basis(seq, k, v, decay_rates=decay))


def test_class_amplitudes_reach_k64_in_the_ideal_limit():
    # the class basis holds 6 (k + 1)^2 rows, so it runs at the budgets'
    # largest k, where no truth table can: with perfect control-target
    # blockade, no control-control shift and no decay, every control
    # configuration but all ones keeps the target, and all ones flips it
    # with the -1 of the pulse sequence
    k = 64
    seq = canonical_sequence("simultaneous", k, omega_c=5.0 * OMEGA, omega_t=OMEGA)
    want = np.zeros((k + 1, 2, 2))
    want[:k] = np.eye(2)
    want[k] = -np.eye(2)[::-1]
    np.testing.assert_allclose(class_amplitudes(seq, k, math.inf, 0.0), want,
                               rtol=0.0, atol=1e-12)
