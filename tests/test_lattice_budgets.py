"""Lattice-averaged budgets against the per-pair loop oracles.

The production budgets build their frequency-free Laurent coefficients
once per geometry and evaluate them per frequency; the oracles in ``oracles.py``
rebuild the pair sets and sum pair by pair with the drive frequency inside
every summand.  Random layouts, interaction laws and drive frequencies
over several decades must give the same terms.
"""

import pytest
from hypothesis import given, strategies as st

from rydgate import (
    InteractionModel,
    LatticeGeometry,
    budget_sequential_lattice,
    budget_simultaneous_lattice,
    build_layout,
)
from rydgate.units import (
    angular_from_mhz,
    c3_si_from_mhz_um3,
    c6_si_from_mhz_um6,
    meters_from_um,
    seconds_from_us,
)

from oracles import sequential_lattice_loops, simultaneous_lattice_loops

W10 = angular_from_mhz(9200.0)

SITE = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda s: s != (0, 0))


@st.composite
def layouts(draw):
    """Up to 12 controls on distinct random sites around the target."""
    k = draw(st.integers(min_value=1, max_value=12))
    sites = draw(st.lists(SITE, min_size=k, max_size=k, unique=True))
    d = meters_from_um(draw(st.floats(min_value=0.5, max_value=10.0)))
    return LatticeGeometry(d=d, control_sites=tuple(sites))


@st.composite
def laws(draw):
    """A c3, c6 or continuous c3/c6 crossover law."""
    kind = draw(st.sampled_from(["c3", "c6", "crossover"]))
    c3 = c3_si_from_mhz_um3(draw(st.floats(min_value=1.0e2, max_value=1.0e4)))
    if kind == "c3":
        return InteractionModel(c3=c3)
    if kind == "c6":
        return InteractionModel(c6=c6_si_from_mhz_um6(draw(st.floats(1.0e3, 1.0e6))))
    rx = meters_from_um(draw(st.floats(min_value=1.0, max_value=10.0)))
    return InteractionModel(c3=c3, c6=c3 * rx**3, crossover_radius=rx)


# drive frequencies nu = Omega/2pi from 10 kHz to 10 GHz
OMEGAS = st.lists(st.floats(min_value=-2.0, max_value=4.0), min_size=1, max_size=4).map(
    lambda logs: [angular_from_mhz(10.0**x) for x in logs]
)


def assert_same_budget(got, want):
    """Same cells in the same order: terms, total, diagnostics."""
    assert tuple(got) == tuple(want)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


@given(geom=layouts(), model=laws(), omegas=OMEGAS, tau_us=st.floats(10.0, 1000.0))
def test_sequential_lattice_matches_pair_loop_oracle(geom, model, omegas, tau_us):
    tau = seconds_from_us(tau_us)
    budget = budget_sequential_lattice(model, geom, tau, W10)
    columns = budget.table(omegas)
    assert all(len(column) == len(omegas) for column in columns)
    for omega, point in zip(omegas, zip(*columns)):
        want = sequential_lattice_loops(model, geom, tau, W10, omega)
        assert_same_budget(budget.at(omega), want)
        # the terms in ``terms`` order, then the total
        assert len(point) == len(budget.terms) + 1
        for name, value in zip((*budget.terms, "total"), point):
            assert value == pytest.approx(want[name], rel=1e-12, abs=0.0), name


@given(
    geom=layouts(),
    model_ct=laws(),
    model_cc=laws(),
    omega_cs=OMEGAS,
    omega_ts=OMEGAS,
    tau_us=st.tuples(st.floats(10.0, 1000.0), st.floats(10.0, 1000.0)),
)
def test_simultaneous_lattice_matches_pair_loop_oracle(
    geom, model_ct, model_cc, omega_cs, omega_ts, tau_us
):
    tau_c, tau_t = (seconds_from_us(t) for t in tau_us)
    budget = budget_simultaneous_lattice(model_ct, model_cc, geom, tau_c, tau_t, W10)
    for omega_c, omega_t in zip(omega_cs, omega_ts):
        want = simultaneous_lattice_loops(
            model_ct, model_cc, geom, tau_c, tau_t, W10, omega_c, omega_t
        )
        assert_same_budget(budget.at(omega_c, omega_t), want)


@given(
    ks=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4),
    d_um=st.floats(min_value=0.5, max_value=10.0),
    model=laws(),
    omegas=OMEGAS,
    tau_us=st.floats(10.0, 1000.0),
)
def test_sequential_lattice_batch_matches_pair_loop_oracle(ks, d_um, model, omegas, tau_us):
    # nearest-site layouts up to k = 64 share each squared separation among
    # many pairs; a batch of them sums by separation, the oracle pair by pair
    tau = seconds_from_us(tau_us)
    geoms = [build_layout(meters_from_um(d_um), k) for k in ks]
    batch = budget_sequential_lattice(model, geoms, tau, W10)
    for omega in omegas:
        cells = batch.at(omega)
        for i, geom in enumerate(geoms):
            want = sequential_lattice_loops(model, geom, tau, W10, omega)
            assert_same_budget({name: column[i] for name, column in cells.items()}, want)
