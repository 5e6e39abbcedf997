"""Square-lattice layout and pair-set tests.

Frozen layouts below were derived by brute-force enumeration of lattice
shells sorted by (radius, angle); they pin the deterministic site order.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from rydgate import LatticeGeometry, build_layout, pair_sets
from rydgate.lattice import squared_separations

from oracles import pair_sets_loop

UM = 1.0e-6


def test_k4_is_the_four_nearest_neighbors_in_angle_order():
    geom = build_layout(UM, 4)
    assert geom.control_sites == ((1, 0), (0, 1), (-1, 0), (0, -1))
    assert geom.k == 4


def test_k8_adds_the_diagonals():
    geom = build_layout(UM, 8)
    assert geom.control_sites[:4] == ((1, 0), (0, 1), (-1, 0), (0, -1))
    assert set(geom.control_sites[4:]) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}


def test_k1_single_site_at_distance_d():
    geom = build_layout(2.0 * UM, 1)
    ps = pair_sets(geom)
    assert ps.control_target == (2.0 * UM,)
    assert ps.control_control_ordered == ()


def test_k35_shell_census():
    # complete shells through squared radius 9, then 7 of the 8 sites at
    # squared radius 10; the angle rule drops (3, -1), the largest angle
    geom = build_layout(UM, 35)
    shells = Counter(x * x + y * y for (x, y) in geom.control_sites)
    assert dict(shells) == {1: 4, 2: 4, 4: 4, 5: 8, 8: 4, 9: 4, 10: 7}
    assert (3, -1) not in geom.control_sites
    assert max(math.hypot(x, y) for (x, y) in geom.control_sites) == pytest.approx(
        math.sqrt(10.0)
    )


def test_k4_pair_separations_by_hand():
    ps = pair_sets(build_layout(UM, 4))
    assert [r / UM for r in ps.control_target] == pytest.approx([1.0] * 4)
    multiset = Counter(round(r / UM, 9) for _, _, r in ps.control_control_ordered)
    assert multiset == {round(math.sqrt(2.0), 9): 4, 2.0: 2}


def test_k2_has_exactly_one_control_pair():
    ps = pair_sets(build_layout(UM, 2))
    assert len(ps.control_control_ordered) == 1


@given(k=st.integers(min_value=1, max_value=40))
def test_pair_counts(k):
    ps = pair_sets(build_layout(UM, k))
    assert len(ps.control_target) == k
    assert len(ps.control_control_ordered) == k * (k - 1) // 2


@given(k=st.integers(min_value=1, max_value=40))
def test_layout_deterministic(k):
    assert build_layout(UM, k) == build_layout(UM, k)


@given(k=st.integers(min_value=2, max_value=40), d_um=st.floats(min_value=0.1, max_value=50.0))
def test_every_separation_is_sqrt_integer_multiple_of_d(k, d_um):
    d = d_um * UM
    ps = pair_sets(build_layout(d, k))
    for r in [*ps.control_target, *(sep for _, _, sep in ps.control_control_ordered)]:
        m = (r / d) ** 2
        assert m >= 1.0 - 1e-9
        assert abs(m - round(m)) < 1e-6


@given(k=st.integers(min_value=1, max_value=64), d_um=st.floats(min_value=0.1, max_value=50.0))
def test_squared_separations_follow_pair_sets(k, d_um):
    # the budgets read each pair's m from index arrays in pair_sets order,
    # and d sqrt(m) is that pair's separation
    geom = build_layout(d_um * UM, k)
    ps = pair_sets_loop(geom)
    ct, i, j, cc = squared_separations(geom)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a, b, _ in ps.control_control_ordered]
    separations = [*ps.control_target, *(sep for _, _, sep in ps.control_control_ordered)]
    for m, r in zip([*ct.tolist(), *cc.tolist()], separations, strict=True):
        assert geom.d * math.sqrt(m) == pytest.approx(r, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("d_um", [1.0, 2.5, 3.3, 4.0])
def test_pair_sets_match_pair_loop(d_um):
    # the view of squared_separations is the hypot loop, bit for bit
    for k in range(1, 65):
        geom = build_layout(d_um * UM, k)
        assert pair_sets(geom) == pair_sets_loop(geom), k


def test_each_layout_is_a_prefix_of_every_larger_one():
    # so a block of several k builds one layout, at its largest k
    sites = {k: build_layout(UM, k).control_sites for k in range(1, 65)}
    for big in range(1, 65):
        for k in range(1, big + 1):
            assert sites[k] == sites[big][:k], (k, big)


def test_minimum_separation_is_d():
    ps = pair_sets(build_layout(3.0 * UM, 20))
    smallest = min(*ps.control_target, *(sep for _, _, sep in ps.control_control_ordered))
    assert smallest == pytest.approx(3.0 * UM)


def test_ordered_pairs_use_excitation_order():
    ps = pair_sets(build_layout(UM, 5))
    for i, j, sep in ps.control_control_ordered:
        assert i < j
        assert sep > 0.0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_layout(0.0, 4)
    with pytest.raises(ValueError):
        build_layout(UM, 0)


@pytest.mark.parametrize("sites, refusal", [
    ((), "layout needs at least one control site"),
    (((1, 0), (0, 0)), "target site collides with a control site"),
])
def test_geometry_without_a_free_target_refused(sites, refusal):
    with pytest.raises(ValueError, match=refusal):
        LatticeGeometry(UM, sites)
