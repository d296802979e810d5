"""Geometry tests: every counting claim is cross-checked against a brute
force enumeration written independently of the library code."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermibose import lattice as lat


# ---------------------------------------------------------------- oracles


def ball_count_oracle(d, radius_sq):
    """Count |n|^2 <= radius_sq by scanning the enclosing cube."""
    if radius_sq < 0:
        return 0
    reach = int(math.floor(math.sqrt(radius_sq))) + 1
    count = 0
    for p in itertools.product(range(-reach, reach + 1), repeat=d):
        if sum(c * c for c in p) <= radius_sq:
            count += 1
    return count


def crescent_oracle(d, radius_sq, k):
    """Direct enumeration of {p : |p|<=kf, |p+k|>kf} as a set."""
    out = set()
    reach = int(math.floor(math.sqrt(radius_sq))) + 1
    for p in itertools.product(range(-reach, reach + 1), repeat=d):
        if sum(c * c for c in p) <= radius_sq:
            q = tuple(a + b for a, b in zip(p, k))
            if sum(c * c for c in q) > radius_sq:
                out.add(p)
    return out


# Closed-ball counts at every occupied radius, from the oracle above and
# double-checked against OEIS-style hand counts for the smallest shells.
MAGIC_D2 = [(0, 1), (1, 5), (2, 9), (4, 13), (5, 21), (8, 25), (9, 29), (10, 37), (13, 45), (16, 49)]
MAGIC_D3 = [(0, 1), (1, 7), (2, 19), (3, 27), (4, 33), (5, 57)]


# ----------------------------------------------------------------- tests


def test_ball_points_match_oracle():
    for d in (2, 3):
        for r in range(0, 20):
            pts = lat.ball_points(d, r)
            assert len(pts) == ball_count_oracle(d, r)
            assert len(set(pts)) == len(pts)
            assert all(lat.norm_sq(p) <= r for p in pts)


def test_ball_points_mode_order():
    pts = lat.ball_points(2, 1)
    assert pts == ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0))
    for d in (2, 3):
        pts = lat.ball_points(d, 9)
        keys = [lat.mode_key(p) for p in pts]
        assert keys == sorted(keys)


def test_magic_numbers_frozen():
    assert lat.magic_numbers(2, 16) == MAGIC_D2
    assert lat.magic_numbers(3, 5) == MAGIC_D3


def test_magic_numbers_match_oracle():
    for d in (2, 3):
        table = lat.magic_numbers(d, 30 if d == 2 else 12)
        for r, n in table:
            assert n == ball_count_oracle(d, r)
        counts = [n for _, n in table]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)


@pytest.mark.parametrize("d, rmax", [(2, 60), (3, 40)], ids=["d2", "d3"])
def test_occupied_radii_match_brute_force(d, rmax):
    reach = math.isqrt(rmax) + 1
    occupied = {
        sum(c * c for c in p)
        for p in itertools.product(range(-reach, reach + 1), repeat=d)
    }
    occupied = {r for r in occupied if r <= rmax}
    for r in range(-2, rmax + 1):
        assert lat.is_occupied_radius(d, r) == (r in occupied)
    assert [r for r, _ in lat.magic_numbers(d, rmax)] == sorted(occupied)
    assert lat.magic_numbers(d, -1) == []
    assert lat.magic_numbers(d, 0) == [(0, 1)]


def test_gas_config_validation():
    with pytest.raises(ValueError):
        lat.GasConfig(d=1, fermi_radius_sq=1)
    with pytest.raises(ValueError):
        lat.GasConfig(d=2, fermi_radius_sq=3)  # 3 is not a sum of two squares
    with pytest.raises(ValueError):
        lat.GasConfig(d=2, fermi_radius_sq=-1)
    cfg = lat.GasConfig(d=2, fermi_radius_sq=4, alpha=-1.0)
    assert cfg.fermi_momentum == pytest.approx(2 * lat.TWO_PI)


def test_from_particle_count_roundtrip():
    for d in (2, 3):
        for r, n in lat.magic_numbers(d, 25):
            cfg = lat.GasConfig.from_particle_count(d, n)
            assert cfg.fermi_radius_sq == r
            assert lat.particle_count(cfg) == n
    for bad in (2, 3, 4, 6, 7, 8, 10, 12, 20):
        with pytest.raises(ValueError):
            lat.GasConfig.from_particle_count(2, bad)


def test_crescent_frozen_example():
    cfg = lat.GasConfig(d=2, fermi_radius_sq=1)
    assert lat.crescent((1, 0), cfg) == ((0, -1), (0, 1), (1, 0))


def test_crescent_matches_oracle():
    for d, rmax, kmax in ((2, 18, 9), (3, 6, 4)):
        for r, _ in lat.magic_numbers(d, rmax):
            cfg = lat.GasConfig(d=d, fermi_radius_sq=r)
            for k in lat.ball_points(d, kmax):
                want = sorted(crescent_oracle(d, r, k), key=lat.mode_key)
                assert lat.crescent(k, cfg) == tuple(want)


def test_crescent_zero_shift_empty():
    cfg = lat.GasConfig(d=3, fermi_radius_sq=2)
    assert len(lat.crescent((0, 0, 0), cfg)) == 0
    with pytest.raises(ValueError):
        lat.crescent_ratio((0, 0, 0), cfg)


def _signed_permutations(k):
    d = len(k)
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            yield tuple(signs[i] * k[perm[i]] for i in range(d))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda k: k != (0, 0)),
    st.sampled_from([r for r, _ in MAGIC_D2 if r > 0]),
)
def test_crescent_lattice_symmetry(k, r):
    cfg = lat.GasConfig(d=2, fermi_radius_sq=r)
    size = len(lat.crescent(k, cfg))
    for g in _signed_permutations(k):
        assert len(lat.crescent(g, cfg)) == size


def test_crescent_union_covers_iff_long_shift():
    for r, _ in lat.magic_numbers(2, 16):
        if r == 0:
            continue
        cfg = lat.GasConfig(d=2, fermi_radius_sq=r)
        for k in lat.ball_points(2, 4 * r + 8):
            if lat.norm_sq(k) == 0:
                continue
            assert lat.covers_ball_with_opposite(k, cfg) == (lat.norm_sq(k) > r)


def test_crescent_saturates_beyond_diameter():
    cfg = lat.GasConfig(d=2, fermi_radius_sq=4)
    # |k| > 2 k_F moves every ball point outside
    assert len(lat.crescent((5, 0), cfg)) == lat.particle_count(cfg)


def test_kinetic_ground_sum():
    for d, r in ((2, 1), (2, 5), (3, 1), (3, 3)):
        cfg = lat.GasConfig(d=d, fermi_radius_sq=r)
        oracle = lat.TWO_PI_SQ * sum(
            lat.norm_sq(p) for p in lat.ball_points(d, r)
        )
        assert lat.kinetic_ground_sum(cfg) == pytest.approx(oracle, rel=1e-15)
    assert lat.kinetic_ground_sum(
        lat.GasConfig(d=3, fermi_radius_sq=1)
    ) == pytest.approx(6 * lat.TWO_PI_SQ)


def test_audit_crescent_bounds_sweep():
    radii = [r for r, _ in lat.magic_numbers(2, 50) if r > 0]
    audit = lat.audit_crescent_bounds(2, radii, kmax_sq=36)
    assert audit.passed
    assert audit.failures == []
    assert 0.0 < audit.ratio_low <= audit.ratio_high
    assert len(audit.rows) == len(radii) * (len(lat.ball_points(2, 36)) - 1)
    # the fitted window must hold on every row by construction
    for _, _, _, _, ratio in audit.rows:
        assert audit.ratio_low <= ratio <= audit.ratio_high


def test_mode_key_total_order():
    pts = lat.ball_points(3, 6)
    keys = {lat.mode_key(p) for p in pts}
    assert len(keys) == len(pts)
