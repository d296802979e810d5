"""Fock engine tests.

The anticommutation relations and the operator identities are checked on
random vectors; expected numbers for the small frozen examples were
derived by hand from the determinant expansions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermibose import boson as B
from fermibose import bridge as BR
from fermibose import fock as F
from fermibose import lattice as L
from fermibose.vector import frame

import oracles as O


def rvec(config, seed, n_dets=5, **kw):
    return O.random_fermion_vector(config, np.random.default_rng(seed), n_dets, **kw)


# ------------------------------------------------------------- primitives


MODES2 = L.ball_points(2, 8)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_car_anticommutators(data):
    occ = data.draw(st.sets(st.sampled_from(MODES2), min_size=0, max_size=6))
    det = F.determinant(occ)
    p = data.draw(st.sampled_from(MODES2))
    q = data.draw(st.sampled_from(MODES2))
    v = F.FermionVector.from_determinant(det)
    # {a_p, a_q} = 0
    x = O.apply_annihilator(p, O.apply_annihilator(q, v)) + O.apply_annihilator(
        q, O.apply_annihilator(p, v)
    )
    assert x.norm() == 0.0
    # {a_p^dag, a_q^dag} = 0
    x = O.apply_creator(p, O.apply_creator(q, v)) + O.apply_creator(
        q, O.apply_creator(p, v)
    )
    assert x.norm() == 0.0
    # {a_p, a_q^dag} = delta_pq
    x = O.apply_annihilator(p, O.apply_creator(q, v)) + O.apply_creator(
        q, O.apply_annihilator(p, v)
    )
    if p == q:
        assert (x - v).norm() == 0.0
    else:
        assert x.norm() == 0.0


POOLS = {d: L.ball_points(d, 8) for d in (2, 3)}


def _ref_moves(items, k, r=None):
    for det, tag in items:
        for p in det:
            t = L.sub(p, k)
            side = None if r is None else (L.norm_sq(p) <= r, L.norm_sq(t) <= r)
            hit = O.move(det, p, t)
            if hit is not None:
                yield tag, hit[0], hit[1], side


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_move_kernel_matches_move(data):
    pool = POOLS[data.draw(st.sampled_from(sorted(POOLS)))]
    dets = data.draw(
        st.lists(st.sets(st.sampled_from(pool), max_size=30), min_size=1, max_size=3)
    )
    items = [(F.determinant(occ), tag) for tag, occ in enumerate(dets)]
    k = data.draw(st.sampled_from(pool))
    r = data.draw(st.sampled_from([None, 1, 2, 4, 5]))
    got = list(F._moves(items, k, r))
    want = list(_ref_moves(items, k, r))
    assert got == want
    assert [type(sign) for _, sign, _, _ in got] == [int] * len(got)


def test_determinant_canonicalization():
    det = F.determinant([(1, 0), (0, 0), (0, -1)])
    assert det == ((0, 0), (0, -1), (1, 0))
    with pytest.raises(ValueError):
        F.determinant([(1, 0), (1, 0)])


def test_annihilate_create_signs():
    det = F.determinant([(0, 0), (0, 1), (1, 0)])
    s, out = O.annihilate(det, (0, 1))
    assert s == -1 and out == ((0, 0), (1, 0))
    s, out = O.create(out, (0, -1))
    assert s == -1 and out == ((0, 0), (0, -1), (1, 0))
    assert O.annihilate(det, (5, 5)) is None
    assert O.create(det, (0, 0)) is None


def test_vector_arithmetic(small2, rng):
    v = O.random_fermion_vector(small2, rng, 6)
    w = O.random_fermion_vector(small2, rng, 6)
    assert v.norm() == pytest.approx(1.0)
    assert (v + w - w - v).norm() < 1e-12
    assert abs((2.5 * v).norm() - 2.5) < 1e-12
    assert v.inner(w) == pytest.approx(w.inner(v).conjugate())
    z = F.FermionVector()
    assert z.norm() == 0.0 and z.particle_number() is None
    with pytest.raises(ValueError):
        z.normalized()


def test_pruning_drops_relative_noise():
    big = F.FermionVector.from_determinant([(0, 0)])
    tiny = F.FermionVector.from_determinant([(1, 0)], amp=1e-20)
    merged = big + tiny
    assert len(merged) == 1
    kept = big + F.FermionVector.from_determinant([(1, 0)], amp=1e-10)
    assert len(kept) == 2


# ------------------------------------------------- filled-ball annihilation


def test_psi0_is_killed_by_every_excitation_annihilator(small2, small3):
    for cfg in (small2, small3):
        g = F.psi0(cfg)
        ks = [k for k in L.ball_points(cfg.d, 4) if any(k)]
        for k in ks:
            assert F.apply_b(k, cfg, g).norm() == 0.0
            assert F.apply_d(k, cfg, g).norm() == 0.0
            for q in ks[:4]:
                assert O.apply_normal_commutator(k, q, cfg, g).norm() == 0.0
        assert F.apply_normal_t(cfg, g).norm() == 0.0
        assert O.apply_exc_number(cfg, g).norm() == 0.0


def test_rho_on_psi0_counts_crescent(small2):
    g = F.psi0(small2)
    for k in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        assert F.apply_rho(k, g).norm_sq() == pytest.approx(
            len(L.crescent(k, small2))
        )


# ------------------------------------------------------ operator identities


def test_rho_zero_counts_particles(small2):
    v = rvec(small2, 3)
    out = F.apply_rho((0, 0), v)
    assert (out - 5.0 * v).norm() < 1e-12


def test_rho_decomposition(small2, small3):
    for cfg, seeds in ((small2, range(4)), (small3, range(2))):
        ks = [k for k in L.ball_points(cfg.d, 2) if any(k)]
        for s in seeds:
            v = rvec(cfg, s)
            for k in ks:
                lhs = F.apply_rho(k, v)
                rhs = (
                    F.apply_b(k, cfg, v)
                    + F.apply_b_dag(L.neg(k), cfg, v)
                    + F.apply_d(k, cfg, v)
                )
                assert (lhs - rhs).norm() < 1e-12 * max(lhs.norm(), 1.0)


def _rho_parts_vectors(cfg, seed):
    """Random vectors dense enough that several moves meet on one image,
    and phi images of every window monomial up to degree 2 superposed, so
    that b_{-k}^dag (degree m -> m+1) and b_k (m+2 -> m+1) meet too."""
    rng = np.random.default_rng(seed)
    yield O.random_fermion_vector(cfg, rng, 60, pool_radius_sq=cfg.fermi_radius_sq + 1)
    window = B.TruncationWindow.from_radius(cfg.d, 1, 2)
    monos = B.window_monomials(window)
    f = B.BosonVector.from_monomial(monos[0])  # the vacuum
    for mono in monos[1:]:
        amp = complex(rng.standard_normal(), rng.standard_normal())
        f = f + amp * B.BosonVector.from_monomial(mono)
    yield BR.phi_map(f, cfg)


PART = {(True, True): "d", (False, False): "d", (True, False): "b_dag", (False, True): "b"}


def test_rho_parts_equal_the_filtered_operators(small2, small3):
    """apply_rho_parts(k) is (apply_d(k), apply_b_dag(-k), apply_b(k))
    amplitude for amplitude and in the same term order."""
    names = ("d", "b_dag", "b")
    for cfg, seeds in ((small2, (1, 2)), (small3, (3,))):
        r = cfg.fermi_radius_sq
        ks = [k for k in L.ball_points(cfg.d, 2) if any(k)]
        for seed in seeds:
            merged = shared = 0
            for v in _rho_parts_vectors(cfg, seed):
                for k in ks:
                    parts = F.apply_rho_parts(k, cfg, v)
                    refs = (
                        F.apply_d(k, cfg, v),
                        F.apply_b_dag(L.neg(k), cfg, v),
                        F.apply_b(k, cfg, v),
                    )
                    for name, got, want in zip(names, parts, refs):
                        assert list(got.terms.items()) == list(want.terms.items()), name
                    assert (parts[1] + parts[2]).terms == (refs[1] + refs[2]).terms
                    shared += len(parts[1].terms.keys() & parts[2].terms.keys())
                    images = [
                        (PART[side], out)
                        for _, _, out, side in F._moves(v.terms.items(), k, r)
                    ]
                    # moves that add into an image another move already filled
                    merged += len(images) - len(set(images))
            assert merged > 0 and shared > 0, (cfg, seed)


def test_adjoint_pairs(small2):
    cfg = small2
    u, v = rvec(cfg, 11), rvec(cfg, 12)
    for k in [(1, 0), (1, 1), (0, -2)]:
        assert u.inner(F.apply_rho(k, v)) == pytest.approx(
            F.apply_rho(L.neg(k), u).inner(v), abs=1e-12
        )
        assert u.inner(F.apply_b(k, cfg, v)) == pytest.approx(
            F.apply_b_dag(k, cfg, u).inner(v), abs=1e-12
        )
        assert u.inner(F.apply_d(k, cfg, v)) == pytest.approx(
            F.apply_d(L.neg(k), cfg, u).inner(v), abs=1e-12
        )


def test_momentum_transfer(small2):
    v = F.FermionVector.from_determinant([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)])
    k = (1, 1)
    before = L.total_momentum(next(iter(v.terms)), 2)
    for det in F.apply_rho(k, v).terms:
        assert L.total_momentum(det, 2) == L.sub(before, k)


def test_commutator_identity(small2, small3):
    for cfg in (small2, small3):
        ks = [k for k in L.ball_points(cfg.d, 2) if any(k)][:4]
        v = rvec(cfg, 21, n_dets=6)
        for k in ks:
            for q in ks:
                lhs = F.apply_b(k, cfg, F.apply_b_dag(q, cfg, v)) - F.apply_b_dag(
                    q, cfg, F.apply_b(k, cfg, v)
                )
                rhs = O.apply_normal_commutator(k, q, cfg, v)
                if k == q:
                    rhs = rhs + float(len(L.crescent(k, cfg))) * v
                assert (lhs - rhs).norm() < 1e-12


def test_normal_commutator_negative_at_equal_shift(small2):
    for seed in range(5):
        v = rvec(small2, 30 + seed, n_dets=7)
        val = v.inner(O.apply_normal_commutator((1, 0), (1, 0), small2, v))
        assert abs(val.imag) < 1e-12
        assert val.real <= 1e-12


def test_excitation_norm_bounds(small2, small3):
    """The b / b^dag operators are controlled by the excitation number."""
    for cfg in (small2, small3):
        ks = [k for k in L.ball_points(cfg.d, 2) if any(k)]
        for seed in range(6):
            v = rvec(cfg, 100 + seed, n_dets=6)
            half = O.apply_exc_weight(cfg, v, shift=0.0)
            half1 = O.apply_exc_weight(cfg, v, shift=1.0)
            full = O.apply_exc_number(cfg, v)
            for k in ks:
                ck = math.sqrt(len(L.crescent(k, cfg)))
                assert F.apply_b(k, cfg, v).norm() <= ck * half.norm() + 1e-10
                assert F.apply_b_dag(k, cfg, v).norm() <= ck * half1.norm() + 1e-10
                assert F.apply_d(k, cfg, v).norm() <= 2 * full.norm() + 1e-10
                for q in ks[:3]:
                    assert (
                        O.apply_normal_commutator(k, q, cfg, v).norm()
                        <= 2 * full.norm() + 1e-10
                    )


def test_hamiltonian_split(small2, small3, unit4, unit6):
    for cfg, pot in ((small2, unit4), (small3, unit6)):
        for seed in range(3):
            v = rvec(cfg, 40 + seed)
            lhs = F.apply_h(cfg, pot, v)
            rhs = F.e_n0(cfg, pot) * v + O.apply_h1(cfg, pot, v) + O.apply_h2(
                cfg, pot, v
            )
            assert (lhs - rhs).norm() < 1e-10 * max(lhs.norm(), 1.0)


def test_hamiltonian_symmetric(small2, unit4):
    u, v = rvec(small2, 51), rvec(small2, 52)
    hv = F.apply_h(small2, unit4, v)
    hu = F.apply_h(small2, unit4, u)
    assert u.inner(hv) == pytest.approx(hu.inner(v).conjugate(), rel=1e-10)


# ---------------------------------------------------------------- potential


def test_potential_validation_lists_everything():
    with pytest.raises(F.PotentialError) as err:
        F.Potential(2, {(1, 0): 1.0, (-1, 0): 2.0, (0, 1): -3.0, (0, -1): -3.0})
    reasons = {k: why for k, why in err.value.violations}
    assert (1, 0) in reasons and "vhat(k)" in reasons[(1, 0)]
    assert (0, 1) in reasons and "negative" in reasons[(0, 1)]
    assert (0, -1) in reasons


def test_potential_missing_mirror():
    with pytest.raises(F.PotentialError) as err:
        F.Potential(2, {(1, 0): 1.0})
    assert any("missing opposite" in why for _, why in err.value.violations)


def test_potential_wrong_dimension():
    with pytest.raises(F.PotentialError):
        F.Potential(3, {(1, 0): 1.0, (-1, 0): 1.0})


def test_potential_negative_zero_mode_allowed():
    pot = F.Potential(2, {(0, 0): -2.0})
    assert pot.integral() == -2.0
    assert pot.value_at_origin() == -2.0
    assert pot.nonzero_items() == []


def test_unit_potential_values():
    pot = F.unit_potential(2)
    assert pot.integral() == 0.0
    assert pot.value_at_origin() == 4.0
    assert len(pot.nonzero_items()) == 4
    pot3 = F.unit_potential(3)
    assert pot3.value_at_origin() == 6.0


def test_load_potential_roundtrip(tmp_path):
    path = tmp_path / "pot.txt"
    path.write_text(
        "# unit modes\n1 0 1.0\n-1 0 1.0\n0 1 1.0\n0 -1 1.0\n0 0 0.0\n"
    )
    pot = F.load_potential(path)
    assert pot.d == 2
    assert pot.value_at_origin() == 4.0


def test_load_potential_reports_every_violation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 1.0\n1 0 2.0\n0 1 x\n2 0\n0 2 -1\n0 -2 -1\n")
    with pytest.raises(F.PotentialError) as err:
        F.load_potential(path)
    text = str(err.value)
    assert "duplicate" in text
    assert "non-numeric" in text
    assert "expected 2 components" in text


def test_potential_from_function_tail():
    pot, tail = O.potential_from_function(
        lambda k: math.exp(-L.norm_sq(k)), 2, cutoff_radius_sq=2
    )
    assert max(L.norm_sq(k) for k, _ in pot.nonzero_items()) == 2
    assert tail.discarded_weight > 0.0
    assert tail.probe_radius_sq == 8


# ------------------------------------------------------------------ energy


def test_e_n0_frozen_values(small2, unit4):
    # kinetic 4 (2 pi)^2, N = 5, vhat(0) = 0, v(0) = 4
    for alpha in (-1.0, 0.0, 0.37, 2.0):
        cfg = L.GasConfig(d=2, fermi_radius_sq=1, alpha=alpha)
        want = 4 * L.TWO_PI_SQ - 2.0 * 5.0 ** (1 - alpha)
        assert F.e_n0(cfg, unit4) == pytest.approx(want, rel=1e-14)


def test_e_n0_single_particle_zero_mode_only():
    cfg = L.GasConfig(d=2, fermi_radius_sq=0, alpha=0.7)
    pot = F.Potential(2, {(0, 0): 1.0})
    assert F.e_n0(cfg, pot) == pytest.approx(0.0, abs=1e-15)


def test_trivial_bounds_match_filled_ball(small2, unit4):
    lo, hi = F.trivial_bounds(small2, unit4)
    raw = O.expectation(lambda x: F.apply_h(small2, unit4, x), F.psi0(small2))
    assert abs(raw.imag) < 1e-12
    assert hi == pytest.approx(raw.real, rel=1e-13)
    assert hi - lo == pytest.approx(6.0 * 5.0, rel=1e-13)  # 6 N^-alpha, alpha=-1


# ------------------------------------------------------------- ground state


def test_ground_state_free_gas(small2):
    pot = F.Potential(2, {(0, 0): 0.0})
    gs = F.ground_state(small2, pot, cutoff_radius_sq=4)
    assert gs.energy == pytest.approx(L.kinetic_ground_sum(small2), rel=1e-13)
    assert gs.method == "dense"
    # unique free ground state: the filled ball itself
    top = max(gs.vector.terms.items(), key=lambda kv: abs(kv[1]))
    assert top[0] == L.fermi_ball(small2)


def test_ground_state_sandwich(small2, unit4):
    lo, hi = F.trivial_bounds(small2, unit4)
    gs = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    assert lo <= gs.energy <= hi
    assert gs.residual < 1e-9 * max(abs(gs.energy), 1.0)


@pytest.mark.parametrize(
    "momentum, dim", [((0, 0), 51), ((1, 0), 45)], ids=["dim51", "dim45"]
)
def test_auto_method_switches_at_dense_limit(small2, unit4, monkeypatch, momentum, dim):
    # cutoff-4 sectors of the 5-particle gas; Lanczos from dim = DENSE_LIMIT
    monkeypatch.setattr(F, "DENSE_LIMIT", dim)
    it = F.ground_state(small2, unit4, cutoff_radius_sq=4, momentum=momentum)
    monkeypatch.setattr(F, "DENSE_LIMIT", dim + 1)
    dense = F.ground_state(small2, unit4, cutoff_radius_sq=4, momentum=momentum)
    assert it.dimension == dense.dimension == dim
    assert (it.method, dense.method) == ("iterative", "dense")
    assert it.energy == pytest.approx(dense.energy, rel=1e-9)


def test_ground_state_variational_monotonicity(small2, unit4):
    e = [
        F.ground_state(small2, unit4, cutoff_radius_sq=r).energy for r in (1, 2, 4)
    ]
    assert e[0] >= e[1] >= e[2]
    assert e[2] >= F.e_n0(small2, unit4)


def test_ground_state_momentum_sectors(small2, unit4):
    zero = F.ground_state(small2, unit4, cutoff_radius_sq=4).energy
    shifted = F.ground_state(
        small2, unit4, cutoff_radius_sq=4, momentum=(1, 0)
    ).energy
    assert zero < shifted


def test_ground_state_guards(small2, unit4):
    with pytest.raises(ValueError):
        F.ground_state(small2, unit4, cutoff_radius_sq=0)
    with pytest.raises(ValueError):
        F.ground_state(small2, unit4, cutoff_radius_sq=4, basis_limit=10)


@pytest.mark.parametrize(
    "d, r, cutoff, momentum",
    [
        (2, 1, 4, None),
        (2, 1, 5, (1, 0)),
        (2, 2, 5, None),
        (2, 2, 5, (1, -1)),
        (2, 2, 4, (9, 9)),
        (3, 1, 2, None),
        (3, 1, 3, (0, 1, 0)),
    ],
)
def test_sector_basis_matches_combination_filter(d, r, cutoff, momentum):
    config = L.GasConfig(d=d, fermi_radius_sq=r)
    want_momentum = momentum or (0,) * d
    want = [
        det
        for det in itertools.combinations(
            L.ball_points(d, cutoff), L.particle_count(config)
        )
        if L.total_momentum(det, d) == want_momentum
    ]
    assert F.sector_basis(config, cutoff, momentum) == want


@pytest.mark.parametrize(
    "d, r, cutoff, momentum, dim",
    [
        (2, 13, 16, (0, 0), 2104),
        (2, 17, 18, (0, 0), 4127),
        (3, 1, 3, (1, 0, 0), 6488),
        (2, 2, 5, (1, -1), 4525),
        (2, 2, 5, (9, 9), 0),  # inside the coded range, reached by no total
        (2, 2, 5, (40, 0), 0),  # beyond every total
        (2, 0, 0, (0, 0), 1),  # r=0: one particle, one mode
        (2, 0, 2, (1, 0), 1),
        (2, 5, 5, (0, 0), 1),  # cutoff at the Fermi radius: the filled ball
        (2, 5, 5, (1, 0), 0),
    ],
)
def test_sector_basis_matches_oracle_walk(d, r, cutoff, momentum, dim):
    """Same determinants in the same order as the depth-first walk, on
    sectors too large for the combination filter."""
    config = L.GasConfig(d=d, fermi_radius_sq=r)
    basis = F.sector_basis(config, cutoff, momentum)
    assert len(basis) == dim
    modes = L.ball_points(d, cutoff)
    assert basis == O.momentum_combinations(modes, L.particle_count(config), momentum)


def test_momentum_codes_refuse_int64_overflow():
    # base 601 in 8 components: the codes would need 601^8 > 2^62
    modes = [(0,) * 8, (100,) * 8]
    with pytest.raises(ValueError, match="overflow int64"):
        F._momentum_combinations(modes, 1, (0,) * 8)


def test_ground_state_deterministic(small2, unit4):
    a = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    b = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    assert a.energy == b.energy
    assert a.vector.terms == b.vector.terms


def test_iterative_ground_state_deterministic(small2, unit4, monkeypatch):
    monkeypatch.setattr(F, "DENSE_LIMIT", 51)  # the sector's dimension
    a = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    b = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    assert a.method == b.method == "iterative"
    assert a.residual == b.residual
    assert a.energy == b.energy
    assert a.vector.terms == b.vector.terms


# ------------------------------------------- the move operators, pinned
#
# Reference copies of the four per-operator loops and the rho_k assembly
# loop the move kernel replaced.  Inner products sum in dict order, so the
# operators must reproduce both the terms and their order.


def _ref_rho(k, vec):
    acc = {}
    for det, amp in vec.terms.items():
        for p in det:
            hit = O.move(det, p, L.sub(p, k))
            if hit is not None:
                F._accumulate(acc, hit[1], hit[0] * amp)
    return F._finish(acc)


def _ref_b(k, config, vec):
    r = config.fermi_radius_sq
    acc = {}
    for det, amp in vec.terms.items():
        for p in det:
            if L.norm_sq(p) > r:
                t = L.sub(p, k)
                if L.norm_sq(t) <= r:
                    hit = O.move(det, p, t)
                    if hit is not None:
                        F._accumulate(acc, hit[1], hit[0] * amp)
    return F._finish(acc)


def _ref_b_dag(k, config, vec):
    r = config.fermi_radius_sq
    acc = {}
    for det, amp in vec.terms.items():
        for p in det:
            if L.norm_sq(p) <= r:
                t = L.add(p, k)
                if L.norm_sq(t) > r:
                    hit = O.move(det, p, t)
                    if hit is not None:
                        F._accumulate(acc, hit[1], hit[0] * amp)
    return F._finish(acc)


def _ref_d(k, config, vec):
    r = config.fermi_radius_sq
    acc = {}
    for det, amp in vec.terms.items():
        for p in det:
            t = L.sub(p, k)
            if (L.norm_sq(p) <= r) == (L.norm_sq(t) <= r):
                hit = O.move(det, p, t)
                if hit is not None:
                    F._accumulate(acc, hit[1], hit[0] * amp)
    return F._finish(acc)


def _ref_hamiltonian(config, pot, basis, moves=_ref_moves):
    """The tuple-move assembly; moves=F._moves is the fast tuple kernel,
    which test_move_kernel_matches_move pins to O.move."""
    index = {det: i for i, det in enumerate(basis)}
    dim = len(basis)
    diag = np.empty(dim)
    e0 = F.e_n0(config, pot)
    for det, i in index.items():
        diag[i] = e0 + F.kinetic_excess(config, det)
    h = scipy.sparse.diags(diag, format="csr")
    lam = L.coupling(config)
    for k, v in pot.nonzero_items():
        rows, cols, data = [], [], []
        images = {}
        for j, sign, out, _ in moves(index.items(), k):
            row = images.setdefault(out, len(images))
            rows.append(row)
            cols.append(j)
            data.append(float(sign))
        a = scipy.sparse.coo_matrix(
            (data, (rows, cols)), shape=(len(images), dim)
        ).tocsr()
        h = h + (lam * v) * (a.T @ a)
    return h.tocsr()


def _assert_same_csr(got, want):
    assert got.format == want.format == "csr"
    assert got.has_canonical_format and want.has_canonical_format
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def _ranks(basis, pot):
    """The bitmask rank table: the basis modes and their shifts, in mode order."""
    modes = set().union(*basis)
    shifts = {L.sub(p, k) for p in modes for k, _ in pot.nonzero_items()}
    return {p: i for i, p in enumerate(sorted(modes | shifts, key=L.mode_key))}


def test_move_operators_match_reference_loops(small2, small3):
    for config in (small2, small3):
        for seed in range(3):
            vec = rvec(config, seed, n_dets=8)
            for k in L.ball_points(config.d, 2):
                pairs = [
                    (F.apply_rho(k, vec), _ref_rho(k, vec)),
                    (F.apply_b(k, config, vec), _ref_b(k, config, vec)),
                    (F.apply_b_dag(k, config, vec), _ref_b_dag(k, config, vec)),
                    (F.apply_d(k, config, vec), _ref_d(k, config, vec)),
                ]
                for got, want in pairs:
                    assert list(got.terms.items()) == list(want.terms.items())


def test_hamiltonian_assembly_matches_reference_loop(small2, small3, unit4, unit6):
    for config, pot, cutoff in ((small2, unit4, 4), (small3, unit6, 2)):
        basis = F.sector_basis(config, cutoff)
        got = F.hamiltonian_matrix(config, pot, basis)
        want = _ref_hamiltonian(config, pot, basis)
        assert (got != want).nnz == 0
        _assert_same_csr(got, want)
    five = L.fermi_ball(small2)
    with pytest.raises(ValueError, match="different particle numbers"):
        F.hamiltonian_matrix(small2, unit4, [five, five[:4]])


def _phi_blocks(d, r):
    """Determinants of each total-momentum block of the unit-window,
    degree-2 phi images, as subspace_upper_bound frames them."""
    config = L.GasConfig(d=d, fermi_radius_sq=r, alpha=-1.0)
    groups = {}
    for m in B.window_monomials(B.TruncationWindow.from_radius(d, 1, 2)):
        groups.setdefault(L.total_momentum(m, d), []).append(m)
    return config, {
        momentum: frame([BR.phi_monomial_image(config, m) for m in group])[0]
        for momentum, group in groups.items()
    }


# every d = 2 block at r = 17 spans 2 words; four d = 3 blocks at r = 5 span
# 3 (the 1300-determinant zero-momentum block, 4 words, is left out for time)
@pytest.mark.parametrize(
    "d, r, momenta, words",
    [
        (2, 17, None, {2}),
        (3, 5, [(1, 0, 0), (2, 0, 0), (1, 1, 0), (0, -1, 1)], {3}),
    ],
    ids=["d2-r17", "d3-r5"],
)
def test_hamiltonian_assembly_matches_reference_on_phi_blocks(d, r, momenta, words):
    config, blocks = _phi_blocks(d, r)
    pot = F.unit_potential(d)
    seen = set()
    for momentum in momenta or sorted(blocks):
        basis = blocks[momentum]
        seen.add((len(_ranks(basis, pot)) + 63) // 64)
        got = F.hamiltonian_matrix(config, pot, basis)
        _assert_same_csr(got, _ref_hamiltonian(config, pot, basis, F._moves))
    assert seen == words


WIDE_POOLS = {2: L.ball_points(2, 72), 3: L.ball_points(3, 16)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hamiltonian_assembly_across_word_boundaries(data):
    """Random determinant sets over more than 128 ranks: a base determinant
    of 110-150 particles, then determinants reached by moving one particle
    by -k and another by +k (k in the support of a random even potential),
    so that pairs of them share rho_k images and A_k^dag A_k has signed
    off-diagonal entries."""
    d = data.draw(st.sampled_from(sorted(WIDE_POOLS)))
    pool = WIDE_POOLS[d]
    order = data.draw(st.permutations(range(len(pool))))
    base = F.determinant(pool[i] for i in order[: data.draw(st.integers(110, 150))])
    shifts = [k for k in L.ball_points(d, 4) if L.mode_key(k) > L.mode_key(L.neg(k))]
    coeff = {}
    for k in data.draw(st.lists(st.sampled_from(shifts), min_size=1, max_size=3)):
        coeff[k] = coeff[L.neg(k)] = float(data.draw(st.integers(1, 4)))
    pot = F.Potential(d, coeff)
    basis = [base]
    for _ in range(data.draw(st.integers(2, 12))):
        det = data.draw(st.sampled_from(basis))
        k = data.draw(st.sampled_from(sorted(coeff)))
        p, q = data.draw(st.lists(st.sampled_from(det), min_size=2, max_size=2, unique=True))
        moved = set(det) - {p, q} | {L.sub(p, k), L.add(q, k)}
        if len(moved) == len(det) and F.determinant(moved) not in basis:
            basis.append(F.determinant(moved))
    rank = _ranks(basis, pot)
    assert len(rank) > 128
    # a free move whose source and target words differ
    assume(any(
        rank[p] >> 6 != rank[L.sub(p, k)] >> 6 and L.sub(p, k) not in det
        for det in basis
        for p in det
        for k in coeff
    ))
    config = L.GasConfig(d=d, fermi_radius_sq=1)
    got = F.hamiltonian_matrix(config, pot, basis)
    _assert_same_csr(got, _ref_hamiltonian(config, pot, basis, F._moves))
