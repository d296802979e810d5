"""Fock engine tests.

The anticommutation relations and the operator identities are checked on
random vectors; expected numbers for the small frozen examples were
derived by hand from the determinant expansions.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermibose import boson as B
from fermibose import bridge as BR
from fermibose import fock as F
from fermibose import lattice as L
from fermibose import vector as V
from fermibose.vector import CSR, frame

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
    got = list(O.moves(items, k, r))
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
    """apply_rho_parts(k) is (apply_d(k), apply_b_dag(-k), apply_b(k)),
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
                        for _, _, out, side in O.moves(v.terms.items(), k, r)
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
            lhs = O.apply_h(cfg, pot, v)
            rhs = F.e_n0(cfg, pot) * v + O.apply_h1(cfg, pot, v) + O.apply_h2(
                cfg, pot, v
            )
            assert (lhs - rhs).norm() < 1e-10 * max(lhs.norm(), 1.0)


def test_hamiltonian_symmetric(small2, unit4):
    u, v = rvec(small2, 51), rvec(small2, 52)
    hv = O.apply_h(small2, unit4, v)
    hu = O.apply_h(small2, unit4, u)
    assert u.inner(hv) == pytest.approx(hu.inner(v).conjugate(), rel=1e-10)


# ---------------------------------------------------------------- potential


def test_potential_validation_lists_everything():
    with pytest.raises(F.PotentialError) as err:
        F.Potential(2, {(1, 0): 1.0, (-1, 0): 2.0, (0, 1): -3.0, (0, -1): -3.0})
    reasons = {k: why for k, why in err.value.violations}
    assert (1, 0) in reasons and "vhat(k)" in reasons[(1, 0)]
    assert (0, 1) in reasons and "negative" in reasons[(0, 1)]
    assert (0, -1) in reasons
    with pytest.raises(F.PotentialError) as err:
        F.Potential(
            2,
            {
                (1, 0): math.inf,
                (-1, 0): math.inf,
                (0, 1): math.nan,
                (0, -1): math.nan,
                (1, 1): 1.0,
                (-1, -1): -math.inf,
            },
        )
    reasons = dict(err.value.violations)
    assert len(err.value.violations) == 5
    assert sorted(reasons) == sorted([(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)])
    assert all(why.startswith("non-finite coefficient") for why in reasons.values())


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
    raw = O.expectation(lambda x: O.apply_h(small2, unit4, x), F.psi0(small2))
    assert abs(raw.imag) < 1e-12
    assert hi == pytest.approx(raw.real, rel=1e-13)
    assert hi - lo == pytest.approx(6.0 * 5.0, rel=1e-13)  # 6 N^-alpha, alpha=-1


# ------------------------------------------------------------- ground state


def test_ground_state_free_gas(small2):
    pot = F.Potential(2, {(0, 0): 0.0})
    gs = F.ground_state(small2, pot, cutoff_radius_sq=4, eigh=np.linalg.eigh)
    assert gs.energy == pytest.approx(L.kinetic_ground_sum(small2), rel=1e-13)
    assert gs.method == "dense"
    # unique free ground state: the filled ball itself
    top = max(gs.vector.terms.items(), key=lambda kv: abs(kv[1]))
    assert top[0] == L.fermi_ball(small2)
    # the default Lanczos: the diagonal H closes the Krylov space early
    it = F.ground_state(small2, pot, cutoff_radius_sq=4)
    assert it.method == "iterative"
    assert it.energy == pytest.approx(gs.energy, rel=1e-13)
    assert max(it.vector.terms.items(), key=lambda kv: abs(kv[1]))[0] == top[0]
    # the r = 0 gas: its one determinant, the filled ball {0}, has excess
    # exactly 0, which the matrix does not store
    free = L.GasConfig(d=2, fermi_radius_sq=0)
    h = F.hamiltonian_matrix(free, pot, F.sector_basis(free, 0))
    assert (h.shape, h.nnz, h.indptr.tolist()) == ((1, 1), 0, [0, 0])


def test_ground_state_sandwich(small2, unit4):
    lo, hi = F.trivial_bounds(small2, unit4)
    gs = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    assert lo <= gs.energy <= hi
    assert gs.residual < 1e-9 * max(abs(gs.energy), 1.0)


@pytest.mark.parametrize(
    "momentum, dim", [((0, 0), 51), ((1, 0), 45)], ids=["dim51", "dim45"]
)
def test_auto_method_switches_at_dense_limit(small2, unit4, monkeypatch, momentum, dim):
    # cutoff-4 sectors of the 5-particle gas; with eigh, Lanczos from dim = DENSE_LIMIT
    monkeypatch.setattr(F, "DENSE_LIMIT", dim)
    it = F.ground_state(small2, unit4, cutoff_radius_sq=4, momentum=momentum, eigh=np.linalg.eigh)
    monkeypatch.setattr(F, "DENSE_LIMIT", dim + 1)
    dense = F.ground_state(
        small2, unit4, cutoff_radius_sq=4, momentum=momentum, eigh=np.linalg.eigh
    )
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


@pytest.mark.parametrize("cutoff, dim", [(4, 51), (5, 457)], ids=["dim51", "dim457"])
def test_dense_ground_state_matches_plain_eigh(small2, unit4, cutoff, dim):
    """The Fortran-order eigensolve gives the bytes of numpy.linalg.eigh on
    the plain dense matrix, and with the exact table's in-place solver
    (cli._dsyevr, LAPACK dsyevr, here through the branch that calls the
    imported scipy.linalg.eigh) those of scipy.linalg.eigh; the
    residual's matrix-vector product has the bytes of scipy.sparse's."""
    import scipy.linalg

    from fermibose.cli import _dsyevr

    basis = F.sector_basis(small2, cutoff)
    h = F.hamiltonian_matrix(small2, unit4, basis)
    for eigh, solver in ((np.linalg.eigh, np.linalg.eigh), (scipy.linalg.eigh, _dsyevr)):
        got = F.ground_state(small2, unit4, cutoff_radius_sq=cutoff, eigh=solver)
        w, u = eigh(h.toarray())
        vec = F._canonical_phase(u[:, 0])
        assert (got.method, got.dimension) == ("dense", dim)
        assert got.energy == float(w[0])
        assert np.array_equal(h @ vec, _scipy(h) @ vec)
        assert got.residual == float(np.linalg.norm(h @ vec - w[0] * vec))
        want = {det: complex(x) for det, x in zip(basis, vec) if x != 0.0}
        assert got.vector.terms == F.FermionVector(want).pruned().terms


def test_ground_state_deterministic(small2, unit4):
    a = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    b = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    assert a.energy == b.energy
    assert a.vector.terms == b.vector.terms


def test_iterative_ground_state_deterministic(small2, unit4):
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
                O._accumulate(acc, hit[1], hit[0] * amp)
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
                        O._accumulate(acc, hit[1], hit[0] * amp)
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
                        O._accumulate(acc, hit[1], hit[0] * amp)
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
                    O._accumulate(acc, hit[1], hit[0] * amp)
    return F._finish(acc)


def _ref_hamiltonian(config, pot, basis, moves=_ref_moves):
    """The tuple-move assembly; moves=O.moves is the fast tuple kernel,
    which test_move_kernel_matches_move pins to O.move."""
    index = {det: i for i, det in enumerate(basis)}
    dim = len(basis)
    diag = np.empty(dim)
    e0 = F.e_n0(config, pot)
    for det, i in index.items():
        diag[i] = e0 + F.kinetic_excess(config, sum(map(L.norm_sq, det)))
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


def _scipy(m):
    """A CSR matrix, record or scipy's, as scipy.sparse over its arrays."""
    return scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), m.shape)


def _assert_same_csr(got, want, dtype=np.float64):
    """Same CSR arrays, dtypes included; got and want may each be a
    vector.CSR record or a scipy.sparse matrix."""
    for m in (got, want):
        assert isinstance(m, CSR) or m.format == "csr"
    for m in (got, want):
        assert m.indptr.dtype == m.indices.dtype == np.int32
        assert m.data.dtype == dtype
    assert _scipy(got).has_canonical_format and _scipy(want).has_canonical_format
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


def _assert_operators_match_reference_loops(k, config, vec):
    """All five operators at k against the reference loops, term by term
    and in order."""
    refs = (_ref_d(k, config, vec), _ref_b_dag(L.neg(k), config, vec), _ref_b(k, config, vec))
    pairs = [
        (F.apply_rho(k, vec), _ref_rho(k, vec)),
        (F.apply_b(k, config, vec), refs[2]),
        (F.apply_b_dag(L.neg(k), config, vec), refs[1]),
        (F.apply_d(k, config, vec), refs[0]),
        *zip(F.apply_rho_parts(k, config, vec), refs),
    ]
    for got, want in pairs:
        assert list(got.terms.items()) == list(want.terms.items())


def test_move_operators_in_blocks_match_reference_loops(small2, monkeypatch):
    """A vector longer than F._ROWS goes through the pass in blocks.  With
    blocks of seven determinants, images first met in one block recur in
    later ones, and terms, order and sums still match the reference loops."""
    monkeypatch.setattr(F, "_ROWS", 7)
    crossed = 0
    for vec in _rho_parts_vectors(small2, 1):
        for k in L.ball_points(2, 2):
            _assert_operators_match_reference_loops(k, small2, vec)
            blocks = {}
            for row, _, out, _ in O.moves(((det, row) for row, det in enumerate(vec.terms)), k):
                blocks.setdefault(out, set()).add(row // 7)
            crossed += sum(len(b) > 1 for b in blocks.values())
    assert crossed > 0


def test_move_order_sums_cross_blocks(small2, monkeypatch):
    """Three determinants, one per block, each moving once onto the same
    image.  Their contributions 1, 1, 1e16 add up to 1e16 + 2 in move order
    and to 1e16 in any other, and all five operators match the reference
    loops, which add in move order."""
    monkeypatch.setattr(F, "_ROWS", 1)
    assert (1.0 + 1.0) + 1e16 != (1.0 + 1e16) + 1.0
    ball = L.fermi_ball(small2)
    across = F.determinant([(0, 0), (-1, 0), (2, 0), (1, 1), (1, -1)])
    cases = [  # (image, shift, modes t): sources image - t + (t + shift)
        (ball, (1, 0), [(1, 0), (0, 1), (0, -1)]),  # b_k, outside to inside
        (across, (-1, 0), [(2, 0), (1, 1), (1, -1)]),  # b_k^dag, inside to outside
        (across, (1, 0), [(2, 0), (1, 1), (1, -1)]),  # d_k, outside to outside
    ]
    for image, shift, modes in cases:
        terms = {}
        for t, c in zip(modes, [1.0, 1.0, 1e16]):
            p = L.add(t, shift)
            source = F.determinant([m for m in image if m != t] + [p])
            terms[source] = O.move(source, p, t)[0] * complex(c)
        vec = F.FermionVector(terms)
        assert F.apply_rho(shift, vec).terms[image] == (1.0 + 1.0) + 1e16
        for k in ((1, 0), (-1, 0)):
            _assert_operators_match_reference_loops(k, small2, vec)


# ------------------------------------------- one encoding per vector set


def _one_at_a_time(config):
    """(parts, the same parts of rho_k vec from the one-vector operators)
    for every routing rho_parts is asked for."""
    return [
        (F.PARTS, lambda k, vec: F.apply_rho_parts(k, config, vec)),
        (F.RHO, lambda k, vec: (F.apply_rho(k, vec),)),
        (F.PARTS[2:], lambda k, vec: (F.apply_b(k, config, vec),)),
        (F.PARTS[1:2], lambda k, vec: (F.apply_b_dag(L.neg(k), config, vec),)),
        (F.PARTS[:1], lambda k, vec: (F.apply_d(k, config, vec),)),
        (
            F.PARTS + F.RHO,
            lambda k, vec: (*F.apply_rho_parts(k, config, vec), F.apply_rho(k, vec)),
        ),
    ]


def _assert_batch_matches_one_at_a_time(config, ks, vecs):
    """rho_parts on every mode of ks and every vector of vecs at once: each
    vector's parts at each mode equal the one-vector operators called one
    at a time, term for term and in order, and norms holds each
    determinant's sum of |p|^2, vector by vector."""
    want_norms = [sum(map(L.norm_sq, det)) for vec in vecs for det in vec.terms]
    for parts, one in _one_at_a_time(config):
        norms, modes = F.rho_parts(ks, config.fermi_radius_sq, vecs, parts)
        assert norms.tolist() == want_norms
        modes = list(modes)
        assert len(modes) == len(ks)
        for k, out in zip(ks, modes):
            assert len(out) == len(vecs)
            for vec, got in zip(vecs, out):
                want = one(k, vec)
                assert len(got) == len(parts) == len(want)
                for g, w in zip(got, want):
                    assert list(g.terms.items()) == list(w.terms.items())


def test_vector_sets_match_one_at_a_time(small2):
    """Random vectors, an empty one among them and one vector twice (its
    images are registered apart), over every mode with |k|^2 <= 2,
    k = 0 included."""
    vecs = [rvec(small2, 0, n_dets=8), F.FermionVector(), rvec(small2, 1, n_dets=5)]
    vecs += [vecs[0], F.psi0(small2)]
    _assert_batch_matches_one_at_a_time(small2, L.ball_points(2, 2), vecs)
    _assert_batch_matches_one_at_a_time(small2, L.ball_points(2, 2), [F.FermionVector()])


def test_vector_sets_cross_block_boundaries(small2, monkeypatch):
    """With blocks of seven determinants, vector boundaries fall inside
    blocks and one vector spans three of them: 26 determinants in all."""
    monkeypatch.setattr(F, "_ROWS", 7)
    sizes = [5, 4, 12, 0, 5]
    vecs = [
        rvec(small2, seed, n_dets=n) if n else F.FermionVector() for seed, n in enumerate(sizes)
    ]
    starts = np.cumsum([0] + sizes)
    assert any(s % 7 for s in starts[1:-1]) and starts[-1] > F._ROWS
    _assert_batch_matches_one_at_a_time(small2, L.ball_points(2, 2), vecs)


def _table_width(vecs, ks):
    return len(F._rank_table([det for vec in vecs for det in vec.terms], ks)[0])


def test_vector_sets_of_phi_images_match_one_at_a_time():
    """The degree-2 phi images of d = 2, r = 9 as one set: their rank table
    spans 73 modes, so image keys are two words."""
    config = L.GasConfig(d=2, fermi_radius_sq=9, alpha=-1.0)
    window = B.TruncationWindow.from_radius(2, 1, 2)
    vecs = [BR.phi_monomial_image(config, m) for m in B.window_monomials(window)]
    ks = [k for k, _ in F.unit_potential(2).nonzero_items()]
    assert _table_width(vecs, ks) > 64
    _assert_batch_matches_one_at_a_time(config, ks, vecs)


def test_vector_sets_in_d3_match_one_at_a_time(small3):
    """d = 3 vectors over the 81 modes with |p|^2 <= 5: with their shifts
    the table spans more than 128 modes, three words."""
    vecs = [rvec(small3, seed, n_dets=6) for seed in range(3)]
    ks = L.ball_points(3, 2)
    assert _table_width(vecs, ks) > 128
    _assert_batch_matches_one_at_a_time(small3, ks, vecs)


def test_vector_sets_refuse_mixed_particle_numbers(small2):
    five = F.FermionVector.from_determinant(L.fermi_ball(small2))
    four = F.FermionVector.from_determinant(L.fermi_ball(small2)[:4])
    with pytest.raises(ValueError, match="different particle numbers"):
        F.rho_parts([(1, 0)], small2.fermi_radius_sq, [five, four], F.PARTS)


def test_operators_refuse_mixed_particle_numbers(small2):
    five = L.fermi_ball(small2)
    vec = F.FermionVector.from_determinant(five) + F.FermionVector.from_determinant(five[:4])
    with pytest.raises(ValueError, match="different particle numbers"):
        F.apply_rho((1, 0), vec)
    with pytest.raises(ValueError, match="different particle numbers"):
        F.apply_b((1, 0), small2, vec)


def test_operators_refuse_more_particles_than_int16_slots():
    """_move_pass counts slots in int16: at d = 2, r = 10501 (33,001
    particles) the wrapped slots would rebuild wrong images, so rho_parts
    refuses before any pass."""
    vec = F.psi0(L.GasConfig(d=2, fermi_radius_sq=10501))
    assert vec.particle_number() == 33_001
    with pytest.raises(ValueError, match="at most 32768"):
        F.apply_rho((1, 0), vec)


def _pass_product(basis, k):
    """A_k^T A_k from one _passes move pass, A_k the rho_k matrix onto
    every image the pass registers, by the image labels it gives: the
    record fock._pass_product builds, and scipy.sparse's a.T @ a as CSR
    with sorted indices."""
    _, _, moves = F._passes(basis, [k], 0, np.ones(4, dtype=bool))
    [(*_, rows, _, _, sign, _, first, image)] = moves
    a = scipy.sparse.csr_matrix((sign, (image, rows)), (len(first), len(basis)))
    want = (a.T @ a).tocsr()
    want.sort_indices()
    return F._pass_product(rows, sign, image, len(basis)), want


def _move_neighbours(d, pool_radius_sq, seed, shift_radius_sq=5):
    """Two random determinants of the d-dimensional 1-ball particle number
    over the modes |p|^2 <= pool_radius_sq, and every image of theirs under
    rho_q for 0 < |q|^2 <= shift_radius_sq: a basis of many total momenta,
    each holding determinants that share images under some rho_k."""
    config = L.GasConfig(d=d, fermi_radius_sq=1, alpha=-1.0)
    seeds = rvec(config, seed, n_dets=2, pool_radius_sq=pool_radius_sq)
    basis = set(seeds.terms)
    for q in L.ball_points(d, shift_radius_sq):
        if any(q):
            basis.update(F.apply_rho(q, seeds).terms)
    return sorted(basis, key=lambda det: [L.mode_key(p) for p in det])


@pytest.mark.parametrize("d, pool", [(2, 20), (3, 8)], ids=["d2", "d3"])
def test_pass_products_of_opposite_modes_are_equal(d, pool):
    """rho_{-k}^dag rho_{-k} = rho_k rho_k^dag = rho_k^dag rho_k on states of
    finitely many particles, so A_{-k}^T A_{-k} and A_k^T A_k are one
    integer matrix on any basis: hamiltonian_matrix builds it once per
    pair.  Each basis spans many total momenta, and its rank table more
    than 64 modes."""
    for seed in range(2):
        basis = _move_neighbours(d, pool, 60 + seed)
        assert len({L.total_momentum(det, d) for det in basis}) > 20
        for k in L.ball_points(d, 5):
            if F.mode_key(k) < F.mode_key(L.neg(k)):
                assert len(F._rank_table(basis, [k])[0]) > 64
                (plus, want_plus), (minus, want_minus) = (
                    _pass_product(basis, k), _pass_product(basis, L.neg(k))
                )
                _assert_same_csr(plus, want_plus, want_plus.dtype)
                _assert_same_csr(minus, want_minus, want_minus.dtype)
                assert plus.data.dtype.kind == minus.data.dtype.kind == "i"
                assert plus.nnz > len(basis)  # not only the diagonal
                _assert_same_csr(plus, minus, plus.data.dtype)


def test_rank_keys_are_fixed():
    """A rank's key is its own bit while the table fits in one word, so a
    code is the image's word; over more ranks the keys are the outputs of
    splitmix64 seeded with 0, the same in every process."""
    assert F._rank_keys(64).tolist() == [1 << i for i in range(64)]
    wide = F._rank_keys(65)
    assert wide[:4].tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC
    ]
    assert len(set(F._rank_keys(5000).tolist())) == 5000


def _swapped_images(basis, k):
    """(a, b): two modes such that two rho_k images of basis differ only by
    holding a in place of b."""
    seen = {}
    for det in basis:
        for p in det:
            if L.sub(p, k) not in det:
                image = set(det) - {p} | {L.sub(p, k)}
                for q in image:
                    other = seen.setdefault(frozenset(image - {q}), q)
                    if other != q:
                        return other, q
    raise AssertionError("no two images differ by one mode")


def _first_order_by_unique(labels):
    """(first, number) through np.unique: its stable first indices, in
    ascending order, and each entry's place among them."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.arange(len(order))
    return first[order], number[inverse]


@pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "chunks-of-7"])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_first_order_matches_unique(dtype, chunk, monkeypatch):
    """_first_order numbers labels as np.unique's first indices order
    them, in int32, on empty, single and all-equal labels and on random
    labels over the whole range of the dtype with many repeats."""
    if chunk:
        monkeypatch.setattr(F, "_CHUNK", chunk)
    rng = np.random.default_rng(13)
    info = np.iinfo(dtype)
    cases = [np.zeros(0, dtype=dtype), np.array([info.max], dtype=dtype)]
    cases.append(np.full(9, 3, dtype=dtype))
    for size in (2, 40, 3000, 100_000):
        pool = rng.integers(info.min, info.max, max(1, size // 3), dtype=dtype, endpoint=True)
        cases.append(pool[rng.integers(0, len(pool), size)])
    for labels in cases:
        first, number = F._first_order(labels)
        want_first, want_number = _first_order_by_unique(labels)
        assert first.dtype == number.dtype == np.int32
        assert np.array_equal(first, want_first)
        assert np.array_equal(number, want_number)


def test_code_collisions_raise(small2, unit4, monkeypatch):
    """Two ranks given one key make two different images of a rho_k pass
    share a code over a table of more than 64 ranks: hamiltonian_matrix
    and rho_parts raise rather than merge them.  Over one word the code is
    the image's word and no key is read, so a sector's assembly keeps
    every CSR byte under that patch and under one that gives every rank
    the same key."""
    basis = _move_neighbours(2, 20, 60)
    k = min((q for q in L.ball_points(2, 1) if any(q)), key=L.mode_key)  # leads its pair
    table = F._rank_table(basis, [k])[0]
    assert len(table) > 64
    a, b = map(table.index, _swapped_images(basis, k))
    zobrist = F._zobrist

    def shared(n):
        keys = zobrist(n)
        keys[b] = keys[a]
        return keys

    sector = F.sector_basis(small2, 4)
    assert len(F._rank_table(sector, [p for p, _ in unit4.nonzero_items()])[0]) <= 64
    want = F.hamiltonian_matrix(small2, unit4, sector)
    vec = F.FermionVector(dict.fromkeys(basis, 1.0 + 0j))
    monkeypatch.setattr(F, "_zobrist", shared)
    with pytest.raises(RuntimeError, match="share a 64-bit code"):
        F.hamiltonian_matrix(small2, F.Potential(2, {k: 1.0, L.neg(k): 1.0}), basis)
    with pytest.raises(RuntimeError, match="share a 64-bit code"):
        list(F.rho_parts([k], 0, [vec], F.RHO)[1])
    _assert_same_csr(F.hamiltonian_matrix(small2, unit4, sector), want)
    monkeypatch.setattr(F, "_zobrist", lambda n: np.zeros(n, dtype=np.uint64))
    _assert_same_csr(F.hamiltonian_matrix(small2, unit4, sector), want)


ANISOTROPIC = F.Potential(
    2,
    {
        (1, 0): 1.0,
        (-1, 0): 1.0,
        (0, 1): 0.5,
        (0, -1): 0.5,
        (1, 1): 0.25,
        (-1, -1): 0.25,
        (1, -1): 2.0,
        (-1, 1): 2.0,
    },
)


def test_hamiltonian_assembly_matches_reference_loop(small2, small3, unit4, unit6):
    cases = (
        (small2, unit4, 4),
        (small3, unit6, 2),
        (small2, F.unit_potential(2, 2), 4),  # 8 modes in two shells
        (small3, F.unit_potential(3, 2), 2),  # 18 modes in two shells
        (small2, ANISOTROPIC, 4),  # one value per pair, so no pair stands in for another
        # lambda = sqrt(5) / 2: each entry's float sum depends on its order of terms
        (L.GasConfig(d=2, fermi_radius_sq=1, alpha=-0.5), ANISOTROPIC, 4),
        (small2, F.Potential(2, {}), 4),  # no interaction: the diagonal alone
    )
    for config, pot, cutoff in cases:
        basis = F.sector_basis(config, cutoff)
        got = F.hamiltonian_matrix(config, pot, basis)
        want = _ref_hamiltonian(config, pot, basis)
        assert (_scipy(got) != want).nnz == 0
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
        _assert_same_csr(got, _ref_hamiltonian(config, pot, basis, O.moves))
    assert seen == words


@pytest.mark.parametrize("d, r", [(2, 17), (3, 5)], ids=["d2-r17", "d3-r5"])
def test_union_hamiltonian_is_block_diagonal(d, r):
    """One assembly over the determinants of every momentum block is
    block diagonal, and each diagonal block is that block's own assembly."""
    config, blocks = _phi_blocks(d, r)
    pot = F.unit_potential(d)
    union = [det for momentum in sorted(blocks) for det in blocks[momentum]]
    got = F.hamiltonian_matrix(config, pot, union)
    block_of = np.repeat(np.arange(len(blocks)), [len(blocks[m]) for m in sorted(blocks)])
    rows, cols = _scipy(got).nonzero()
    assert np.array_equal(block_of[rows], block_of[cols])
    end = 0
    for momentum in sorted(blocks):
        start, end = end, end + len(blocks[momentum])
        want = F.hamiltonian_matrix(config, pot, blocks[momentum])
        _assert_same_csr(_scipy(got)[start:end, start:end], want)


def test_hamiltonian_assembly_memory_is_bounded(unit4):
    """The tracemalloc peak of one assembly on the d = 2, r = 100
    unit-window degree-2 frame (3515 determinants, 135,047 entries) stays
    under 14 MB: each move carries an 8-byte image code, not the image's
    words, and the places of the products' entries are found in bounded
    chunks.  Words per move and one place lookup over every entry at once
    peaked at 20.9 MB on this frame."""
    config, basis = _r100_frame()
    h, peak = _assembly_peak(config, unit4, basis)
    assert h.nnz == 135_047
    assert peak < 14e6


def test_encoding_memory_is_bounded(unit4):
    """The same assembly peaks under 8 MB: _encode XORs the keys and sums
    the norms of a block's ranks a few rank columns at a time.  Gathering
    keys[ranks] and nsq[ranks] as whole _ROWS x N blocks (5.2 MB each at
    N = 317) peaked at 9.21 MB."""
    config, basis = _r100_frame()
    h, peak = _assembly_peak(config, unit4, basis)
    assert h.nnz == 135_047
    assert peak < 8e6


def _r100_frame():
    """(config, basis) of the d = 2, r = 100 unit-window degree-2 frame."""
    config = L.GasConfig(d=2, fermi_radius_sq=100, alpha=-1.0)
    monos = B.window_monomials(B.TruncationWindow.from_radius(2, 1, 2))
    basis = frame([BR.phi_monomial_image(config, m) for m in monos])[0]
    assert len(basis) == 3515
    return config, basis


def _assembly_peak(config, pot, basis):
    """(matrix, tracemalloc peak) of one hamiltonian_matrix call."""
    tracemalloc.start()
    try:
        h = F.hamiltonian_matrix(config, pot, basis)
        return h, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sector_assembly_memory_tracks_its_result(unit4):
    """The assembly of the d = 2, r = 2 zero-momentum sector at cutoff 5,
    which the exact table solves by Lanczos (5010 determinants, 160,546
    entries, 1.95 MB of CSR arrays), peaks under 4.5 MB: the moves'
    labels are int32 and the sums run a row block at a time.  np.unique's
    int64 labels and a whole-matrix union peaked at 5.13 MB."""
    config = L.GasConfig(d=2, fermi_radius_sq=2, alpha=-1.0)
    basis = F.sector_basis(config, 5)
    assert len(basis) == 5010
    h, peak = _assembly_peak(config, unit4, basis)
    assert h.nnz == 160_546
    assert peak < 4.5e6


def test_frame_assembly_memory_tracks_its_result(unit4):
    """The assembly of the d = 2, r = 20 unit-window degree-4 frame
    (55,498 determinants, 1,465,810 entries, 17.8 MB of CSR arrays, two
    passes of 701,690 moves) peaks under 45 MB.  np.unique's int64
    labels, whole-array joins of the moves and of the product columns, a
    whole-matrix union and two np.delete copies for the exact zeros
    peaked at 63.9 MB."""
    config = L.GasConfig(d=2, fermi_radius_sq=20, alpha=-1.0)
    monos = B.window_monomials(B.TruncationWindow.from_radius(2, 1, 4))
    basis = frame([BR.phi_monomial_image(config, m) for m in monos])[0]
    assert len(basis) == 55_498
    h, peak = _assembly_peak(config, unit4, basis)
    assert h.nnz == 1_465_810
    assert peak < 45e6


def test_hamiltonian_sums_in_row_blocks(small2, unit4, monkeypatch):
    """The sums over row blocks of a few entries give the CSR arrays of
    one block, byte for byte and dtype for dtype."""
    sector = F.sector_basis(small2, 4)
    want = F.hamiltonian_matrix(small2, unit4, sector)
    monkeypatch.setattr(V, "_TERMS", 5)
    got = F.hamiltonian_matrix(small2, unit4, sector)
    for field in ("data", "indices", "indptr"):
        assert getattr(got, field).dtype == getattr(want, field).dtype, field
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def test_hamiltonian_assembly_with_int64_place_codes():
    """Over n >= 46,341 determinants n * n reaches 2**31, past any int32
    row * n + column code, so no index of the assembly may be one.  The
    restriction of such an assembly (the first 46,400 two-particle
    determinants over |p|^2 <= 100, 489,260 entries) to every 97th
    determinant and the last 400 is the assembly over that subset, byte
    for byte: each entry depends only on its two determinants."""
    basis = list(itertools.islice(itertools.combinations(L.ball_points(2, 100), 2), 46_400))
    config, pot = L.GasConfig(d=2, fermi_radius_sq=1), F.unit_potential(2, 4)
    h = F.hamiltonian_matrix(config, pot, basis)
    assert len(basis) ** 2 >= 2**31 and h.nnz == 489_260
    subset = sorted({*range(0, len(basis), 97), *range(len(basis) - 400, len(basis))})
    want = F.hamiltonian_matrix(config, pot, [basis[i] for i in subset])
    assert want.nnz == 1005
    _assert_same_csr(_scipy(h)[subset][:, subset], want)


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
    _assert_same_csr(got, _ref_hamiltonian(config, pot, basis, O.moves))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_move_operators_across_word_boundaries(data):
    """The move operators against the reference loops, terms and order, on
    vectors over more than 128 ranks: up to four determinants of 130-150
    particles, a base and copies with one particle moved, with random
    complex amplitudes; k = 0, the empty vector and one-determinant
    vectors are among the draws."""
    d = data.draw(st.sampled_from(sorted(WIDE_POOLS)))
    pool = WIDE_POOLS[d]
    order = data.draw(st.permutations(range(len(pool))))
    base = F.determinant(pool[i] for i in order[: data.draw(st.integers(130, 150))])
    dets = [base]
    for _ in range(data.draw(st.integers(0, 3))):
        p = data.draw(st.sampled_from(base))
        q = data.draw(st.sampled_from([q for q in pool if q not in base]))
        dets.append(F.determinant(set(base) - {p} | {q}))
    dets = list(dict.fromkeys(dets))[: data.draw(st.integers(0, 4))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = F.FermionVector({det: complex(*rng.standard_normal(2)) for det in dets})
    config = L.GasConfig(d=d, fermi_radius_sq=data.draw(st.sampled_from([1, 5, 9, 16])))
    k = data.draw(st.sampled_from([(0,) * d, *L.ball_points(d, 5)]))
    assert not dets or len(set().union(*dets)) > 128
    pairs = [
        (F.apply_rho(k, vec), _ref_rho(k, vec)),
        (F.apply_b(k, config, vec), _ref_b(k, config, vec)),
        (F.apply_b_dag(k, config, vec), _ref_b_dag(k, config, vec)),
        (F.apply_d(k, config, vec), _ref_d(k, config, vec)),
    ]
    refs = (_ref_d(k, config, vec), _ref_b_dag(L.neg(k), config, vec), _ref_b(k, config, vec))
    pairs += zip(F.apply_rho_parts(k, config, vec), refs)
    for got, want in pairs:
        assert list(got.terms.items()) == list(want.terms.items())
