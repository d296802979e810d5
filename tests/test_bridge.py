"""Tests for the excitation map and the bounds built on it.

The intertwining residual has a closed expansion: commuting one
annihilator through a product of pair creators leaves a sum of products
with one factor replaced by the normal-ordered commutator.  That
expansion is rebuilt here directly from the pair primitives and used as
an independent oracle for the residual vectors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fermibose import boson as B
from fermibose import bridge as BR
from fermibose import fock as F
from fermibose import lattice as L

import oracles as O

K1 = (1, 0)


def window2(m=2, radius_sq=1):
    return B.TruncationWindow.from_radius(2, radius_sq, m)


# ----------------------------------------------------------------- phi map


def test_phi_vacuum_is_filled_ball(small2):
    image = BR.phi_map(B.BosonVector.vacuum(), small2)
    assert (image - F.psi0(small2)).norm() == 0.0


def test_phi_degree_one_normalized(small2):
    for k in window2().modes:
        image = BR.phi_monomial_image(small2, (k,))
        assert image.norm_sq() == pytest.approx(1.0, rel=1e-12)
        assert O.excitation_count(small2, next(iter(image.terms))) == 1


def test_phi_repeated_mode_norm(small2):
    # ||phi_k^dag phi_k^dag psi0||^2 = 2 + 2 eps with eps = -2/|C_k|
    image = BR.phi_monomial_image(small2, (K1, K1))
    assert image.norm_sq() == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_phi_empty_crescent_rejected(small2):
    # only the zero mode has an empty crescent, and it is not a pair mode
    with pytest.raises(ValueError, match="empty crescent"):
        BR.phi_monomial_image(small2, ((0, 0),))


def test_phi_linear(small2, rng):
    w = window2(m=2)
    f = B.random_boson_vector(w, rng, 5)
    g = B.random_boson_vector(w, rng, 5)
    lhs = BR.phi_map(f + 2j * g, small2)
    rhs = BR.phi_map(f, small2) + 2j * BR.phi_map(g, small2)
    assert (lhs - rhs).norm() < 1e-12


# ----------------------------------------------------------- isometry audit


def test_isometry_small_window_frozen(small2):
    report = BR.isometry_audit(window2(m=2), small2)
    assert report.max_abs_eps == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert report.max_abs_by_degree[0] == 0.0
    assert report.max_abs_by_degree[1] < 1e-12
    assert report.max_abs_by_degree[2] == pytest.approx(2.0 / 3.0, rel=1e-12)
    n = len(report.monomials)
    assert report.eps.shape == (n, n)
    assert report.operator_norm_bound == pytest.approx(n * report.max_abs_eps)
    assert np.allclose(report.eps, report.eps.T)


def test_isometry_skipped_blocks_really_vanish(small2):
    # images of different degree or total momentum share no determinant, so
    # the audit's one frame gives zero entries between them; spot check that
    # with explicit inner products
    cases = [
        ((), ((1, 0), (-1, 0))),  # same momentum, different degree
        (((1, 0),), ((0, 1),)),  # same degree, different momentum
        (((1, 0),), ((1, 0), (0, 1))),
    ]
    for ma, mb in cases:
        a = BR.phi_monomial_image(small2, ma)
        b = BR.phi_monomial_image(small2, mb)
        assert a.inner(b) == 0.0


def test_isometry_eps_decays_with_crescents():
    # max|eps| over a fixed window shrinks as the crescents grow
    window = window2(m=2)
    maxima = []
    for r in (1, 4, 9):
        config = L.GasConfig(d=2, fermi_radius_sq=r, alpha=-1.0)
        maxima.append(BR.isometry_audit(window, config).max_abs_eps)
        csize = len(L.crescent(K1, config))
        assert maxima[-1] == pytest.approx(2.0 / csize, rel=1e-12)
    assert maxima[0] > maxima[1] > maxima[2]


def test_isometry_shape_constant(small2):
    report = BR.isometry_audit(window2(m=2), small2)
    kf = small2.fermi_momentum
    expect = (2.0 / 3.0) / (2.0 / kf)
    assert BR.isometry_shape_constant(report, small2) == pytest.approx(expect)


# ------------------------------------------------------------- intertwining


def commutator_expansion(k, mono, config):
    """sum_i phi*_{q_1}..phi*_{q_{i-1}} :[phi_k, phi*_{q_i}]: phi*_{q_{i+1}}..
    applied to the filled ball, built from the pair primitives."""
    ck = len(L.crescent(k, config))
    out = F.FermionVector()
    for i, qi in enumerate(mono):
        vec = F.psi0(config)
        for q in reversed(mono[i + 1 :]):
            vec = BR.apply_phi_creator(q, config, vec)
        scale = 1.0 / math.sqrt(ck * len(L.crescent(qi, config)))
        vec = scale * O.apply_normal_commutator(k, qi, config, vec)
        for q in reversed(mono[:i]):
            vec = BR.apply_phi_creator(q, config, vec)
        out = out + vec
    return out


@pytest.mark.parametrize(
    "mono",
    [
        (),
        (K1,),
        (K1, K1),
        ((-1, 0), (1, 0)),
        ((0, 1), (1, 0)),
        ((0, -1), (0, 1), (1, 0)),
    ],
)
def test_intertwine_residual_matches_commutator_expansion(small2, mono):
    for k in window2().modes:
        f = B.BosonVector.from_monomial(mono) if mono else B.BosonVector.vacuum()
        image = BR.phi_map(f, small2)
        lhs = O.apply_phi_annihilator(k, small2, image)
        rhs = BR.phi_map(B.apply_boson_annihilator(k, f), small2)
        oracle = commutator_expansion(k, mono, small2)
        assert ((lhs - rhs) - oracle).norm() < 1e-12


def _ref_intertwine(window, config):
    """(per_monomial, annihilator_max) from phi_k applied to each
    (monomial, mode k) image."""
    per = {}
    for mono in B.window_monomials(window):
        image = BR.phi_monomial_image(config, mono)
        worst = 0.0
        for k in window.modes:
            rhs = F.FermionVector()
            if k in mono:
                i = mono.index(k)
                reduced = mono[:i] + mono[i + 1 :]
                rhs = mono.count(k) * BR.phi_monomial_image(config, reduced)
            lhs = O.apply_phi_annihilator(k, config, image)
            worst = max(worst, (lhs - rhs).norm())
        per[mono] = worst
    return per, max(per.values())


@pytest.mark.parametrize(
    "d, r, degree, rows",
    [
        (2, 1, 2, F._ROWS),
        (3, 1, 2, F._ROWS),
        # 3059 determinants over a 73-mode table: two-word keys, 12 blocks
        (2, 9, 3, 256),
        # 1390 determinants over a 123-mode table, 6 blocks
        (3, 2, 2, 256),
    ],
    ids=["d2", "d3", "d2_r9_deg3", "d3_r2"],
)
def test_intertwine_report(d, r, degree, rows, monkeypatch):
    window = B.TruncationWindow.from_radius(d, 1, degree)
    config = L.GasConfig(d=d, fermi_radius_sq=r, alpha=-1.0)
    monos = B.window_monomials(window)
    BR.phi_monomial_image.cache_clear()
    for mono in monos:  # built first, so the counts below are the audit's own
        BR.phi_monomial_image(config, mono)
    calls = []

    def counted(name):
        real = getattr(F, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("rho_parts", "apply_b"):
        monkeypatch.setattr(F, name, counted(name))
    monkeypatch.setattr(F, "_ROWS", rows)
    report = BR.intertwine_residual(window, config)
    monkeypatch.undo()
    assert calls == ["rho_parts"]  # one encoding of all images, no one-vector b_k
    # one cached image per window monomial: the audit builds none outside
    assert BR.phi_monomial_image.cache_info().currsize == len(monos)
    per, ann_max = _ref_intertwine(window, config)
    assert report.per_monomial == per
    assert report.annihilator_max == ann_max
    by_degree = {}
    for mono, val in per.items():
        by_degree[len(mono)] = max(by_degree.get(len(mono), 0.0), val)
    assert report.max_abs_by_degree == by_degree
    assert report.per_monomial[()] == 0.0
    if degree == 2:
        # the worst residual comes from annihilating the doubled mode
        k1 = (1,) + (0,) * (d - 1)
        assert report.annihilator_max == pytest.approx(
            report.per_monomial[(k1, k1)], rel=1e-12
        )
        want = 2.0 / min(len(L.crescent(k, config)) for k in window.modes)
        assert report.annihilator_max == pytest.approx(want, rel=1e-12)


def test_intertwine_residual_shrinks_with_crescents():
    window = window2(m=2)
    prev = None
    for r in (1, 4, 9):
        config = L.GasConfig(d=2, fermi_radius_sq=r, alpha=-1.0)
        cur = BR.intertwine_residual(window, config).annihilator_max
        if prev is not None:
            assert cur < prev
        prev = cur


UNIT_WINDOW_CASES = (
    [(2, r, 2) for r in range(1, 21) if L.is_occupied_radius(2, r)]
    + [(3, r, 2) for r in range(1, 4)]
    + [(2, r, 3) for r in (1, 2, 5, 13)]
    + [(3, r, 3) for r in (1, 2)]
)


@pytest.mark.parametrize(
    "d, r, degree",
    UNIT_WINDOW_CASES,
    ids=[f"{d}-{r}" + ("-deg3" if m == 3 else "") for d, r, m in UNIT_WINDOW_CASES],
)
def test_unit_window_residuals_are_two_over_min_crescent(d, r, degree):
    """On the unit window, eps is -2/|C_k| at (k,k) and, at degree 3,
    -(18/|C_k| - 12/|C_k|^2) at (k,k,k), so max|eps| is that closed form
    at the smallest crescent; at degree 2 the annihilator residual is
    2 / min|C_k| too: the decay that acceptance 6 fits is crescent
    counting."""
    window = B.TruncationWindow.from_radius(d, 1, degree)
    config = L.GasConfig(d=d, fermi_radius_sq=r)
    report = BR.isometry_audit(window, config)
    index = {m: i for i, m in enumerate(report.monomials)}
    worst = 0.0
    for k in window.modes:
        c = len(L.crescent(k, config))
        closed = {(k, k): -2.0 / c, (k, k, k): -(18.0 / c - 12.0 / c**2)}
        for mono, want in closed.items():
            if len(mono) <= degree:
                eps = report.eps[index[mono], index[mono]]
                assert eps == pytest.approx(want, rel=1e-12, abs=0)
        worst = max(worst, -closed[(k,) * degree])
    assert report.max_abs_eps == pytest.approx(worst, rel=1e-12, abs=0)
    if degree == 2:
        residual = BR.intertwine_residual(window, config).annihilator_max
        assert residual == pytest.approx(worst, rel=1e-12, abs=0)


# ---------------------------------------------------------- remainder audit


def test_h2_kinetic_of_single_pair(small2, unit4):
    # the normalized pair state over the unit crescent costs 5/3 (2 pi)^2
    f = B.BosonVector.from_monomial((K1,))
    [audit] = BR.h2_expectation_audit([f], window2(m=2), small2, unit4, L.TWO_PI)
    assert audit.kinetic_part == pytest.approx(5.0 / 3.0 * L.TWO_PI**2, rel=1e-12)
    psi = BR.phi_monomial_image(small2, (K1,))
    kin, _ = O.h2_quadratic_parts(small2, unit4, psi)
    assert kin == pytest.approx(5.0 / 3.0 * L.TWO_PI**2, rel=1e-12)


def test_h2_parts_vanish_on_ground(small2, unit4):
    [audit] = BR.h2_expectation_audit(
        [B.BosonVector.vacuum()], window2(m=2), small2, unit4, L.TWO_PI
    )
    assert audit.kinetic_part == 0.0
    assert audit.interaction_part == 0.0
    kin, inter = O.h2_quadratic_parts(small2, unit4, F.psi0(small2))
    assert kin == 0.0
    assert inter == 0.0
    with pytest.raises(ValueError):
        O.h2_quadratic_parts(small2, unit4, F.FermionVector())


def test_h2_audit_passes_on_window_states(unit4, rng):
    config = L.GasConfig(d=2, fermi_radius_sq=4, alpha=-1.0)
    window = window2(m=2)
    states = [B.random_boson_vector(window, rng, 4) for _ in range(10)]
    audits = BR.h2_expectation_audit(states, window, config, unit4, L.TWO_PI)
    assert len(audits) == len(states)
    for audit in audits:
        assert audit.passed
        assert audit.value == pytest.approx(
            abs(audit.kinetic_part + audit.interaction_part)
        )


def test_h2_audit_validates_cutoff(small2, unit4):
    f = B.BosonVector.from_monomial((K1,))
    with pytest.raises(ValueError, match="outside"):
        BR.h2_expectation_audit([f], window2(m=2), small2, unit4, 1.0)
    with pytest.raises(ValueError, match="outside"):
        BR.h2_expectation_audit(
            [f], window2(m=2), small2, unit4, 3 * small2.fermi_momentum
        )
    wide = B.TruncationWindow.from_radius(2, 2, 2)
    with pytest.raises(ValueError, match="violates"):
        BR.h2_expectation_audit([f], wide, small2, unit4, L.TWO_PI)


def _h2_states(window, seed):
    """The vacuum, one (k, -k) pair and two random monomials, then every
    window monomial at once, all with complex gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    monos = B.window_monomials(window)
    k = window.modes[-1]
    head = [(), (L.neg(k), k)] if window.max_degree >= 2 else [(), (k,)]
    picks = rng.choice(range(1, len(monos)), size=2, replace=False)
    for chosen in (head + [monos[i] for i in picks], monos):
        terms = {
            B.monomial(m): complex(rng.standard_normal(), rng.standard_normal())
            for m in chosen
        }
        yield B.BosonVector(terms)


@pytest.mark.parametrize("alpha", [0.0, -1.0])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "d, r, window_radius_sq", [(2, 4, 2), (3, 1, 1)], ids=["d2", "d3"]
)
def test_h2_audit_equals_the_vector_oracle(
    d, r, window_radius_sq, degree, alpha, monkeypatch
):
    """The pair forms over each f of one batch equal <psi|H2 psi> /
    ||psi||^2 computed on the vector psi = Phi(f) with each of d_k,
    b_{-k}^dag, b_k applied on its own.  On the unit window with the unit
    potential every pair of distinct monomials has zero terms; the wider
    potential, and in d=2 the wider window, give the degree-2 states
    nonzero cross terms."""
    config = L.GasConfig(d=d, fermi_radius_sq=r, alpha=alpha)
    pot = F.unit_potential(d, radius_sq=2)
    window = B.TruncationWindow.from_radius(d, window_radius_sq, degree)
    cutoff = L.TWO_PI * math.sqrt(window_radius_sq)
    fills = []
    fill = BR._fill_pair_terms
    monkeypatch.setattr(
        BR, "_fill_pair_terms", lambda c, p, pairs: fills.append(pairs) or fill(c, p, pairs)
    )
    states = list(_h2_states(window, 100 * d + 10 * degree + int(-alpha)))
    audits = BR.h2_expectation_audit(states, window, config, pot, cutoff)
    for f, audit in zip(states, audits, strict=True):
        kin, inter = O.h2_quadratic_parts(config, pot, BR.phi_map(f, config))
        assert audit.kinetic_part == pytest.approx(kin, rel=1e-12, abs=0)
        assert audit.interaction_part == pytest.approx(inter, rel=1e-12, abs=0)
        assert audit.value == pytest.approx(abs(kin + inter), rel=1e-12, abs=0)
    # one table for the batch, and pairs whose degrees differ by two or
    # more, which have only zero terms, are never formed
    [pairs] = fills
    assert len(set(pairs)) == len(pairs)
    assert all(a <= b and abs(len(a) - len(b)) <= 1 for a, b in pairs)


def test_h2_audit_rejects_states_off_the_window(small2, unit4):
    window = window2(m=1)
    for mono in [(K1, K1), ((1, 1),)]:  # degree above 1, mode outside
        f = B.BosonVector.vacuum() + B.BosonVector.from_monomial(mono)
        with pytest.raises(ValueError, match="outside the window"):
            BR.h2_expectation_audit([f], window, small2, unit4, L.TWO_PI)
    good = B.BosonVector.from_monomial((K1,))
    for zero in [B.BosonVector(), B.BosonVector({(K1,): 0j})]:
        # alone (no pair at all for the empty vector) and in a batch
        for states in ([zero], [good, zero]):
            with pytest.raises(ValueError, match="empty state"):
                BR.h2_expectation_audit(states, window, small2, unit4, L.TWO_PI)


def test_h2_audit_follows_the_potential_content():
    config = L.GasConfig(d=2, fermi_radius_sq=2, alpha=-0.5)
    window = window2(m=2)
    f = next(_h2_states(window, 7))
    audits = []
    for scale in (1.0, 1.0, 2.0):
        pot = F.Potential(2, {k: scale for k in window.modes})
        audits += BR.h2_expectation_audit([f], window, config, pot, L.TWO_PI)
    first, again, doubled = audits
    assert again == first
    assert doubled.kinetic_part == first.kinetic_part
    assert doubled.interaction_part != first.interaction_part
    assert doubled.interaction_part == pytest.approx(
        2.0 * first.interaction_part, rel=1e-14
    )


# ------------------------------------------------------------- trial energy


def test_trial_energy_of_vacuum(small2, unit4):
    report = BR.trial_energy(B.BosonVector.vacuum(), small2, unit4)
    lower, upper = F.trivial_bounds(small2, unit4)
    assert report.raw == pytest.approx(upper, rel=1e-13)
    assert report.e_n0 == pytest.approx(lower, rel=1e-13)
    assert report.image_norm == pytest.approx(1.0)
    assert abs(report.identity_gap) < 1e-9
    # the bosonic form reproduces the filled-ball energy exactly here
    assert abs(report.discrepancy) < 1e-9
    assert report.h2_part == 0.0


def test_trial_energy_decomposition(small2, unit4, rng):
    window = window2(m=2)
    f = B.random_boson_vector(window, rng, 5)
    report = BR.trial_energy(f, small2, unit4)
    assert report.raw == pytest.approx(
        report.e_n0 + report.h1_part + report.h2_part + report.identity_gap
    )
    assert abs(report.identity_gap) < 1e-9 * max(1.0, abs(report.raw))
    assert report.raw >= report.e_n0 - 1e-9


def test_trial_energy_zero_image_rejected(small2):
    # e_k on the vacuum is zero, and phi of zero must be rejected
    zero = B.apply_boson_annihilator(K1, B.BosonVector.vacuum())
    with pytest.raises(ValueError):
        BR.trial_energy(zero, small2, F.unit_potential(2))


def test_trial_energy_empty_potential(small2):
    pot = F.Potential(2, {})
    report = BR.trial_energy(B.BosonVector.vacuum(), small2, pot)
    assert report.raw == pytest.approx(L.kinetic_ground_sum(small2))
    assert report.h1_part == 0.0


# ------------------------------------------------------------ subspace bound


def test_subspace_bound_sandwich(small2, unit4):
    window = window2(m=2)
    bound = BR.subspace_upper_bound(window, small2, unit4)
    exact = F.ground_state(small2, unit4, cutoff_radius_sq=4)
    trial = BR.trial_energy(B.BosonVector.vacuum(), small2, unit4)
    assert exact.energy <= bound.value + 1e-9
    assert bound.value <= trial.raw + 1e-9
    assert bound.dimension == B.window_dim(window)
    assert bound.dropped_directions == 0
    assert bound.value == pytest.approx(min(bound.sector_values.values()))
    assert (0, 0) in bound.sector_values


def test_subspace_bound_improves_on_vacuum_alone(small2, unit4):
    # allowing pair excitations strictly lowers the variational value
    v0 = BR.subspace_upper_bound(window2(m=0), small2, unit4)
    v2 = BR.subspace_upper_bound(window2(m=2), small2, unit4)
    trial = BR.trial_energy(B.BosonVector.vacuum(), small2, unit4)
    assert v0.value == pytest.approx(trial.raw, rel=1e-12)
    assert v2.value < v0.value - 1e-6


def test_subspace_bound_empty_potential(small2):
    pot = F.Potential(2, {})
    bound = BR.subspace_upper_bound(window2(m=2), small2, pot)
    assert bound.value == pytest.approx(L.kinetic_ground_sum(small2))


# d = 2 unit window at degree 2, the scaling sweep's window; the radius-1
# window at degree 4, whose r = 1 and r = 2 Grams drop 4 directions each;
# d = 3 at degree 2
@pytest.mark.parametrize(
    "d, r, degree, dropped",
    [(2, 5, 2, 0), (2, 17, 2, 0), (2, 20, 2, 0), (2, 1, 4, 4), (2, 2, 4, 4), (2, 5, 4, 0), (3, 2, 2, 0)],
    ids=["d2-r5", "d2-r17", "d2-r20", "d2-r1-deg4", "d2-r2-deg4", "d2-r5-deg4", "d3-r2"],
)
def test_subspace_bound_equals_per_block_assembly(d, r, degree, dropped):
    """One assembly over all momentum blocks gives, bit for bit, the
    bound of one assembly per block: the union Hamiltonian is block
    diagonal and its blocks hold the per-block values."""
    config = L.GasConfig(d=d, fermi_radius_sq=r, alpha=-1.0)
    window = B.TruncationWindow.from_radius(d, 1, degree)
    pot = F.unit_potential(d)
    got = BR.subspace_upper_bound(window, config, pot)
    want = O.subspace_upper_bound_per_block(window, config, pot)
    assert got.value == want.value
    assert list(got.sector_values.items()) == list(want.sector_values.items())
    assert got.dimension == want.dimension
    assert got.dropped_directions == want.dropped_directions == dropped


# ------------------------------------------------- the Gram paths, pinned
#
# Reference copies of the pairwise inner-product loops that the sparse
# frame products replaced.  The products sum in another order, so the
# results agree to rounding, not bit for bit.


def _ref_isometry_eps(window, config):
    monos = B.window_monomials(window)
    groups = {}
    for i, m in enumerate(monos):
        key = (len(m), L.total_momentum(m, config.d))
        groups.setdefault(key, []).append(i)
    eps = np.zeros((len(monos), len(monos)))
    for indices in groups.values():
        images = {i: BR.phi_monomial_image(config, monos[i]) for i in indices}
        for a, i in enumerate(indices):
            for j in indices[a:]:
                val = images[i].inner(images[j]).real
                if i == j:
                    val -= B.monomial_norm_sq(monos[i])
                eps[i, j] = val
                eps[j, i] = val
    return eps


def _ref_subspace_values(window, config, pot, pivot_tol=1e-10):
    lam = L.coupling(config)
    e0 = F.e_n0(config, pot)
    blocks = {}
    for m in B.window_monomials(window):
        blocks.setdefault(L.total_momentum(m, config.d), []).append(m)
    values = {}
    for momentum, group in sorted(blocks.items()):
        images = [BR.phi_monomial_image(config, m) for m in group]
        rhos = {
            k: [F.apply_rho(k, img) for img in images]
            for k, _ in pot.nonzero_items()
        }
        n = len(group)
        gram = np.zeros((n, n))
        ham = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                g = images[i].inner(images[j]).real
                t = sum(
                    (a.conjugate() * images[j].terms[det]).real
                    * F.kinetic_excess(config, sum(map(L.norm_sq, det)))
                    for det, a in images[i].terms.items()
                    if det in images[j].terms
                )
                h = e0 * g + t
                for k, v in pot.nonzero_items():
                    h += lam * v * rhos[k][i].inner(rhos[k][j]).real
                gram[i, j] = gram[j, i] = g
                ham[i, j] = ham[j, i] = h
        w, u = np.linalg.eigh(gram)
        keep = w > pivot_tol * max(w[-1], 0.0)
        if keep.any():
            basis = u[:, keep] / np.sqrt(w[keep])
            values[momentum] = float(np.linalg.eigvalsh(basis.T @ ham @ basis)[0])
    return values


@pytest.mark.parametrize(
    "d, r", [(2, 1), (2, 5), (3, 1)], ids=["1", "5", "d3-1"]
)
def test_gram_paths_match_reference_loops(d, r, unit4, unit6):
    config = L.GasConfig(d=d, fermi_radius_sq=r, alpha=-1.0)
    window = B.TruncationWindow.from_radius(d, 1, 2)
    pot = unit4 if d == 2 else unit6
    eps = BR.isometry_audit(window, config).eps
    assert np.allclose(eps, _ref_isometry_eps(window, config), rtol=0, atol=1e-14)
    bound = BR.subspace_upper_bound(window, config, pot)
    want = _ref_subspace_values(window, config, pot)
    assert bound.sector_values.keys() == want.keys()
    for momentum, value in want.items():
        assert bound.sector_values[momentum] == pytest.approx(value, rel=1e-13)
    assert bound.value == pytest.approx(min(want.values()), rel=1e-13)


def test_cached_phi_images_are_read_only():
    # a geometry no other test uses, so a writable cache at fault cannot
    # leak the write into another test
    config = L.GasConfig(d=2, fermi_radius_sq=2, alpha=-0.75)
    image = BR.phi_monomial_image(config, (K1,))
    det = next(iter(image.terms))
    with pytest.raises(TypeError):
        image.terms[det] = 0j
    assert BR.phi_monomial_image(config, (K1,)) is image
    assert (2.0 * image - image - image).norm() == 0.0


# ------------------------------------------------------------------ fitting


def test_loglog_fit_recovers_power_law():
    xs = [2.0, 4.0, 8.0, 16.0]
    ys = [3.0 * x**-1.5 for x in xs]
    fit = BR.loglog_fit(xs, ys)
    assert fit.slope == pytest.approx(-1.5, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert fit.max_residual < 1e-12
    assert len(fit.points) == 4
    with pytest.raises(ValueError):
        BR.loglog_fit([1.0], [1.0])
