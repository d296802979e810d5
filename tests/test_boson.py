"""Bosonic side tests.

The factorial Gram and the commutation relations are checked against a
dense oracle built from explicit occupation dictionaries; the window
minimum is checked against the generalized eigenproblem of the form and
the factorial Gram, and against hand-derived closed forms (the first
nontrivial single-pair minimum is 4 - 2 sqrt(2)).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from fermibose import boson as B
from fermibose import fock as F
from fermibose import lattice as L

UNIT4_D2 = Path(__file__).resolve().parents[1] / "configs" / "unit4_d2.potential"

UNIT2 = tuple(k for k in L.ball_points(2, 1) if any(k))


def window2(m=2, radius_sq=1):
    return B.TruncationWindow.from_radius(2, radius_sq, m)


def gram_oracle(mono):
    out = 1.0
    for mult in Counter(mono).values():
        out *= math.factorial(mult)
    return out


# ------------------------------------------------------------- monomials


def test_monomial_canonical_order():
    m = B.monomial([(1, 0), (-1, 0), (1, 0)])
    assert m == ((-1, 0), (1, 0), (1, 0))
    assert len(m) == 3
    with pytest.raises(ValueError):
        B.monomial([(0, 0)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(UNIT2), min_size=0, max_size=6))
def test_monomial_norm_matches_factorial_oracle(modes):
    mono = B.monomial(modes)
    assert B.monomial_norm_sq(mono) == gram_oracle(mono)


def test_monomial_total_momentum():
    m = B.monomial([(1, 0), (1, 0), (0, -1)])
    assert L.total_momentum(m, 2) == (2, -1)
    assert L.total_momentum((), 2) == (0, 0)


def test_vector_inner_product_gram():
    v = B.BosonVector.from_monomial([(1, 0), (1, 0)], 1.0)
    assert v.norm_sq() == pytest.approx(2.0)
    w = B.BosonVector.from_monomial([(1, 0), (1, 0)], 2.0 + 1j)
    assert v.inner(w) == pytest.approx(2 * (2.0 + 1j))
    u = B.BosonVector.from_monomial([(0, 1)], 3.0)
    assert v.inner(u) == 0.0
    assert (v + u).norm_sq() == pytest.approx(2.0 + 9.0)


def test_vacuum_and_pruning():
    vac = B.BosonVector.vacuum()
    assert vac.norm() == 1.0
    tiny = vac + B.BosonVector.from_monomial([(1, 0)], 1e-18)
    assert len(tiny.pruned()) == 1
    with pytest.raises(ValueError):
        B.BosonVector().normalized()


# ----------------------------------------------------- ladder operators


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(UNIT2), min_size=0, max_size=5),
    st.sampled_from(UNIT2),
    st.sampled_from(UNIT2),
)
def test_ccr(modes, k, q):
    v = B.BosonVector.from_monomial(modes)
    ek_eq = B.apply_boson_annihilator(k, B.apply_boson_annihilator(q, v))
    eq_ek = B.apply_boson_annihilator(q, B.apply_boson_annihilator(k, v))
    assert (ek_eq - eq_ek).norm() == 0.0
    lhs = B.apply_boson_annihilator(k, B.apply_boson_creator(q, v))
    rhs = B.apply_boson_creator(q, B.apply_boson_annihilator(k, v))
    comm = lhs - rhs
    if k == q:
        assert (comm - v).norm() < 1e-12
    else:
        assert comm.norm() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(UNIT2), min_size=0, max_size=4),
    st.lists(st.sampled_from(UNIT2), min_size=0, max_size=4),
    st.sampled_from(UNIT2),
)
def test_creator_annihilator_adjoint(ma, mb, k):
    u = B.BosonVector.from_monomial(ma)
    v = B.BosonVector.from_monomial(mb)
    lhs = u.inner(B.apply_boson_creator(k, v))
    rhs = B.apply_boson_annihilator(k, u).inner(v)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_creator_rejects_zero_mode():
    with pytest.raises(ValueError):
        B.apply_boson_creator((0, 0), B.BosonVector.vacuum())


def test_number_operator_from_ladder():
    mono = [(1, 0), (1, 0), (0, 1)]
    v = B.BosonVector.from_monomial(mono)
    n_tot = 0.0
    for k in UNIT2:
        n_tot += v.inner(
            B.apply_boson_creator(k, B.apply_boson_annihilator(k, v))
        ).real
    assert n_tot == pytest.approx(3.0 * v.norm_sq())


# -------------------------------------------------------------- windows


def test_window_validation():
    with pytest.raises(ValueError):
        B.TruncationWindow(modes=((1, 0),), max_degree=2)  # not closed
    with pytest.raises(ValueError):
        B.TruncationWindow(modes=((0, 0), (0, 0)), max_degree=2)
    with pytest.raises(ValueError):
        B.TruncationWindow(modes=((1, 0), (-1, 0)), max_degree=-1)
    w = B.TruncationWindow(modes=[[1, 0], [-1, 0]], max_degree=3)
    assert w.modes == ((-1, 0), (1, 0))
    assert w.d == 2


def test_window_from_radius():
    w = window2(m=2)
    assert len(w.modes) == 4
    assert set(w.modes) == set(UNIT2)
    with pytest.raises(ValueError):
        B.TruncationWindow.from_radius(2, 0, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.sampled_from([1, 2, 4]))
def test_window_dims_match_enumeration(m, radius_sq):
    w = B.TruncationWindow.from_radius(2, radius_sq, m)
    monos = B.window_monomials(w)
    assert len(monos) == B.window_dim(w)
    by_deg = Counter(len(mono) for mono in monos)
    for deg in range(m + 1):
        assert by_deg[deg] == math.comb(deg + len(w.modes) - 1, deg)
    # ordered by degree, no duplicates
    assert sorted(monos, key=len) == list(monos)
    assert len(set(monos)) == len(monos)


# -------------------------------------------------------------- weights


def test_check_weights_collects_problems():
    with pytest.raises(ValueError, match="missing opposite"):
        B.check_weights({(1, 0): 1.0})
    with pytest.raises(ValueError, match="zero mode"):
        B.check_weights({(0, 0): 1.0, (1, 0): 1.0, (-1, 0): 1.0})
    with pytest.raises(ValueError, match="!="):
        B.check_weights({(1, 0): 1.0, (-1, 0): 2.0})


def test_hb_weights_values(small2):
    pot = F.unit_potential(2)
    w = B.hb_weights(small2, pot)
    # lambda = N^(-alpha)/2 = 5/2 at alpha=-1, |C_k| = 3 for unit modes
    assert set(w) == set(UNIT2)
    for k in UNIT2:
        assert w[k] == pytest.approx(2.5 * 3.0)


def test_hb_tilde_weights_values():
    pot = F.unit_potential(2)
    w = O.hb_tilde_weights(pot)
    for k in UNIT2:
        assert w[k] == pytest.approx(2 * math.pi)


def test_hb_apply_vacuum_expectation(small2):
    pot = F.unit_potential(2)
    w = B.hb_weights(small2, pot)
    vac = B.BosonVector.vacuum()
    image = B.hb_apply(w, vac)
    # (e_k^dag + e_{-k})(e_{-k}^dag + e_k) vacuum = vacuum + pair excitation
    assert vac.inner(image).real == pytest.approx(sum(w.values()))
    lower, upper = F.trivial_bounds(small2, pot)
    assert vac.inner(image).real == pytest.approx(upper - lower)


def test_hb_form_matrix_single_pair_frozen():
    w = {(1, 0): 1.0, (-1, 0): 1.0}
    monos = [(), ((-1, 0), (1, 0))]
    mat = B.hb_form_matrix(w, monos)
    # each mode contributes 1 to the diagonal vacuum entry and couples the
    # vacuum to the charge-zero pair state
    assert mat == pytest.approx(np.array([[2.0, 2.0], [2.0, 6.0]]))


def test_hb_form_matrix_is_symmetric(rng):
    w = {(1, 0): 0.7, (-1, 0): 0.7, (0, 1): 1.3, (0, -1): 1.3}
    monos = B.window_monomials(window2(m=3))
    mat = B.hb_form_matrix(w, monos)
    assert np.allclose(mat, mat.T, atol=1e-12)


def _ref_hb_form_matrix(weights, monomials):
    # the pairwise inner-product loop hb_form_matrix replaced
    vecs = [B.BosonVector.from_monomial(m) for m in monomials]
    images = [B.hb_apply(weights, v) for v in vecs]
    n = len(monomials)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = vecs[i].inner(images[j]).real
    return out


def test_hb_form_matrix_matches_reference_loop(small2, unit4):
    monos = B.window_monomials(window2(m=3))
    for w in (B.hb_weights(small2, unit4), O.hb_tilde_weights(unit4)):
        assert np.array_equal(B.hb_form_matrix(w, monos), _ref_hb_form_matrix(w, monos))


# ---------------------------------------------------- truncated minimum


def scipy_eigh_min(mat, gram):
    import scipy.linalg

    return float(scipy.linalg.eigh(mat, gram, eigvals_only=True)[0])


def test_hb_min_truncated_single_pair():
    w = {(1, 0): 1.0, (-1, 0): 1.0}
    window = B.TruncationWindow(modes=((1, 0), (-1, 0)), max_degree=2)
    res = B.hb_min_truncated(w, window)
    assert res.value == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=1e-14)
    # the reported argmin achieves the reported value
    num = res.argmin.inner(B.hb_apply(w, res.argmin)).real
    den = res.argmin.norm_sq()
    assert num / den == pytest.approx(res.value, rel=1e-12)


def test_hb_min_monotone_and_decaying():
    w = {(1, 0): 1.0, (-1, 0): 1.0}
    values = []
    for m in range(0, 9):
        window = B.TruncationWindow(modes=((1, 0), (-1, 0)), max_degree=m)
        values.append(B.hb_min_truncated(w, window).value)
    assert values[0] == pytest.approx(2.0)
    assert values[2] == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=1e-14)
    # odd degrees cannot improve a charge-0 minimizer
    assert values[1] == pytest.approx(values[0], rel=1e-14)
    assert values[3] == pytest.approx(values[2], rel=1e-14)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    # strictly below half the vacuum energy once six quanta are allowed
    assert values[6] < 0.5 * values[0]


def test_hb_min_argmin_rayleigh_quotient(small2):
    pot = F.unit_potential(2)
    w = B.hb_weights(small2, pot)
    window = window2(m=4)
    res = B.hb_min_truncated(w, window)
    num = res.argmin.inner(B.hb_apply(w, res.argmin)).real
    assert num / res.argmin.norm_sq() == pytest.approx(res.value, rel=1e-12)
    assert all(len(m) <= window.max_degree for m in res.argmin.terms)


def test_hb_min_outside_weight():
    # support mode (1, 1) is outside the unit window, so it contributes
    # its vacuum weight and nothing else
    w = {
        (1, 0): 1.0,
        (-1, 0): 1.0,
        (1, 1): 0.4,
        (-1, -1): 0.4,
    }
    window = window2(m=2)
    res = B.hb_min_truncated(w, window)
    inner = B.hb_min_truncated(
        {(1, 0): 1.0, (-1, 0): 1.0}, window
    )
    assert res.value == pytest.approx(inner.value + 0.8)


def test_hb_min_never_below_dense_span_minimum(small2):
    # the window minimum is the minimum over the full truncated span
    pot = F.unit_potential(2)
    w = B.hb_weights(small2, pot)
    window = window2(m=2)
    res = B.hb_min_truncated(w, window)
    monos = B.window_monomials(window)
    dense = scipy_eigh_min(B.hb_form_matrix(w, monos), O.gram_matrix(monos))
    assert res.value == pytest.approx(dense, rel=0.0, abs=1e-10)


@pytest.mark.parametrize(
    "radius_sq, degree, expect, product",
    [
        (1, 2, 19.019, 23.787),
        (20, 2, 787.40, 984.77),
        (20, 4, 581.15, 727.55),
    ],
)
def test_hb_min_is_lowest_eigenpair_of_whitened_form(
    radius_sq, degree, expect, product
):
    # two pairs share the degree cap, so the window minimum lies strictly
    # below the best product of per-pair ground states (``product``)
    config = L.GasConfig(d=2, fermi_radius_sq=radius_sq, alpha=-1.0)
    w = B.hb_weights(config, F.load_potential(str(UNIT4_D2), 2))
    window = window2(m=degree)
    res = B.hb_min_truncated(w, window)
    monos = B.window_monomials(window)
    inv = np.array([1.0 / math.sqrt(gram_oracle(m)) for m in monos])
    whitened = inv[:, None] * B.hb_form_matrix(w, monos) * inv[None, :]
    assert res.value == pytest.approx(np.linalg.eigvalsh(whitened)[0], rel=1e-12)
    assert res.value == pytest.approx(expect, abs=0.005)
    assert res.value < product
    num = res.argmin.inner(B.hb_apply(w, res.argmin)).real
    assert num / res.argmin.norm_sq() == pytest.approx(res.value, rel=1e-12)
    assert res.argmin.norm() == pytest.approx(1.0, rel=1e-12)
    whitened_coeffs = [
        a.real * math.sqrt(gram_oracle(m)) for m, a in res.argmin.terms.items()
    ]
    assert max(whitened_coeffs, key=abs) > 0.0


# ------------------------------------------------------------ domination


def test_domination_check_passes(small2):
    pot = F.unit_potential(2)
    report = O.hb_domination_check(small2, pot, window2(m=2))
    assert report.passed
    assert report.witness is None
    assert report.min_eig_base >= -1e-10
    assert report.min_eig_gap >= -1e-10
    n = L.particle_count(small2)
    kf = math.sqrt(small2.fermi_radius_sq)
    expect = (
        report.ratio_constant
        * kf ** (small2.d - 1)
        / (4 * math.pi * n ** 0.5)
        * n ** (1 - small2.alpha - 0.5)
    )
    assert report.multiplier == pytest.approx(expect)


def test_domination_check_larger_config():
    config = L.GasConfig(d=2, fermi_radius_sq=4, alpha=-1.0)
    pot = F.unit_potential(2, radius_sq=2)
    window = B.TruncationWindow.from_radius(2, 2, 2)
    report = O.hb_domination_check(config, pot, window)
    assert report.passed


def test_domination_multiplier_saturates_at_crescent_bound(small2):
    # with the fitted constant the base weights never exceed
    # multiplier * slow weights mode by mode
    pot = F.unit_potential(2)
    base = B.hb_weights(small2, pot)
    slow = O.hb_tilde_weights(pot)
    report = O.hb_domination_check(small2, pot, window2(m=2))
    for k in base:
        assert base[k] <= report.multiplier * slow[k] + 1e-12


# ---------------------------------------------------------------- random


def test_random_boson_vector(rng):
    v = B.random_boson_vector(window2(m=3), rng, n_terms=5)
    assert v.norm() == pytest.approx(1.0)
    assert all(len(m) <= 3 for m in v.terms)
