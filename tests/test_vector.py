"""Tests for the shared sparse-vector arithmetic and the matrix frame."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse

from fermibose import boson as B
from fermibose import bridge as BR
from fermibose import fock as F
from fermibose import lattice as L
from fermibose import vector as V
from fermibose.vector import CSR, SparseVector, frame


def test_arithmetic_keeps_the_subclass():
    det_a, det_b = ((0, 0), (1, 0)), ((0, 0), (0, 1))
    mono_a, mono_b = ((1, 0), (1, 0)), ((0, 1),)
    for v, w in (
        (F.FermionVector.from_determinant(det_a), F.FermionVector.from_determinant(det_b, 2.0)),
        (B.BosonVector.from_monomial(mono_a), B.BosonVector.from_monomial(mono_b, 2.0)),
    ):
        for out in (v + w, v - w, 3.0 * v, v * 3.0, -v, (v + w).pruned(), w.normalized()):
            assert type(out) is type(v)
    assert repr(F.FermionVector.from_determinant(det_a, 2.0)) == (
        "FermionVector(1 terms, norm=2)"
    )
    # the boson norm carries the factorial Gram weight: ||e_k^dag^2 vac||^2 = 2
    assert repr(B.BosonVector.from_monomial(mono_a) + B.BosonVector.vacuum()) == (
        "BosonVector(2 terms, norm=1.73205)"
    )


def test_frame_rows_in_first_seen_order():
    vectors = [
        SparseVector({"b": 2.0, "a": 1.0}),
        SparseVector(),
        SparseVector({"c": 4.0, "a": 3.0, "b": 5.0}),
    ]
    keys, matrix = frame(vectors)
    assert keys == ["b", "a", "c"]
    assert isinstance(matrix, CSR)
    assert np.array_equal(
        matrix.toarray(), [[2.0, 0.0, 5.0], [1.0, 0.0, 3.0], [0.0, 0.0, 4.0]]
    )


def test_finish_and_pruned_keep_the_term_order():
    acc = {"c": 3.0 + 0j, "a": 0j, "b": 4.0 + 0j, "d": -1e-9 + 0j}
    vec = F.FermionVector.finish(acc)
    assert list(vec.terms.items()) == [("c", 3.0 + 0j), ("b", 4.0 + 0j), ("d", -1e-9 + 0j)]
    fresh = {"b": 1j, "a": 2.0 + 0j}
    vec = F.FermionVector.finish(fresh)
    assert vec.terms is fresh  # nothing to drop: the accumulator is the vector
    assert vec.pruned() is vec
    # an amplitude exactly at tol * norm = 0.6 * 5 = 3 is dropped
    vec = F.FermionVector({"y": 4.0 + 0j, "x": 3.0 + 0j, "z": 0j})
    assert list(vec.pruned(0.6).terms.items()) == [("y", 4.0 + 0j)]
    assert list(vec.pruned(0.5).terms.items()) == [("y", 4.0 + 0j), ("x", 3.0 + 0j)]


def test_inner_products_add_left_to_right():
    """<x|y> adds its terms left to right, in the shorter vector's order,
    as a loop does, not compensated as sum() is for floats from Python
    3.12 and for complex numbers from 3.14: 1e16 + 1 rounds to 1e16."""
    amps = [1e16 + 0j, 1.0 + 0j, -1e16 + 0j]
    dets = [F.determinant([(0, 0), p]) for p in [(1, 0), (0, 1), (-1, 0)]]
    monos = [(), ((1, 0),), ((0, 1),)]  # every factorial weight is 1
    for cls, keys in ((SparseVector, "abc"), (F.FermionVector, dets), (B.BosonVector, monos)):
        x, ones = cls(zip(keys, amps)), cls(dict.fromkeys(keys, 1.0 + 0j))
        assert x.inner(ones) == ones.inner(x) == 0.0


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_float_sums_add_left_to_right(small2):
    """Builtin sum() compensates float sums from Python 3.12 on.  On values
    where that changes the result, every float sum here still equals the
    explicit left-to-right loop."""
    spread = [1e16, 1.0, 1.0]  # the 1.0s vanish one at a time, not as a 2.0
    assert _loop_sum(spread) != math.fsum(spread)
    amps = {"a": 1e8 + 0j, "b": 1.0 + 0j, "c": 1.0 + 0j}  # |amp|^2 = spread
    assert SparseVector(amps).norm_sq() == _loop_sum(spread)
    # vacuum and two single modes: every factorial weight is 1
    monos = [(), ((1, 0),), ((0, 1),)]
    assert B.BosonVector(zip(monos, amps.values())).norm_sq() == _loop_sum(spread)
    dets = [F.determinant([(0, 0), p]) for p in [(1, 0), (0, 1), (-1, 0)]]
    psi = F.FermionVector(zip(dets, amps.values()))
    assert BR._kinetic_sum(psi, [1.0] * len(dets)) == _loop_sum(spread)
    pot = F.Potential(2, {(0, 0): 1e16, (1, 0): 1.0, (-1, 0): 1.0})
    assert pot.value_at_origin() == _loop_sum(spread)
    big, small = {(1, 0): 1e16, (-1, 0): 1e16}, [(0, 1), (0, -1), (1, 1), (-1, -1)]
    pot = F.Potential(2, big | dict.fromkeys(small, 1.0))
    gaps = [v * len(L.crescent(k, small2)) for k, v in pot.nonzero_items()]
    assert _loop_sum(gaps) != math.fsum(gaps)
    lam = L.coupling(small2)
    want = (F.e_n0(small2, pot), F.e_n0(small2, pot) + lam * _loop_sum(gaps))
    assert F.trivial_bounds(small2, pot) == want


# ------------------------------------------- the CSR layer against scipy


def _random_frame(rng, rows, cols):
    """A frame of cols complex vectors over up to rows keys, some vectors
    empty: (keys, CSR record, scipy.sparse's coo_matrix(...).tocsr())."""
    vectors = []
    for _ in range(cols):
        keys = rng.choice(rows, size=rng.integers(0, rows // 2 + 1), replace=False)
        amps = rng.standard_normal((len(keys), 2)) * 10.0 ** rng.integers(-6, 7, (len(keys), 1))
        vectors.append(SparseVector({int(k): complex(*a) for k, a in zip(keys, amps)}))
    keys, p = frame(vectors)
    data, where, index = [], [], {k: i for i, k in enumerate(keys)}
    for j, vec in enumerate(vectors):
        for key, amp in vec.terms.items():
            data.append(amp)
            where.append((index[key], j))
    rows_, cols_ = zip(*where) if where else ((), ())
    want = scipy.sparse.coo_matrix((data, (rows_, cols_)), shape=p.shape).tocsr()
    return keys, p, want


def _random_real(rng, n, density):
    """A random real n x n scipy CSR matrix with some empty rows."""
    h = scipy.sparse.random(n, n, density=density, format="csr", random_state=rng.integers(2**31))
    h.data = rng.standard_normal(h.nnz) * 10.0 ** rng.integers(-6, 7, h.nnz)
    return h


def _record(m):
    return CSR(m.data, m.indices, m.indptr, m.shape)


def _assert_same_arrays(got, want):
    want = want.tocsr()
    want.sort_indices()
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        assert getattr(got, field).dtype == getattr(want, field).dtype, field
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_csr_layer_keeps_scipy_bytes():
    """frame, the matrix-vector and matrix products, the sums, the
    transposes, the dense arrays and Re(P^dag Q) give scipy.sparse's
    arrays, byte for byte, on random complex frames with empty vectors
    (columns), their transposes (empty rows) and real and int16 matrices
    with empty rows and columns; some sums cancel to exact zeros, which
    are dropped."""
    rng = np.random.default_rng(5)
    cancelled = 0
    for _ in range(30):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        _, p, want_p = _random_frame(rng, n, m)
        n = p.shape[0]
        _assert_same_arrays(p, want_p)
        h = _random_real(rng, n, rng.uniform(0.05, 0.6))
        x = rng.standard_normal(n)
        assert np.array_equal(_record(h) @ x, h @ x)
        for order in "CF":
            assert np.array_equal(_record(h).toarray(order), h.toarray(order))
        hp = _record(h) @ p
        _assert_same_arrays(hp, h @ want_p)
        for got, want in ((V.gram(p), want_p), (V.gram(p, hp), h @ want_p)):
            want = (want_p.conj().T @ want).real.toarray()
            assert got.flags.f_contiguous and want.flags.f_contiguous
            assert np.array_equal(got, want)
        # complex times complex: each product rounded as scipy rounds it
        _assert_same_arrays(_record(want_p.T.tocsr()) @ p, want_p.T.tocsr() @ want_p)
        signs = h.copy()
        signs.data = np.where(h.data > 0, 1, -1).astype(np.int16)
        for a in (signs, h, want_p, want_p.T.tocsr()):
            _assert_same_arrays(_record(a).T, a.T.tocsr())
            assert np.array_equal(_record(a).toarray(), a.toarray())
        # h minus some of its own entries, so that those sum to exact zeros
        g = _random_real(rng, n, rng.uniform(0.05, 0.6)) - h.multiply(rng.random((n, n)) < 0.5)
        g, hw = g.tocsr(), h @ want_p
        g.sum_duplicates()  # + takes rows whose columns ascend without repeats
        hw.sort_indices()
        for a, b in ((h, g), (signs, signs), (want_p, hw), (want_p, -want_p)):
            _assert_same_arrays(_record(a) + _record(b), a + b)
        cancelled += h.nnz - h.multiply(h + g != 0).nnz
    assert cancelled > 0


def test_pass_product_keeps_scipy_bytes():
    """fock._pass_product, which builds A^T and A from the moves, and the
    product of scipy's A^T and A as records give scipy's A^T A of random
    +-1 int16 matrices, whose off-diagonal sums often cancel to
    zero and are dropped; some determinants have no move."""
    rng = np.random.default_rng(7)
    cancelled = 0
    for _ in range(40):
        n, images = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        pairs = rng.random((images, n)) < rng.uniform(0.05, 0.5)
        rows, image = np.nonzero(pairs.T)  # moves in row order
        rows = rows.astype(np.int32)
        sign = rng.choice(np.array([-1, 1], dtype=np.int16), len(rows))
        a = scipy.sparse.csr_matrix((sign, (image, rows)), (images, n))
        want = a.T @ a
        _assert_same_arrays(F._pass_product(rows, sign, image, n), want)
        _assert_same_arrays(_record(a.T.tocsr()) @ _record(a), want)
        full = (a.T @ a).toarray()
        cancelled += int(((a.T.astype(bool) @ a.astype(bool)).toarray() & (full == 0)).sum())
    assert cancelled > 0


def test_csr_products_refuse_mismatched_shapes():
    """A vector or matrix that does not chain with a record, and a form of
    matrices of different row counts, raise ValueError before any kernel
    reads past an array: a 2 x 2 record times a length-3 vector is not
    the product of its first two entries."""
    h = CSR.from_counts(np.array([1.0, 2.0]), np.array([0, 1]), np.array([1, 1]), (2, 2))
    assert np.array_equal(h @ np.array([1.0, 1.0]), [1.0, 2.0])
    for x in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="matrix times a vector"):
            h @ x
    wide = CSR.from_counts(np.ones(3), np.array([0, 1, 2]), np.array([3]), (1, 3))
    with pytest.raises(ValueError, match="matrix times a"):
        h @ wide
    with pytest.raises(ValueError, match="forms of a"):
        V.gram(h, wide)
    with pytest.raises(ValueError, match="matrix plus a"):
        h + wide
    assert np.array_equal(V.gram(h), [[1.0, 0.0], [0.0, 4.0]])


def _dense_record(a):
    """The CSR record of the nonzero entries of a dense array."""
    rows, cols = np.nonzero(a)
    return CSR.from_counts(a[rows, cols], cols, np.bincount(rows, minlength=len(a)), a.shape)


def _assert_eigenpair(h, energy, vec, tol):
    assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-13)
    assert np.linalg.norm(h @ vec - energy * vec) <= tol * abs(energy)


@pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 300])
def test_lowest_eigenpair_matches_eigh(n):
    """On random sparse symmetric matrices below, at and above the 20
    Lanczos vectors held, the lowest eigenvalue is numpy.linalg.eigh's,
    the residual recomputed with h @ v is at most tol * |energy|, and a
    second call gives the same bytes."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    a = a + a.T + np.diag(rng.standard_normal(n))
    h, tol = _dense_record(a), 1e-9
    energy, vec = V.lowest_eigenpair(h, tol)
    assert energy == pytest.approx(np.linalg.eigh(a)[0][0], rel=1e-10)
    _assert_eigenpair(h, energy, vec, tol)
    again = V.lowest_eigenpair(h, tol)
    assert again[0] == energy and again[1].tobytes() == vec.tobytes()


def test_lowest_eigenpair_on_a_closed_krylov_space():
    """A diagonal matrix of three distinct values, the lowest repeated,
    closes the Krylov space (beta = 0) after three steps, as the
    free-gas Hamiltonian does: the pair is exact and lies in the lowest
    eigenspace."""
    d = np.tile([3.0, -1.0, 2.0, -1.0], 15)
    h = CSR.from_counts(d, np.arange(60), np.ones(60, dtype=np.int64), (60, 60))
    energy, vec = V.lowest_eigenpair(h, 1e-9)
    assert energy == pytest.approx(-1.0, rel=1e-15)
    _assert_eigenpair(h, energy, vec, 1e-9)
    assert np.abs(vec[d != -1.0]).max() < 1e-15


def test_lowest_eigenpair_with_empty_rows():
    """Rows with no entries, the first and the last among them, read 0 in
    the solver's own product."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.3)
    a = a + a.T
    empty = [0, 17, 38, 39]
    a[empty], a[:, empty] = 0.0, 0.0
    h = _dense_record(a)
    assert (np.diff(h.indptr)[empty] == 0).all()
    energy, vec = V.lowest_eigenpair(h, 1e-9)
    assert energy == pytest.approx(np.linalg.eigh(a)[0][0], rel=1e-10)
    _assert_eigenpair(h, energy, vec, 1e-9)


def test_lowest_eigenpair_raises_when_it_does_not_converge():
    rng = np.random.default_rng(300)
    a = rng.standard_normal((300, 300))
    h = _dense_record(a + a.T)
    with pytest.raises(ValueError, match="did not converge in 1 cycles"):
        V.lowest_eigenpair(h, 1e-9, maxiter=1)
