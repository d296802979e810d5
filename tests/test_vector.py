"""Tests for the shared sparse-vector arithmetic and the matrix frame."""

from __future__ import annotations

import math

import numpy as np

from fermibose import boson as B
from fermibose import bridge as BR
from fermibose import fock as F
from fermibose import lattice as L
from fermibose.vector import SparseVector, frame


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
    assert matrix.format == "csr"
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
