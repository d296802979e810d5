"""Tests for the shared sparse-vector arithmetic and the matrix frame."""

from __future__ import annotations

import numpy as np

from fermibose import boson as B
from fermibose import fock as F
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
