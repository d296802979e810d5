"""Test oracles: helpers only the tests call.

apply_exc_number and expectation are the direct forms of the excitation
number and of a Rayleigh quotient; potential_from_function truncates a
coefficient function and reports a finite window on what it dropped;
gram_matrix is the factorial Gram of a monomial list as a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fermibose.boson import monomial_norm_sq
from fermibose.fock import FermionVector, Potential, excitation_count
from fermibose.lattice import TWO_PI, GasConfig, ball_points, norm_sq


def apply_exc_number(config: GasConfig, vec: FermionVector) -> FermionVector:
    acc = {
        det: amp * excitation_count(config, det)
        for det, amp in vec.terms.items()
    }
    return FermionVector.finish(acc)


def expectation(op, vec: FermionVector) -> complex:
    """<v|op v> / <v|v> for an operator given as a vector map."""
    nsq = vec.norm_sq()
    if nsq == 0.0:
        raise ValueError("expectation of the zero vector")
    return vec.inner(op(vec)) / nsq


@dataclass(frozen=True)
class TailReport:
    """What a cutoff threw away, probed over a finite annulus."""

    cutoff_radius_sq: int
    probe_radius_sq: int
    discarded_weight: float  # sum over cutoff < |k|^2 <= probe of |k| |vhat|


def potential_from_function(fn, d: int, cutoff_radius_sq: int, probe_radius_sq=None):
    """Truncate a coefficient function to a ball, reporting the tail.

    Returns (Potential, TailReport).  The report sums |k| |vhat(k)| over the
    probe annulus; it is a finite window on the discarded weight, not a
    bound on the full tail.
    """
    if probe_radius_sq is None:
        probe_radius_sq = 4 * max(cutoff_radius_sq, 1)
    coeff = {k: fn(k) for k in ball_points(d, cutoff_radius_sq)}
    tail = sum(
        TWO_PI * math.sqrt(norm_sq(k)) * abs(fn(k))
        for k in ball_points(d, probe_radius_sq)
        if norm_sq(k) > cutoff_radius_sq
    )
    return Potential(d, coeff), TailReport(cutoff_radius_sq, probe_radius_sq, tail)


def gram_matrix(monomials) -> np.ndarray:
    return np.diag([monomial_norm_sq(m) for m in monomials])
