"""Test oracles: helpers only the tests call.

apply_exc_number and expectation are the direct forms of the excitation
number and of a Rayleigh quotient; potential_from_function truncates a
coefficient function and reports a finite window on what it dropped;
gram_matrix is the factorial Gram of a monomial list as a dense matrix;
momentum_combinations is the depth-first sector walk that
fock._momentum_combinations replaces with a numpy pass per depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fermibose.boson import monomial_norm_sq
from fermibose.fock import FermionVector, Potential, excitation_count
from fermibose.lattice import TWO_PI, GasConfig, add, ball_points, norm_sq, sub


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


def momentum_combinations(modes, n, momentum):
    """The n-subsets of modes summing to momentum, in the order of
    itertools.combinations(modes, n).

    reach[i][j] is the set of total momenta of j modes drawn from
    modes[i:], kept for the j a branch at index i can still need; the
    depth-first walk takes modes[i] only when the rest of the momentum
    stays reachable, so every branch it enters ends in a determinant.
    """
    m = len(modes)
    reach = [{} for _ in range(m + 1)]
    reach[m][0] = {(0,) * len(modes[0])}
    for i in range(m - 1, -1, -1):
        after = reach[i + 1]
        for j in range(max(0, n - i), min(n, m - i) + 1):
            got = set(after.get(j, ()))
            if j:
                got.update(add(modes[i], q) for q in after[j - 1])
            reach[i][j] = got
    basis = []
    chosen = []

    def descend(start, left, rest):
        if not left:
            basis.append(tuple(chosen))
            return
        for i in range(start, m - left + 1):
            remain = sub(rest, modes[i])
            if remain in reach[i + 1][left - 1]:
                chosen.append(modes[i])
                descend(i + 1, left - 1, remain)
                chosen.pop()

    if momentum in reach[0].get(n, ()):
        descend(0, n, momentum)
    return basis
