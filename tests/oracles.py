"""Test oracles: helpers only the tests call.

annihilate, create and move apply one ladder operator, or one move, to a
single determinant by a linear scan; the operators built on them
(apply_annihilator, apply_creator, apply_normal_commutator), the
excitation number and its weights, and the H1/H2 split of the
Hamiltonian (apply_h1, apply_h2) are the term-by-term forms the identity
tests and acceptance 1 check fermibose.fock against.
random_fermion_vector draws a few determinants around the Fermi ball.
h2_quadratic_parts is <psi|H2 psi> straight from a fermionic vector psi,
the reference for the pair forms of bridge.h2_expectation_audit.
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
from fermibose.fock import (
    FermionVector,
    Potential,
    apply_b,
    apply_b_dag,
    apply_d,
    apply_normal_t,
    apply_rho_parts,
    determinant,
    kinetic_excess,
)
from fermibose.lattice import (
    TWO_PI,
    GasConfig,
    add,
    ball_points,
    coupling,
    crescent,
    mode_key,
    neg,
    norm_sq,
    particle_count,
    sub,
)

# ------------------------------------------------------------ determinants


def annihilate(det, p):
    """Apply a_p to a single determinant.

    Returns (sign, new_det) or None when p is unoccupied.
    """
    for i, m in enumerate(det):
        if m == p:
            return (-1 if i & 1 else 1), det[:i] + det[i + 1 :]
    return None


def create(det, p):
    """Apply a_p^dag to a single determinant.

    Returns (sign, new_det) or None when p is already occupied.
    """
    key = mode_key(p)
    for i, m in enumerate(det):
        k = mode_key(m)
        if k == key:
            return None
        if k > key:
            return (-1 if i & 1 else 1), det[:i] + (p,) + det[i:]
    i = len(det)
    return (-1 if i & 1 else 1), det + (p,)


def move(det, src, dst):
    """Apply a_dst^dag a_src to a determinant, composing the two signs."""
    hit = annihilate(det, src)
    if hit is None:
        return None
    s1, reduced = hit
    hit = create(reduced, dst)
    if hit is None:
        return None
    s2, out = hit
    return s1 * s2, out


def _accumulate(acc, det, amp):
    new = acc.get(det)
    acc[det] = amp if new is None else new + amp


# ------------------------------------------------------------- operators


def apply_annihilator(p, vec: FermionVector) -> FermionVector:
    acc = {}
    for det, amp in vec.terms.items():
        hit = annihilate(det, p)
        if hit is not None:
            _accumulate(acc, hit[1], hit[0] * amp)
    return FermionVector.finish(acc)


def apply_creator(p, vec: FermionVector) -> FermionVector:
    acc = {}
    for det, amp in vec.terms.items():
        hit = create(det, p)
        if hit is not None:
            _accumulate(acc, hit[1], hit[0] * amp)
    return FermionVector.finish(acc)


def excitation_count(config: GasConfig, det) -> float:
    """Eigenvalue of the excitation number: (holes + outside particles)/2.

    Integer on determinants with the configured particle number, where the
    two halves agree.
    """
    r = config.fermi_radius_sq
    inside = sum(1 for p in det if norm_sq(p) <= r)
    holes = particle_count(config) - inside
    outside = len(det) - inside
    return 0.5 * (holes + outside)


def apply_exc_weight(config: GasConfig, vec: FermionVector, shift=0.0, power=0.5):
    """Diagonal map multiplying each determinant by (exc + shift)^power.

    apply_exc_weight(cfg, v) is the square root of the excitation number,
    used for the norm bounds on b and b^dag.
    """
    acc = {
        det: amp * (excitation_count(config, det) + shift) ** power
        for det, amp in vec.terms.items()
    }
    return FermionVector.finish(acc)


def apply_normal_commutator(k, q, config: GasConfig, vec: FermionVector) -> FermionVector:
    """Normal-ordered part of [b_k, b_q^dag].

    Two hole/particle exchange sums restricted by the Fermi surface; the
    scalar part |C_k| delta_{kq} is not included.  The operator annihilates
    the filled ball and is negative semidefinite at k == q.
    """
    r = config.fermi_radius_sq
    cq = crescent(q, config)
    acc = {}
    for det, amp in vec.terms.items():
        for p in cq:
            t = add(sub(p, k), q)
            if norm_sq(t) <= r:
                # -a_p a_t^dag, creation first
                hit = create(det, t)
                if hit is not None:
                    s1, mid = hit
                    hit = annihilate(mid, p)
                    if hit is not None:
                        _accumulate(acc, hit[1], -s1 * hit[0] * amp)
            if norm_sq(add(p, k)) > r:
                # -a_{p+q}^dag a_{p+k}
                hit = move(det, add(p, k), add(p, q))
                if hit is not None:
                    _accumulate(acc, hit[1], -hit[0] * amp)
    return FermionVector.finish(acc)


def apply_h1(config: GasConfig, pot: Potential, vec: FermionVector) -> FermionVector:
    """Dominant pair part: lambda sum_k vhat(k)(b_k^dag + b_-k)(b_-k^dag + b_k)."""
    lam = coupling(config)
    out = FermionVector()
    for k, v in pot.nonzero_items():
        mid = apply_b_dag(neg(k), config, vec) + apply_b(k, config, vec)
        out = out + (lam * v) * (
            apply_b_dag(k, config, mid) + apply_b(neg(k), config, mid)
        )
    return out


def apply_h2(config: GasConfig, pot: Potential, vec: FermionVector) -> FermionVector:
    """Remainder: :T: plus every interaction term involving d_k.

    H = E_0 + H1 + H2 holds exactly on the configured sector.
    """
    lam = coupling(config)
    out = apply_normal_t(config, vec)
    for k, v in pot.nonzero_items():
        dk, b_dag, b = apply_rho_parts(k, config, vec)
        tail = apply_b_dag(k, config, dk) + apply_b(neg(k), config, dk)
        mid = b_dag + b + dk
        tail = tail + apply_d(neg(k), config, mid)
        out = out + (lam * v) * tail
    return out


def h2_quadratic_parts(config: GasConfig, pot: Potential, psi: FermionVector):
    """(kinetic, interaction) pieces of <psi|H2 psi> / ||psi||^2.

    Uses the adjoint split <psi|X^dag Y psi> = <X psi|Y psi> with
    X = d_k + b_{-k}^dag + b_k, each piece applied on its own.
    """
    nsq = psi.norm_sq()
    if nsq == 0.0:
        raise ValueError("empty state")
    kin = sum(
        abs(a) ** 2 * kinetic_excess(config, det) for det, a in psi.terms.items()
    )
    lam = coupling(config)
    inter = 0.0
    for k, v in pot.nonzero_items():
        dk = apply_d(k, config, psi)
        x2 = apply_b_dag(neg(k), config, psi) + apply_b(k, config, psi)
        inter += lam * v * (2.0 * x2.inner(dk).real + dk.norm_sq())
    return kin / nsq, inter / nsq


def random_fermion_vector(
    config: GasConfig,
    rng,
    n_dets: int = 4,
    pool_radius_sq=None,
    n_particles=None,
):
    """Random normalized vector: a few determinants drawn from a mode pool
    around the Fermi ball, with complex gaussian amplitudes."""
    if pool_radius_sq is None:
        pool_radius_sq = config.fermi_radius_sq + 4
    pool = ball_points(config.d, pool_radius_sq)
    n = particle_count(config) if n_particles is None else n_particles
    if n > len(pool):
        raise ValueError("mode pool smaller than the particle number")
    terms = {}
    while len(terms) < n_dets:
        picks = rng.choice(len(pool), size=n, replace=False)
        det = determinant(pool[i] for i in picks)
        terms[det] = complex(rng.standard_normal(), rng.standard_normal())
    return FermionVector(terms).normalized()


# ------------------------------------------------------------ other oracles


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
