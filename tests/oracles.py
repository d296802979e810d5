"""Test oracles: helpers only the tests call.

annihilate, create and move apply one ladder operator, or one move, to a
single determinant by a linear scan; the operators built on them
(apply_annihilator, apply_creator, apply_normal_commutator), the
excitation number and its weights, the Hamiltonian and its H1/H2 split
(apply_h, apply_h1, apply_h2) are the term-by-term forms the identity
tests and acceptances 1 and 2 check fermibose.fock against;
apply_phi_annihilator is phi_k = |C_k|^{-1/2} b_k, the intertwining
tests' annihilator.
random_fermion_vector draws a few determinants around the Fermi ball.
h2_quadratic_parts is <psi|H2 psi> straight from a fermionic vector psi,
the reference for the pair forms of bridge.h2_expectation_audit.
apply_exc_number and expectation are the direct forms of the excitation
number and of a Rayleigh quotient; potential_from_function truncates a
coefficient function and reports a finite window on what it dropped;
gram_matrix is the factorial Gram of a monomial list as a dense matrix;
momentum_combinations is the depth-first sector walk that
fock._momentum_combinations replaces with a numpy pass per depth;
moves is the tuple move kernel (memoised mode keys, one bisect per move)
that fock._move_pass replaces with one bitmask pass, kept as the fast
reference for the tuple-move Hamiltonian assembly;
hb_domination_check checks 0 <= H_fast <= multiplier * H_slow on a
window, H_slow the quadratic form of the slow weights hb_tilde_weights;
subspace_upper_bound_per_block is the subspace bound with one frame and
one Hamiltonian assembly per total-momentum block, which
bridge.subspace_upper_bound replaces with one of each over all blocks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from fermibose.boson import (
    TruncationWindow,
    _whitened,
    hb_weights,
    monomial_norm_sq,
    window_monomials,
)
from fermibose.bridge import PIVOT_TOL, SubspaceBound, _phi_scale, phi_monomial_image
from fermibose.fock import (
    FermionVector,
    Potential,
    apply_b,
    apply_b_dag,
    apply_d,
    apply_normal_t,
    apply_rho,
    apply_rho_parts,
    determinant,
    e_n0,
    hamiltonian_matrix,
    kinetic_excess,
)
from fermibose.lattice import (
    TWO_PI,
    GasConfig,
    add,
    ball_points,
    coupling,
    crescent,
    crescent_ratio,
    mode_key,
    neg,
    norm_sq,
    particle_count,
    sub,
    total_momentum,
)
from fermibose.vector import frame, gram

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


class _KeyMemo(dict):
    """mode -> mode_key(mode), filled on first use."""

    def __missing__(self, p):
        key = self[p] = mode_key(p)
        return key


_KEYS = _KeyMemo()


def moves(items, k, r=None):
    """The moves p -> p-k of sum_p a_{p-k}^dag a_p on (det, tag) pairs.

    Yields (tag, sign, image, side) for every move that lands on an
    unoccupied mode, determinant by determinant and particle by particle.
    With r, side is the pair (|p|^2 <= r, |p-k|^2 <= r): the sides of the
    Fermi ball the move starts and ends on; without r it is None.

    Each yield is a_{p-k}^dag a_p applied to det: the target's slot j in
    det without p is one bisect on the determinant's mode keys, and the
    sign (-1)^(i+j) is that of a_p at slot i times that of a_{p-k}^dag at
    j.
    """
    targets = {}  # p -> (p-k, mode_key(p-k), side)
    for det, tag in items:
        keys = [_KEYS[p] for p in det]
        occupied = set(det)
        for i, p in enumerate(det):
            hit = targets.get(p)
            if hit is None:
                t = sub(p, k)
                key_t = _KEYS[t]
                side = None if r is None else (keys[i][0] <= r, key_t[0] <= r)
                hit = targets[p] = (t, key_t, side)
            t, key_t, side = hit
            if t in occupied:
                if t == p:
                    yield tag, 1, det, side
                continue
            j = bisect_left(keys, key_t)
            if j > i:
                j -= 1
                out = det[:i] + det[i + 1 : j + 1] + (t,) + det[j + 1 :]
            else:
                out = det[:j] + (t,) + det[j:i] + det[i + 1 :]
            yield tag, (-1 if (i + j) & 1 else 1), out, side


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


def apply_h(config: GasConfig, pot: Potential, vec: FermionVector) -> FermionVector:
    """Full Hamiltonian on the configured particle-number sector:

        H = E_0 + :T: + lambda sum_{k != 0} vhat(k) rho_k^dag rho_k
    """
    lam = coupling(config)
    out = e_n0(config, pot) * vec + apply_normal_t(config, vec)
    for k, v in pot.nonzero_items():
        out = out + (lam * v) * apply_rho(neg(k), apply_rho(k, vec))
    return out


def apply_phi_annihilator(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    """phi_k = |C_k|^{-1/2} b_k, the adjoint of bridge.apply_phi_creator."""
    return _phi_scale(k, config) * apply_b(k, config, vec)


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
        abs(a) ** 2 * kinetic_excess(config, sum(map(norm_sq, det)))
        for det, a in psi.terms.items()
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


def subspace_upper_bound_per_block(window, config: GasConfig, pot: Potential) -> SubspaceBound:
    """bridge.subspace_upper_bound block by block: each total-momentum
    block gets its own frame, Hamiltonian over its own determinants and
    Gram and Hamiltonian forms."""
    monos = window_monomials(window)
    blocks = {}
    for m in monos:
        blocks.setdefault(total_momentum(m, config.d), []).append(m)
    best = math.inf
    sector_values = {}
    dropped = 0
    for momentum, group in sorted(blocks.items()):
        dets, p = frame([phi_monomial_image(config, m) for m in group])
        overlap = gram(p)
        ham = gram(p, hamiltonian_matrix(config, pot, dets) @ p)
        w, u = np.linalg.eigh(overlap)
        keep = w > PIVOT_TOL * max(w[-1], 0.0)
        dropped += int(len(group) - keep.sum())
        if not keep.any():
            continue
        basis = u[:, keep] / np.sqrt(w[keep])
        vals = np.linalg.eigvalsh(basis.T @ ham @ basis)
        sector_values[momentum] = float(vals[0])
        best = min(best, float(vals[0]))
    return SubspaceBound(
        value=best,
        sector_values=sector_values,
        dimension=len(monos),
        dropped_directions=dropped,
    )


# ------------------------------------------------------------- domination


def hb_tilde_weights(pot) -> dict:
    """g_k = |k| vhat(k), physical units."""
    return {
        k: TWO_PI * math.sqrt(norm_sq(k)) * v for k, v in pot.nonzero_items()
    }


@dataclass
class DominationReport:
    """PSD audit of the two quadratic forms on a truncation window.

    multiplier is the full prefactor c N^{1 - alpha - 1/d} applied to the
    slow-weight form; ratio_constant is the crescent-bound constant c2 it
    was derived from.
    """

    ratio_constant: float
    multiplier: float
    min_eig_base: float
    min_eig_gap: float
    passed: bool
    witness: np.ndarray | None


def hb_domination_check(
    config: GasConfig, pot, window: TruncationWindow, tol: float = 1e-10
) -> DominationReport:
    """Check 0 <= H_fast <= multiplier * H_slow on the window.

    The multiplier comes from the fitted crescent constant:
    |C_k| <= c2 kf^(d-1) |k| in lattice units gives
    g_k <= c2 kf^(d-1) / (4 pi N^{1-1/d}) * N^{1-alpha-1/d} gtilde_k.
    """
    n = particle_count(config)
    kf = math.sqrt(config.fermi_radius_sq)
    c2 = max(crescent_ratio(k, config) for k, _ in pot.nonzero_items())
    scale_const = c2 * kf ** (config.d - 1) / (4 * math.pi * n ** (1 - 1 / config.d))
    multiplier = scale_const * n ** (1 - config.alpha - 1 / config.d)

    monos = window_monomials(window)
    base_w, inv = _whitened(hb_weights(config, pot), monos)
    slow_w, _ = _whitened(hb_tilde_weights(pot), monos)
    gap = multiplier * slow_w - base_w
    w_base, u_base = np.linalg.eigh(base_w)
    w_gap, u_gap = np.linalg.eigh(gap)
    scale = max(abs(w_base).max(), abs(w_gap).max(), 1.0)
    ok_base = w_base[0] >= -tol * scale
    ok_gap = w_gap[0] >= -tol * scale
    witness = None
    if not ok_base:
        witness = inv * u_base[:, 0]
    elif not ok_gap:
        witness = inv * u_gap[:, 0]
    return DominationReport(
        ratio_constant=c2,
        multiplier=multiplier,
        min_eig_base=float(w_base[0]),
        min_eig_gap=float(w_gap[0]),
        passed=ok_base and ok_gap,
        witness=witness,
    )
