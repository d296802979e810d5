"""The excitation map between bosonic monomials and fermionic states.

phi sends a monomial e_{k_1}^dag ... e_{k_m}^dag applied to the bosonic
vacuum to the fermionic state built by the normalized pair creators
phi_k^dag = |C_k|^{-1/2} b_k^dag acting on the filled ball.  The map is
exactly linear and commutes with creators by construction; everything
else it almost preserves (inner products, annihilators, the dominant
Hamiltonian) is measured here exactly, term by term, with no sampling.

Monomial images are cached per (config, monomial suffix), so sweeps over
windows reuse each other's work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import boson, fock
from .lattice import (
    GasConfig,
    TWO_PI,
    coupling,
    crescent,
    norm_sq,
    total_momentum,
)
from .boson import BosonVector, TruncationWindow, window_monomials
from .fock import FermionVector
from .vector import frame, gram, ordered_sum


@lru_cache(maxsize=None)
def phi_monomial_image(config: GasConfig, mono: tuple) -> FermionVector:
    """Image of one monomial: phi_{k_1}^dag ... phi_{k_m}^dag psi0.

    The cached result is shared by every caller, so its terms are a
    read-only mapping.
    """
    if not mono:
        image = fock.psi0(config)
    else:
        tail = phi_monomial_image(config, mono[1:])
        image = apply_phi_creator(mono[0], config, tail)
    image.terms = MappingProxyType(image.terms)
    return image


def phi_map(f: BosonVector, config: GasConfig) -> FermionVector:
    """Linear extension of the monomial map."""
    out = FermionVector()
    for mono, amp in f.terms.items():
        out = out + amp * phi_monomial_image(config, mono)
    return out


def _phi_scale(k, config: GasConfig) -> float:
    """|C_k|^(-1/2), the normalisation of phi_k = |C_k|^(-1/2) b_k."""
    size = len(crescent(k, config))
    if size == 0:
        raise ValueError(f"mode {k} has an empty crescent; phi_k is undefined")
    return 1.0 / math.sqrt(size)


def apply_phi_creator(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    return _phi_scale(k, config) * fock.apply_b_dag(k, config, vec)


def _max_by_degree(values):
    """{degree: largest value} over (monomial, value) pairs, in monomial order."""
    out = {}
    for m, v in values:
        out[len(m)] = max(out.get(len(m), 0.0), v)
    return out


# ------------------------------------------------------------ isometry audit


@dataclass
class IsometryReport:
    """How far the monomial images are from an isometric frame.

    eps is the matrix of <phi(m_i), phi(m_j)> minus the bosonic Gram, in
    the monomial order of `monomials`.  Entries between monomials of
    different degree or total momentum vanish identically: their images
    share no determinant.
    operator_norm_bound is the crude bound dim * max|eps| on the deviation
    of Phi^* Phi from the identity in the normalized basis.
    """

    monomials: list
    eps: np.ndarray
    max_abs_eps: float
    operator_norm_bound: float
    max_abs_by_degree: dict


def isometry_audit(window: TruncationWindow, config: GasConfig) -> IsometryReport:
    monos = window_monomials(window)
    _, p = frame([phi_monomial_image(config, m) for m in monos])
    eps = gram(p) - np.diag([boson.monomial_norm_sq(m) for m in monos])
    by_degree = _max_by_degree(zip(monos, np.max(np.abs(eps), axis=1).tolist()))
    max_abs = max(by_degree.values())
    return IsometryReport(
        monomials=monos,
        eps=eps,
        max_abs_eps=max_abs,
        operator_norm_bound=len(monos) * max_abs,
        max_abs_by_degree=by_degree,
    )


def isometry_shape_constant(report: IsometryReport, config: GasConfig) -> float:
    """Fitted C in max|eps_m| <= C m(m-1)/2 m! k_F^(1-d) over the report."""
    kf = config.fermi_momentum
    best = 0.0
    for deg, val in report.max_abs_by_degree.items():
        if deg < 2:
            continue
        scale = math.comb(deg, 2) * math.factorial(deg) * kf ** (1 - config.d)
        best = max(best, val / scale)
    return best


# ------------------------------------------------------------- intertwining


@dataclass
class IntertwineReport:
    """Exact residuals of phi against the bosonic annihilator on a window.

    annihilator_max is max over window monomials and window modes of
    ||(phi_k Phi - Phi e_k) mono|| / ||mono||; per_monomial holds each
    monomial's max over the modes and max_abs_by_degree each degree's
    max over its monomials.  The creation direction is an operator
    identity, phi_k^dag Phi = Phi e_k^dag, so it has no residual to audit.
    """

    annihilator_max: float
    per_monomial: dict
    max_abs_by_degree: dict


def intertwine_residual(window: TruncationWindow, config: GasConfig) -> IntertwineReport:
    """phi_k Phi(mono) against count(k) Phi(mono with one k removed) for
    every window monomial and mode k, from one encoding of the images and
    one b_k pass over all of them per k, which skips the other moves of
    rho_k.  Both images are of window monomials, so none outside is built."""
    monos = window_monomials(window)
    images = [phi_monomial_image(config, m) for m in monos]
    _, modes = fock.rho_parts(window.modes, config.fermi_radius_sq, images, fock.PARTS[2:])
    per = dict.fromkeys(monos, 0.0)
    for k, parts in zip(window.modes, modes):
        scale = _phi_scale(k, config)
        for mono, [bk] in zip(monos, parts):
            resid = scale * bk
            if k in mono:
                i = mono.index(k)
                reduced = phi_monomial_image(config, mono[:i] + mono[i + 1 :])
                resid = resid - mono.count(k) * reduced
            per[mono] = max(per[mono], resid.norm())
        del parts, bk, resid  # not held through the next mode's pass
    by_degree = _max_by_degree(per.items())
    return IntertwineReport(max(by_degree.values()), per, by_degree)


# --------------------------------------------------------- remainder audit


@dataclass
class H2Audit:
    value: float
    bound: float
    kinetic_part: float
    interaction_part: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


def _kinetic_sum(psi: FermionVector, excess) -> float:
    """<psi|:T: psi>, unnormalised, from the kinetic excess of each of
    psi's determinants, in order."""
    return ordered_sum(
        (a * a.conjugate()).real * e for a, e in zip(psi.terms.values(), excess)
    )


def _mode_parts(config: GasConfig, pot, vecs, parts=fock.PARTS):
    """(excess, modes) of vecs from one encoding: excess[i] lists the
    kinetic excess of each determinant of vecs[i], and, for each nonzero
    mode k of pot in turn, (lambda vhat(k), [(d_k vec, (b_{-k}^dag + b_k)
    vec, *rest) for vec in vecs]), rest the parts after fock.PARTS, from
    one move pass per mode."""
    items = pot.nonzero_items()
    ks = [k for k, _ in items]
    norms, modes = fock.rho_parts(ks, config.fermi_radius_sq, vecs, parts)
    excess = fock.kinetic_excess(config, norms)
    cuts = np.cumsum([len(vec) for vec in vecs])[:-1]
    excess = [e.tolist() for e in np.split(excess, cuts)]
    lam = coupling(config)

    def joined(v, out):
        return lam * v, [(dk, b_dag + b, *rest) for dk, b_dag, b, *rest in out]

    return excess, map(joined, (v for _, v in items), modes)


def _fill_pair_terms(config: GasConfig, pot, pairs) -> dict:
    """{(a, b): (<Phi a|Phi b>, <Phi a|:T: Phi b>, <Phi a|V2 Phi b>)} over
    the monomial pairs (a, b), a <= b (the other order is the conjugate),
    with V2 the d_k terms of H2.

    V2 between two images is sum_k g_k (<x2_a|d_b> + <d_a|x2_b> +
    <d_a|d_b>) with d = d_k Phi m and x2 = (b_{-k}^dag + b_k) Phi m: the
    images are encoded once, all of them get one move pass per mode, and
    their parts are dropped before the next mode.
    """
    if not pairs:
        return {}
    monos = sorted(set(chain.from_iterable(pairs)))
    images = [phi_monomial_image(config, m) for m in monos]
    excess, modes = _mode_parts(config, pot, images)
    kinetic = {
        m: fock.apply_normal_t(config, image, e) for m, image, e in zip(monos, images, excess)
    }
    images = dict(zip(monos, images))
    inter = dict.fromkeys(pairs, 0.0)
    for g, parts in modes:
        parts = dict(zip(monos, parts))
        for a, b in pairs:
            da, xa = parts[a]
            db, xb = parts[b]
            inter[a, b] += g * (xa.inner(db) + da.inner(xb) + da.inner(db))
        del parts, da, xa, db, xb  # not held through the next mode's pass
    return {
        (a, b): (
            complex(images[a].inner(images[b])),
            complex(images[a].inner(kinetic[b])),
            complex(inter[a, b]),
        )
        for a, b in pairs
    }


def _h2_pairs(f: BosonVector, d: int) -> list:
    """The monomial pairs (a, b), a <= b, of the forms at f.

    H2 conserves momentum and moves the number of holes by at most one,
    and Phi m has exactly deg m holes, so only pairs of equal total
    momentum whose degrees differ by at most one enter.
    """
    groups = {}
    for m in f.terms:
        groups.setdefault(total_momentum(m, d), []).append(m)
    return [
        (a, b) if a <= b else (b, a)
        for group in groups.values()
        for i, a in enumerate(group)
        for b in group[i:]
        if abs(len(a) - len(b)) <= 1
    ]


def h2_expectation_audit(
    states,
    window: TruncationWindow,
    config: GasConfig,
    pot,
    cutoff_momentum: float,
) -> list:
    """Exact |<psi|H2 psi>| / ||psi||^2 at psi = Phi(f) against its a
    priori estimate, one H2Audit for each state f of states.

    Every monomial of every f must lie in the window (degree <= m, modes
    below the momentum cutoff); the estimate is

        (2 k_F K + K^2) m
        + lambda sum_k |vhat(k)| (8 m sqrt(m+1) |C_k|^(1/2) + 4 m^2)

    with K = cutoff_momentum, valid for 2 pi <= K <= k_F.  The norm and
    both parts are the Hermitian forms sum_ab conj(f_a) f_b M_ab over
    the pairs of f's monomials, and the pair terms M of all the states
    are built in one _fill_pair_terms call, so the states share their
    move passes and nothing outlives the call.
    """
    kf = config.fermi_momentum
    K = float(cutoff_momentum)
    if not (TWO_PI <= K <= kf + 1e-12):
        raise ValueError(f"momentum cutoff {K} outside [2 pi, k_F={kf}]")
    worst = max(TWO_PI * math.sqrt(norm_sq(k)) for k in window.modes)
    if worst > K + 1e-12:
        raise ValueError(f"window mode of size {worst} violates the cutoff {K}")
    inside = set(window_monomials(window))
    for f in states:
        outside = set(f.terms).difference(inside)
        if outside:
            raise ValueError(f"monomials {sorted(outside)} lie outside the window")
    state_pairs = [_h2_pairs(f, config.d) for f in states]
    pairs = list(dict.fromkeys(chain.from_iterable(state_pairs)))  # first seen
    terms = _fill_pair_terms(config, pot, pairs)
    m = window.max_degree
    lam = coupling(config)
    bound = (2.0 * kf * K + K * K) * m
    for k, v in pot.nonzero_items():
        ck = len(crescent(k, config))
        bound += lam * abs(v) * (
            8.0 * m * math.sqrt(m + 1.0) * math.sqrt(ck) + 4.0 * m * m
        )
    audits = []
    for f, pairs in zip(states, state_pairs):
        forms = [0.0, 0.0, 0.0]
        for a, b in pairs:
            w = (1.0 if a == b else 2.0) * f.terms[a].conjugate() * f.terms[b]
            for i, entry in enumerate(terms[a, b]):
                forms[i] += (w * entry).real
        nsq, kin, inter = forms
        if nsq == 0.0:
            raise ValueError("empty state")
        kin, inter = kin / nsq, inter / nsq
        audits.append(H2Audit(abs(kin + inter), bound, kinetic_part=kin, interaction_part=inter))
    return audits


# ------------------------------------------------------------- trial energy


@dataclass
class TrialReport:
    """Exact Rayleigh quotient of the full Hamiltonian at Phi(f).

    raw = e_n0 + h1_part + h2_part up to identity_gap (rounding only);
    bosonic_prediction replaces h1_part by the bosonic quadratic form at f
    and drops the remainder.
    """

    raw: float
    e_n0: float
    h1_part: float
    h2_part: float
    bosonic_prediction: float
    discrepancy: float
    identity_gap: float
    image_norm: float


def trial_energy(f: BosonVector, config: GasConfig, pot) -> TrialReport:
    psi = phi_map(f, config)
    nsq = psi.norm_sq()
    if nsq == 0.0:
        raise ValueError("phi image vanishes")
    e0 = fock.e_n0(config, pot)
    [excess], modes = _mode_parts(config, pot, [psi], fock.PARTS + fock.RHO)
    kin = _kinetic_sum(psi, excess) / nsq
    inter = h1_part = rho_sum = 0.0
    for g, [(dk, x2, rho)] in modes:
        # the d_k terms of <psi|H2 psi>: g (2 Re<x2|d_k psi> + ||d_k psi||^2)
        inter += g * (2.0 * x2.inner(dk).real + dk.norm_sq())
        h1_part += g * x2.norm_sq()
        rho_sum += g * rho.norm_sq()
        del dk, x2, rho  # not held through the next mode's pass
    h2_part = kin + inter / nsq
    h1_part /= nsq
    raw = e0 + kin + rho_sum / nsq
    gap = raw - (e0 + h1_part + h2_part)
    hb = boson.hb_apply(boson.hb_weights(config, pot), f)
    bosonic = e0 + f.inner(hb).real / f.norm_sq()
    return TrialReport(
        raw=raw,
        e_n0=e0,
        h1_part=h1_part,
        h2_part=h2_part,
        bosonic_prediction=bosonic,
        discrepancy=raw - bosonic,
        identity_gap=gap,
        image_norm=math.sqrt(nsq),
    )


# ---------------------------------------------------------- subspace bound


PIVOT_TOL = 1e-10  # dropped: Gram eigenvalues below this times the largest


@dataclass
class SubspaceBound:
    """Variational upper bound from the span of all monomial images.

    The generalized eigenproblem uses the exact Gram; directions whose
    Gram eigenvalue falls below PIVOT_TOL times the largest are dropped
    and counted in dropped_directions.
    """

    value: float
    sector_values: dict  # total momentum -> block minimum
    dimension: int
    dropped_directions: int


def subspace_upper_bound(
    window: TruncationWindow, config: GasConfig, pot
) -> SubspaceBound:
    """Rayleigh-Ritz on each total-momentum block of the images: Gram
    Re(P^dag P) and Hamiltonian Re(P^dag H P).

    One frame P holds every image, block by block in momentum order, and
    H = fock.hamiltonian_matrix over all its determinants: one assembly
    and one pair of forms per call.  H conserves momentum and images of
    different total momentum share no determinant, so both forms are
    block diagonal and each block is solved on its own diagonal slice,
    which holds the values a per-block assembly would.
    """
    blocks = {}
    for m in window_monomials(window):
        blocks.setdefault(total_momentum(m, config.d), []).append(m)
    blocks = sorted(blocks.items())
    monos = [m for _, group in blocks for m in group]
    dets, p = frame([phi_monomial_image(config, m) for m in monos])
    overlap = gram(p)
    ham = gram(p, fock.hamiltonian_matrix(config, pot, dets) @ p)
    best = math.inf
    sector_values = {}
    dropped = 0
    end = 0
    for momentum, group in blocks:
        start, end = end, end + len(group)
        w, u = np.linalg.eigh(overlap[start:end, start:end])
        keep = w > PIVOT_TOL * max(w[-1], 0.0)
        dropped += int(len(group) - keep.sum())
        if not keep.any():
            continue
        basis = u[:, keep] / np.sqrt(w[keep])
        hw = basis.T @ ham[start:end, start:end] @ basis
        vals = np.linalg.eigvalsh(hw)
        sector_values[momentum] = float(vals[0])
        best = min(best, float(vals[0]))
    return SubspaceBound(
        value=best,
        sector_values=sector_values,
        dimension=len(monos),
        dropped_directions=dropped,
    )


# ------------------------------------------------------------------ fitting


@dataclass
class LogLogFit:
    slope: float
    intercept: float
    max_residual: float
    points: list


def loglog_fit(xs, ys) -> LogLogFit:
    """Least squares slope of log y against log x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return LogLogFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.max(np.abs(resid))),
        points=list(zip(xs, ys)),
    )
