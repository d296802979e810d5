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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import boson, fock
from .lattice import GasConfig, TWO_PI, coupling, crescent, neg, norm_sq, total_momentum
from .boson import BosonVector, TruncationWindow, window_monomials
from .fock import FermionVector
from .vector import frame


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


def apply_phi_annihilator(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    return _phi_scale(k, config) * fock.apply_b(k, config, vec)


def apply_phi_creator(k, config: GasConfig, vec: FermionVector) -> FermionVector:
    return _phi_scale(k, config) * fock.apply_b_dag(k, config, vec)


def _gram(p, q=None):
    """Re(P^dag Q) as a dense array; Q defaults to P."""
    return (p.conj().T @ (p if q is None else q)).real.toarray()


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
    eps = _gram(p) - np.diag([boson.monomial_norm_sq(m) for m in monos])
    by_degree = {}  # monos ascend in degree, so the keys do too
    for m, row_max in zip(monos, np.max(np.abs(eps), axis=1)):
        by_degree[len(m)] = max(by_degree.get(len(m), 0.0), float(row_max))
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
    """Exact residuals of phi against the bosonic ladder on a window.

    annihilator_max is max over window monomials and window modes of
    ||(phi_k Phi - Phi e_k) mono|| / ||mono||; the creation direction is an
    operator identity, so creator_max only measures rounding noise.
    """

    annihilator_max: float
    creator_max: float
    per_monomial: dict = field(default_factory=dict)


def intertwine_residual(window: TruncationWindow, config: GasConfig) -> IntertwineReport:
    """One move pass of rho_k per (monomial, mode k) gives both directions:
    b_k for the annihilator at k and b_{-k}^dag for the creator at -k,
    which the negation-closed window also holds."""
    ann_max = 0.0
    cre_max = 0.0
    per = {}
    for mono in window_monomials(window):
        image = phi_monomial_image(config, mono)
        worst = 0.0
        for k in window.modes:
            _, b_dag, b = fock.apply_rho_parts(k, config, image)
            scale = _phi_scale(k, config)  # |C_k| = |C_{-k}|
            # Phi e_k mono = count(k) Phi(mono with one k removed)
            rhs = FermionVector()
            if k in mono:
                i = mono.index(k)
                reduced = mono[:i] + mono[i + 1 :]
                rhs = mono.count(k) * phi_monomial_image(config, reduced)
            worst = max(worst, (scale * b - rhs).norm())
            rhs_c = phi_monomial_image(config, boson.monomial(mono + (neg(k),)))
            cre_max = max(cre_max, (scale * b_dag - rhs_c).norm())
        per[mono] = worst
        ann_max = max(ann_max, worst)
    return IntertwineReport(
        annihilator_max=ann_max,
        creator_max=cre_max,
        per_monomial=per,
    )


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


def _kinetic_sum(config: GasConfig, psi: FermionVector) -> float:
    """<psi|:T: psi>, unnormalised."""
    return sum(
        (a * a.conjugate()).real * fock.kinetic_excess(config, det)
        for det, a in psi.terms.items()
    )


def _mode_parts(config: GasConfig, pot, psi: FermionVector):
    """(k, lambda vhat(k), d_k psi, (b_{-k}^dag + b_k) psi) for each nonzero
    mode k of pot; the three pieces of rho_k psi come from one move pass."""
    lam = coupling(config)
    for k, v in pot.nonzero_items():
        dk, b_dag, b = fock.apply_rho_parts(k, config, psi)
        x2 = b_dag + b
        del b_dag, b  # not held while the caller works on this mode
        yield k, lam * v, dk, x2


def _d_terms(g, dk: FermionVector, x2: FermionVector) -> float:
    """The d_k terms of <psi|H2 psi> at one mode with weight g:
    g (2 Re<x2|d_k psi> + ||d_k psi||^2)."""
    return g * (2.0 * x2.inner(dk).real + dk.norm_sq())


# (config, potential d, potential items, monomial a, monomial b) -> the three
# scalars <Phi a|Phi b>, <Phi a|:T: Phi b> and <Phi a|V2 Phi b>, with V2
# the d_k terms of H2; kept for a <= b, the other order is the conjugate.
_PAIR_TERMS = {}


def _fill_pair_terms(config: GasConfig, pot, key, pairs):
    """The _PAIR_TERMS entries of the monomial pairs (a, b).

    V2 between two images is sum_k g_k (<x2_a|d_b> + <d_a|x2_b> +
    <d_a|d_b>) with d = d_k Phi m and x2 = (b_{-k}^dag + b_k) Phi m: each
    image gets one move pass per mode, and its parts are dropped before
    the next mode.
    """
    monos = sorted(set(chain.from_iterable(pairs)))
    images = {m: phi_monomial_image(config, m) for m in monos}
    kinetic = {m: fock.apply_normal_t(config, images[m]) for m in monos}
    inter = dict.fromkeys(pairs, 0.0)
    for parts in zip(*(_mode_parts(config, pot, images[m]) for m in monos)):
        parts = dict(zip(monos, parts))
        for a, b in pairs:
            _, g, da, xa = parts[a]
            _, _, db, xb = parts[b]
            inter[a, b] += g * (xa.inner(db) + da.inner(xb) + da.inner(db))
    for a, b in pairs:
        _PAIR_TERMS[key + (a, b)] = (
            complex(images[a].inner(images[b])),
            complex(images[a].inner(kinetic[b])),
            complex(inter[a, b]),
        )


def _h2_forms(f: BosonVector, config: GasConfig, pot):
    """(||psi||^2, <psi|:T: psi>, <psi|V2 psi>) at psi = Phi(f), as the
    Hermitian forms sum_ab conj(f_a) f_b M_ab over the monomials of f.

    H2 conserves momentum and moves the number of holes by at most one,
    and Phi m has exactly deg m holes, so only pairs of equal total
    momentum whose degrees differ by at most one enter.
    """
    groups = {}
    for m in f.terms:
        groups.setdefault(total_momentum(m, config.d), []).append(m)
    pairs = [
        (a, b) if a <= b else (b, a)
        for group in groups.values()
        for i, a in enumerate(group)
        for b in group[i:]
        if abs(len(a) - len(b)) <= 1
    ]
    # the potential by content: a process pool pickles a fresh copy of it
    # into every job, so its identity would never repeat
    key = (config, pot.d, tuple(pot.nonzero_items()))
    missing = [p for p in pairs if key + p not in _PAIR_TERMS]
    if missing:
        _fill_pair_terms(config, pot, key, missing)
    forms = [0.0, 0.0, 0.0]
    for a, b in pairs:
        w = (1.0 if a == b else 2.0) * f.terms[a].conjugate() * f.terms[b]
        for i, entry in enumerate(_PAIR_TERMS[key + (a, b)]):
            forms[i] += (w * entry).real
    return forms


def h2_expectation_audit(
    f: BosonVector,
    window: TruncationWindow,
    config: GasConfig,
    pot,
    cutoff_momentum: float,
) -> H2Audit:
    """Exact |<psi|H2 psi>| / ||psi||^2 at psi = Phi(f) against its a
    priori estimate.

    Every monomial of f must lie in the window (degree <= m, modes below
    the momentum cutoff); the estimate is

        (2 k_F K + K^2) m
        + lambda sum_k |vhat(k)| (8 m sqrt(m+1) |C_k|^(1/2) + 4 m^2)

    with K = cutoff_momentum, valid for 2 pi <= K <= k_F.  The norm and
    both parts are forms over cached monomial-pair terms (_h2_forms), so
    states drawn from one window share their move passes.
    """
    kf = config.fermi_momentum
    K = float(cutoff_momentum)
    if not (TWO_PI <= K <= kf + 1e-12):
        raise ValueError(f"momentum cutoff {K} outside [2 pi, k_F={kf}]")
    worst = max(TWO_PI * math.sqrt(norm_sq(k)) for k in window.modes)
    if worst > K + 1e-12:
        raise ValueError(
            f"window mode of size {worst} violates the cutoff {K}"
        )
    outside = set(f.terms).difference(window_monomials(window))
    if outside:
        raise ValueError(f"monomials {sorted(outside)} lie outside the window")
    nsq, kin, inter = _h2_forms(f, config, pot)
    if nsq == 0.0:
        raise ValueError("empty state")
    kin, inter = kin / nsq, inter / nsq
    m = window.max_degree
    value = abs(kin + inter)
    lam = coupling(config)
    bound = (2.0 * kf * K + K * K) * m
    for k, v in pot.nonzero_items():
        ck = len(crescent(k, config))
        bound += lam * abs(v) * (
            8.0 * m * math.sqrt(m + 1.0) * math.sqrt(ck) + 4.0 * m * m
        )
    return H2Audit(
        value=value, bound=bound, kinetic_part=kin, interaction_part=inter
    )


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
    kin = _kinetic_sum(config, psi) / nsq
    inter = h1_part = rho_sum = 0.0
    for k, g, dk, x2 in _mode_parts(config, pot, psi):
        inter += _d_terms(g, dk, x2)
        h1_part += g * x2.norm_sq()
        rho_sum += g * fock.apply_rho(k, psi).norm_sq()
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
    Re(P^dag P) and Hamiltonian Re(P^dag H P), with H the sector matrix
    fock.hamiltonian_matrix over the determinants of the block."""
    monos = window_monomials(window)
    blocks = {}
    for m in monos:
        blocks.setdefault(total_momentum(m, config.d), []).append(m)
    best = math.inf
    sector_values = {}
    dropped = 0
    for momentum, group in sorted(blocks.items()):
        dets, p = frame([phi_monomial_image(config, m) for m in group])
        gram = _gram(p)
        ham = _gram(p, fock.hamiltonian_matrix(config, pot, dets) @ p)
        w, u = np.linalg.eigh(gram)
        keep = w > PIVOT_TOL * max(w[-1], 0.0)
        dropped += int(len(group) - keep.sum())
        if not keep.any():
            continue
        basis = u[:, keep] / np.sqrt(w[keep])
        hw = basis.T @ ham @ basis
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
