"""Bosonic Fock space over nonzero momentum modes.

Monomials are unnormalized products of creators applied to the vacuum,
stored as multisets (sorted tuples) of momenta.  Distinct monomials are
orthogonal and the squared norm of a monomial is the product of the
factorials of its multiplicities, so the inner product on BosonVector
carries that diagonal Gram weight.

The quadratic Hamiltonians here, for any symmetric weights g (the
coupling weights are hb_weights), share one shape,

    sum_{k != 0} g_k (e_k^dag + e_{-k})(e_{-k}^dag + e_k);

they decouple exactly over mode pairs {k, -k} and conserve the charge
n_k - n_{-k} of every pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    GasConfig,
    ball_points,
    coupling,
    crescent,
    mode_key,
    neg,
)
from .vector import DROP_TOL, SparseVector, ordered_sum


# ---------------------------------------------------------------- monomials


def monomial(modes) -> tuple:
    """Canonical multiset of nonzero momenta."""
    out = tuple(sorted((tuple(m) for m in modes), key=mode_key))
    for m in out:
        if not any(m):
            raise ValueError("the zero mode is not a bosonic excitation")
    return out


def monomial_norm_sq(mono) -> float:
    """Product of multiplicity factorials."""
    out = 1.0
    run = 1
    for prev, cur in zip(mono, mono[1:]):
        run = run + 1 if cur == prev else 1
        out *= run
    return out


class BosonVector(SparseVector):
    """Sparse vector {monomial: amplitude} with the factorial Gram."""

    __slots__ = ()

    @classmethod
    def vacuum(cls):
        return cls({(): 1.0 + 0j})

    @classmethod
    def from_monomial(cls, mono, amp=1.0):
        return cls({monomial(mono): complex(amp)})

    def norm_sq(self) -> float:
        return ordered_sum(
            (a * a.conjugate()).real * monomial_norm_sq(m)
            for m, a in self.terms.items()
        )

    def inner(self, other: "BosonVector") -> complex:
        a, b = self.terms, other.terms
        if len(b) < len(a):
            return sum(
                a[m].conjugate() * v * monomial_norm_sq(m)
                for m, v in b.items()
                if m in a
            )
        return sum(
            v.conjugate() * b[m] * monomial_norm_sq(m)
            for m, v in a.items()
            if m in b
        )

    def pruned(self, tol: float = DROP_TOL) -> "BosonVector":
        if not self.terms:
            return self
        cut = tol * self.norm()
        kept = {
            m: v
            for m, v in self.terms.items()
            if abs(v) * math.sqrt(monomial_norm_sq(m)) > cut
        }
        return BosonVector(kept) if len(kept) != len(self.terms) else self


def apply_boson_creator(k, vec: BosonVector) -> BosonVector:
    k = tuple(k)
    if not any(k):
        raise ValueError("the zero mode is not a bosonic excitation")
    acc = {}
    for mono, amp in vec.terms.items():
        new = tuple(sorted(mono + (k,), key=mode_key))
        acc[new] = acc.get(new, 0j) + amp
    return BosonVector.finish(acc)


def apply_boson_annihilator(k, vec: BosonVector) -> BosonVector:
    """e_k on the unnormalized basis: multiplicity times the reduced
    monomial."""
    k = tuple(k)
    acc = {}
    for mono, amp in vec.terms.items():
        mult = mono.count(k)
        if mult:
            i = mono.index(k)
            new = mono[:i] + mono[i + 1 :]
            acc[new] = acc.get(new, 0j) + mult * amp
    return BosonVector.finish(acc)


# ------------------------------------------------------------------ windows


@dataclass(frozen=True)
class TruncationWindow:
    """A finite negation-closed mode set S and a total degree cap."""

    modes: tuple
    max_degree: int

    def __post_init__(self):
        modes = tuple(tuple(k) for k in self.modes)
        seen = set()
        for k in modes:
            if not any(k):
                raise ValueError("window contains the zero mode")
            if k in seen:
                raise ValueError(f"window repeats mode {k}")
            seen.add(k)
        for k in modes:
            if neg(k) not in seen:
                raise ValueError(f"window is not closed under negation: {k}")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        object.__setattr__(self, "modes", tuple(sorted(modes, key=mode_key)))

    @classmethod
    def from_radius(cls, d: int, radius_sq: int, max_degree: int):
        modes = tuple(k for k in ball_points(d, radius_sq) if any(k))
        if not modes:
            raise ValueError("empty window")
        return cls(modes=modes, max_degree=max_degree)

    @property
    def d(self) -> int:
        return len(self.modes[0])


def window_monomials(window: TruncationWindow):
    """Every monomial over the window modes with degree <= max_degree,
    ordered by degree then lexicographically in mode order."""
    out = []
    for deg in range(window.max_degree + 1):
        out.extend(
            itertools.combinations_with_replacement(window.modes, deg)
        )
    return out


def window_dim(window: TruncationWindow) -> int:
    s = len(window.modes)
    return math.comb(window.max_degree + s, window.max_degree)


# ------------------------------------------------------------------ weights


def check_weights(weights) -> dict:
    """Validate a finitely supported symmetric weight family g_k = g_{-k}."""
    w = {tuple(k): float(v) for k, v in dict(weights).items()}
    bad = []
    for k, v in sorted(w.items(), key=lambda kv: mode_key(kv[0])):
        if not any(k):
            bad.append(f"{k}: weight on the zero mode")
            continue
        mirror = w.get(neg(k))
        if mirror is None:
            bad.append(f"{k}: missing opposite weight")
        elif mirror != v:
            bad.append(f"{k}: g(k)={v} != g(-k)={mirror}")
    if bad:
        raise ValueError("asymmetric weights: " + "; ".join(bad))
    return w


def hb_weights(config: GasConfig, pot) -> dict:
    """g_k = (N^-alpha / 2) |C_k| vhat(k) on the potential support."""
    lam = coupling(config)
    return {
        k: lam * len(crescent(k, config)) * v for k, v in pot.nonzero_items()
    }


def hb_apply(weights, vec: BosonVector) -> BosonVector:
    """sum_k g_k (e_k^dag + e_{-k})(e_{-k}^dag + e_k) applied exactly."""
    w = check_weights(weights)
    out = BosonVector()
    for k in sorted(w, key=mode_key):
        g = w[k]
        if g == 0.0:
            continue
        mid = apply_boson_creator(neg(k), vec) + apply_boson_annihilator(k, vec)
        out = out + g * (
            apply_boson_creator(k, mid) + apply_boson_annihilator(neg(k), mid)
        )
    return out


def hb_form_matrix(weights, monomials) -> np.ndarray:
    """Hermitian matrix of the quadratic form on a monomial list, in the
    factorial Gram inner product."""
    monos = [monomial(m) for m in monomials]
    images = [hb_apply(weights, BosonVector.from_monomial(m)).terms for m in monos]
    out = np.array([[image.get(m, 0j).real for image in images] for m in monos])
    return out * np.array([monomial_norm_sq(m) for m in monos])[:, None]


# ---------------------------------------------------------- window minimum


def _whitened(weights, monos):
    """The form on the orthonormal basis m / sqrt(m!), and the vector of
    1 / sqrt(m!) that maps its coefficients back to monomial amplitudes."""
    inv = np.array([1.0 / math.sqrt(monomial_norm_sq(m)) for m in monos])
    return inv[:, None] * hb_form_matrix(weights, monos) * inv, inv


@dataclass
class TruncatedMinimum:
    value: float
    argmin: BosonVector


def hb_min_truncated(weights, window: TruncationWindow) -> TruncatedMinimum:
    """Minimum of the quadratic form over the span of the window monomials.

    This is the lowest eigenpair of the whitened form matrix.  Support
    modes outside the window enter through its diagonal (each adds its
    vacuum weight g_k).  The argmin is normalized, with its largest
    whitened component positive.
    """
    monos = window_monomials(window)
    form, inv = _whitened(check_weights(weights), monos)
    values, vectors = np.linalg.eigh(form)
    u = vectors[:, 0]
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    argmin = BosonVector.finish({m: complex(c) for m, c in zip(monos, inv * u)})
    return TruncatedMinimum(value=float(values[0]), argmin=argmin)


# ------------------------------------------------------------ random states


def random_boson_vector(window: TruncationWindow, rng, n_terms: int = 4):
    monos = window_monomials(window)
    picks = rng.choice(len(monos), size=min(n_terms, len(monos)), replace=False)
    terms = {
        monos[i]: complex(rng.standard_normal(), rng.standard_normal())
        for i in picks
    }
    return BosonVector(terms).normalized()
