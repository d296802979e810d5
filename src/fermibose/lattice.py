"""Momentum lattice geometry for a Fermi gas on the unit torus.

Momenta live on (2*pi*Z)^d and are represented throughout by integer
coordinate tuples ``n``; the physical momentum is ``2*pi*n``.  Working with
integers keeps every membership test (Fermi ball, crescent, shell) exact,
so nothing in this module touches floating point except the final audit
ratios and kinetic energies.

The squared Fermi momentum is stored as the integer ``fermi_radius_sq``,
meaning k_F^2 = (2*pi)^2 * fermi_radius_sq.  A configuration is only valid
when that radius is actually achieved by a lattice point, so the closed
ball carries a full outer shell and the free ground state is unique
(a "magic" particle number).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

Momentum = tuple  # tuple[int, ...] in lattice units

TWO_PI = 2.0 * math.pi
TWO_PI_SQ = TWO_PI * TWO_PI


def norm_sq(n: Momentum) -> int:
    """Integer squared norm |n|^2 in lattice units."""
    return sum(c * c for c in n)


def neg(n: Momentum) -> Momentum:
    return tuple(-c for c in n)


def add(n: Momentum, m: Momentum) -> Momentum:
    return tuple(a + b for a, b in zip(n, m))


def sub(n: Momentum, m: Momentum) -> Momentum:
    return tuple(a - b for a, b in zip(n, m))


def total_momentum(modes, d: int) -> Momentum:
    """Sum of a determinant's or a monomial's modes; zero when empty."""
    if not modes:
        return (0,) * d
    return tuple(sum(c) for c in zip(*modes))


def mode_key(n: Momentum):
    """Global mode ordering key: radial first, then lexicographic.

    Every Fock-space sign convention in this project is defined relative to
    this total order, so it must never change.
    """
    return (norm_sq(n), *n)


def mode_codes(points):
    """One integer per row of an (n, d) int64 numpy array of modes, in
    the order of mode_key: the lexicographic order of (|p|^2, p), which
    the code |p|^2 base^d + sum_c (p_c + top) base^(d-1-c) keeps for
    coordinates within top of 0, base = 2 top + 1.  Raises ValueError if
    a code would overflow int64.
    """
    n, d = points.shape
    top = int(abs(points).max(initial=0))
    base = 2 * top + 1
    if (d * top * top + 1) * base**d >= 2**63:
        raise ValueError("mode codes overflow int64")
    code = (points * points).sum(axis=1)
    for column in points.T:
        code = code * base + (column + top)
    return code


@lru_cache(maxsize=None)
def ball_points(d: int, radius_sq: int) -> tuple:
    """All lattice points with |n|^2 <= radius_sq, sorted in mode order.

    radius_sq < 0 gives the empty tuple.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if radius_sq < 0:
        return ()
    reach = math.isqrt(radius_sq)
    rng = range(-reach, reach + 1)
    pts = [p for p in itertools.product(rng, repeat=d) if norm_sq(p) <= radius_sq]
    pts.sort(key=mode_key)
    return tuple(pts)


def magic_numbers(d: int, max_radius_sq: int) -> list:
    """Occupied radii and their closed-ball counts.

    Returns [(radius_sq, N), ...] for every radius_sq <= max_radius_sq that
    is achieved by at least one lattice point; N is the number of points in
    the closed ball of that radius.  These N are exactly the particle
    numbers with a unique free ground state.
    """
    ends = {}  # mode order is radial first, so each shell's last point wins
    for n, p in enumerate(ball_points(d, max_radius_sq), 1):
        ends[norm_sq(p)] = n
    return list(ends.items())


def is_occupied_radius(d: int, radius_sq: int) -> bool:
    """Whether some lattice point has |n|^2 == radius_sq: the last point
    of the ball in mode order lies on its outermost occupied shell."""
    return radius_sq >= 0 and norm_sq(ball_points(d, radius_sq)[-1]) == radius_sq


@dataclass(frozen=True)
class GasConfig:
    """A single gas geometry: dimension, Fermi radius and coupling exponent.

    alpha is the exponent in the coupling N^-alpha multiplying the pair
    interaction; it does not affect any geometric quantity.
    """

    d: int
    fermi_radius_sq: int
    alpha: float = 0.0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.fermi_radius_sq < 0:
            raise ValueError("fermi_radius_sq must be >= 0")
        if not is_occupied_radius(self.d, self.fermi_radius_sq):
            raise ValueError(
                f"fermi_radius_sq={self.fermi_radius_sq} is not achieved by any "
                f"lattice point in d={self.d}; pick an occupied radius so the "
                "Fermi shell is full"
            )

    @classmethod
    def from_particle_count(cls, d: int, n: int, alpha: float = 0.0) -> "GasConfig":
        """Build the configuration whose Fermi ball holds exactly n points.

        Raises if n is not a magic number for this dimension.
        """
        if n < 1:
            raise ValueError(f"particle count must be >= 1, got {n}")
        # closed ball of radius n certainly holds more than n points
        for r, count in magic_numbers(d, n):
            if count == n:
                return cls(d=d, fermi_radius_sq=r, alpha=alpha)
            if count > n:
                break
        raise ValueError(
            f"n={n} is not a magic number in d={d}; the free ground state "
            "would be degenerate"
        )

    @property
    def fermi_momentum(self) -> float:
        """k_F in physical units, 2*pi*sqrt(fermi_radius_sq)."""
        return TWO_PI * math.sqrt(self.fermi_radius_sq)


def fermi_ball(config: GasConfig) -> tuple:
    """The occupied modes of the free ground state, in mode order."""
    return ball_points(config.d, config.fermi_radius_sq)


def particle_count(config: GasConfig) -> int:
    return len(fermi_ball(config))


def coupling(config: GasConfig) -> float:
    """The prefactor N^-alpha / 2 of the interaction sum."""
    return 0.5 * float(particle_count(config)) ** (-config.alpha)


@lru_cache(maxsize=None)
def kinetic_ground_sum(config: GasConfig) -> float:
    """Sum of |p|^2 over the Fermi ball, physical units."""
    return TWO_PI_SQ * sum(norm_sq(p) for p in fermi_ball(config))


@lru_cache(maxsize=None)
def crescent(k: Momentum, config: GasConfig) -> tuple:
    """C_k = { p : |p| <= k_F, |p + k| > k_F }, in mode order.

    Empty exactly when k == 0.
    """
    if len(k) != config.d:
        raise ValueError(f"momentum {k} has wrong dimension for d={config.d}")
    r = config.fermi_radius_sq
    return tuple(p for p in fermi_ball(config) if norm_sq(add(p, k)) > r)


def crescent_ratio(k: Momentum, config: GasConfig) -> float:
    """|C_k| / (k_F^(d-1) min(|k|, k_F)), all in lattice units.

    The comparison scale uses k_F and |k| measured in units of 2*pi, i.e.
    sqrt(fermi_radius_sq) and sqrt(|n_k|^2).  Undefined for k == 0 or
    k_F == 0.
    """
    r = config.fermi_radius_sq
    nk = norm_sq(k)
    if nk == 0 or r == 0:
        raise ValueError("crescent ratio needs k != 0 and k_F > 0")
    kf = math.sqrt(r)
    scale = kf ** (config.d - 1) * min(math.sqrt(nk), kf)
    return len(crescent(k, config)) / scale


def covers_ball_with_opposite(k: Momentum, config: GasConfig) -> bool:
    """Whether C_k together with C_-k exhausts the whole Fermi ball."""
    got = set(crescent(k, config)) | set(crescent(neg(k), config))
    return got == set(fermi_ball(config))


@dataclass
class CrescentAudit:
    """Empirical two-sided bound check for crescent sizes.

    ratio_low / ratio_high are the observed extremes of
    |C_k| / (k_F^(d-1) min(|k|, k_F)) over the sweep; they are the fitted
    constants c1 and c2.  failures collects any (radius_sq, k) violating a
    hard geometric identity, each with a short reason.
    """

    ratio_low: float
    ratio_high: float
    low_witness: tuple  # (radius_sq, k)
    high_witness: tuple
    rows: list = field(default_factory=list)  # (radius_sq, N, k, size, ratio)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.ratio_low > 0.0


def audit_crescent_bounds(d: int, radii, kmax_sq: int) -> CrescentAudit:
    """Sweep configs and shifts, fitting the two-sided crescent bound.

    radii must all be occupied squared radii >= 1.  Every nonzero k with
    |k|^2 <= kmax_sq is tested against every config.  Hard identities
    checked along the way: |C_k| = |C_-k|, C_k empty iff k = 0, and
    C_k plus C_-k covers the ball exactly when |k| > k_F.
    """
    rows = []
    failures = []
    lo, hi = math.inf, -math.inf
    lo_wit = hi_wit = None
    ks = [k for k in ball_points(d, kmax_sq) if norm_sq(k) > 0]
    for r in radii:
        config = GasConfig(d=d, fermi_radius_sq=r)
        n_part = particle_count(config)
        for k in ks:
            size = len(crescent(k, config))
            if size == 0:
                failures.append((r, k, "empty crescent for nonzero shift"))
            if size != len(crescent(neg(k), config)):
                failures.append((r, k, "|C_k| != |C_-k|"))
            covered = covers_ball_with_opposite(k, config)
            if (norm_sq(k) > r) != covered:
                failures.append((r, k, "C_k union C_-k vs |k| > k_F mismatch"))
            ratio = crescent_ratio(k, config)
            rows.append((r, n_part, k, size, ratio))
            if ratio < lo:
                lo, lo_wit = ratio, (r, k)
            if ratio > hi:
                hi, hi_wit = ratio, (r, k)
    return CrescentAudit(
        ratio_low=lo,
        ratio_high=hi,
        low_witness=lo_wit,
        high_witness=hi_wit,
        rows=rows,
        failures=failures,
    )
