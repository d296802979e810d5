"""Acceptance gate: seven end-to-end checks at pinned tolerances.

Each test is one criterion and prints a single PASS/FAIL line (visible
with -s or on failure); the pytest -v report therefore carries one line
per criterion.  Tolerances and runtime budgets are stated inline and are
part of the contract, not tuning knobs.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fermibose import boson as B
from fermibose import bridge as BR
from fermibose import fock as F
from fermibose import lattice as L

import oracles as O


def report(num, label, ok, detail=""):
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def budget(num, label, started, limit_s):
    elapsed = time.monotonic() - started
    report(num, f"{label} runtime", elapsed < limit_s, f"{elapsed:.1f}s < {limit_s}s")


def rel_err(lhs, rhs):
    return (lhs - rhs).norm() / max(1.0, lhs.norm(), rhs.norm())


CONFIGS_1 = (
    L.GasConfig(d=2, fermi_radius_sq=5, alpha=-1.0),  # N = 21
    L.GasConfig(d=3, fermi_radius_sq=4, alpha=-1.0),  # N = 33
)


def test_acceptance_1_identity_suite():
    started = time.monotonic()
    tol = 1e-10
    n_vectors = 100
    worst = 0.0
    for config in CONFIGS_1:
        d = config.d
        rng = np.random.default_rng(1001 + d)
        pool = L.ball_points(d, config.fermi_radius_sq + 4)
        shifts = [k for k in L.ball_points(d, 4) if any(k)]
        window = B.TruncationWindow.from_radius(d, 1, 2)

        for _ in range(n_vectors):
            v = O.random_fermion_vector(config, rng)
            p = pool[rng.integers(len(pool))]
            q = pool[rng.integers(len(pool))]
            # anticommutators
            x = O.apply_annihilator(p, O.apply_annihilator(q, v)) + O.apply_annihilator(
                q, O.apply_annihilator(p, v)
            )
            worst = max(worst, x.norm())
            x = O.apply_creator(p, O.apply_creator(q, v)) + O.apply_creator(
                q, O.apply_creator(p, v)
            )
            worst = max(worst, x.norm())
            x = O.apply_annihilator(p, O.apply_creator(q, v)) + O.apply_creator(
                q, O.apply_annihilator(p, v)
            )
            expect = v if p == q else F.FermionVector()
            worst = max(worst, rel_err(x, expect))

            # rho splits into the three pair pieces
            k = shifts[rng.integers(len(shifts))]
            lhs = F.apply_rho(k, v)
            rhs = (
                F.apply_b(k, config, v)
                + F.apply_b_dag(L.neg(k), config, v)
                + F.apply_d(k, config, v)
            )
            worst = max(worst, rel_err(lhs, rhs))

            # pair commutator: [b_k, b_q^dag] = delta |C_k| + normal part
            k2 = shifts[rng.integers(len(shifts))]
            lhs = F.apply_b(k, config, F.apply_b_dag(k2, config, v)) - F.apply_b_dag(
                k2, config, F.apply_b(k, config, v)
            )
            rhs = O.apply_normal_commutator(k, k2, config, v)
            if k == k2:
                rhs = rhs + float(len(L.crescent(k, config))) * v
            worst = max(worst, rel_err(lhs, rhs))

        # the ground state is killed by every normal-ordered piece
        ground = F.psi0(config)
        for _ in range(n_vectors):
            k = shifts[rng.integers(len(shifts))]
            q = shifts[rng.integers(len(shifts))]
            worst = max(worst, F.apply_d(k, config, ground).norm())
            worst = max(
                worst, O.apply_normal_commutator(k, q, config, ground).norm()
            )

        # creation direction of the excitation map commutes exactly
        for _ in range(n_vectors):
            f = B.random_boson_vector(window, rng, n_terms=3)
            k = window.modes[rng.integers(len(window.modes))]
            lhs = BR.apply_phi_creator(k, config, BR.phi_map(f, config))
            rhs = BR.phi_map(B.apply_boson_creator(k, f), config)
            worst = max(worst, rel_err(lhs, rhs))

    report(
        1,
        "algebraic identity suite, d=2 and d=3, 100 vectors per identity",
        worst <= tol,
        f"max rel err {worst:.2e} <= {tol}",
    )
    budget(1, "identity suite", started, 60.0)


def test_acceptance_2_exact_small_values():
    tol = 1e-12
    config = L.GasConfig(d=2, fermi_radius_sq=1, alpha=-1.0)
    size = len(L.crescent((1, 0), config))
    ok = size == 3
    detail = [f"|C_e1|={size}"]

    image = BR.phi_monomial_image(config, ((1, 0), (1, 0)))
    norm_sq = image.norm_sq()
    ok &= abs(norm_sq - 4.0 / 3.0) <= tol * (4.0 / 3.0)
    detail.append(f"||phi(e_k*^2)||^2={norm_sq!r}")

    pot = F.unit_potential(2)
    for alpha in (-1.0, -0.5, 0.0):
        cfg = L.GasConfig(d=2, fermi_radius_sq=1, alpha=alpha)
        ground = F.psi0(cfg)
        value = O.expectation(
            lambda v: O.apply_h(cfg, pot, v), ground
        ).real - F.e_n0(cfg, pot)
        expect = 6.0 * 5.0 ** (-alpha)
        ok &= abs(value - expect) <= tol * max(1.0, expect)
        detail.append(f"gap(alpha={alpha})={value!r}")

    report(2, "exact small values to 1e-12", ok, "; ".join(detail))


def test_acceptance_3_sandwich():
    started = time.monotonic()
    config = L.GasConfig(d=2, fermi_radius_sq=1, alpha=-1.0)
    pot = F.unit_potential(2)
    window = B.TruncationWindow.from_radius(2, 1, 2)

    lower, upper = F.trivial_bounds(config, pot)
    dense = F.ground_state(config, pot, cutoff_radius_sq=4, eigh=np.linalg.eigh)
    iterative = F.ground_state(config, pot, cutoff_radius_sq=4)
    sub = BR.subspace_upper_bound(window, config, pot)

    solver_gap = abs(dense.energy - iterative.energy)
    chain = (
        lower <= dense.energy
        and dense.energy <= sub.value
        and sub.value <= upper
    )
    report(
        3,
        "variational sandwich on the 5-particle instance",
        chain and solver_gap <= 1e-8,
        f"{lower:.6f} <= {dense.energy:.6f} <= {sub.value:.6f} <= {upper:.6f}, "
        f"dense vs iterative {solver_gap:.2e}",
    )
    budget(3, "sandwich", started, 300.0)


def test_acceptance_4_crescent_audit():
    started = time.monotonic()
    radii = [r for r in range(1, 51) if L.is_occupied_radius(2, r)]
    audit = L.audit_crescent_bounds(2, radii, kmax_sq=36)
    ok = audit.passed and audit.ratio_low > 0.0
    report(
        4,
        "crescent two-sided bounds and union identity, k_F^2 <= 50, |k| <= 6",
        ok,
        f"c1={audit.ratio_low:.6f} at {audit.low_witness}, "
        f"c2={audit.ratio_high:.6f} at {audit.high_witness}, "
        f"{len(audit.rows)} rows, {len(audit.failures)} failures",
    )
    budget(4, "crescent audit", started, 60.0)


def test_acceptance_5_inequality_audits():
    started = time.monotonic()
    cases = 0
    violations = []

    # pair-operator norm bounds against the excitation number
    for config in CONFIGS_1:
        d = config.d
        rng = np.random.default_rng(5005 + d)
        shifts = [k for k in L.ball_points(d, 2) if any(k)]
        for _ in range(60):
            v = O.random_fermion_vector(config, rng)
            k = shifts[rng.integers(len(shifts))]
            ck = math.sqrt(len(L.crescent(k, config)))
            half = O.apply_exc_weight(config, v, shift=0.0, power=0.5).norm()
            half_up = O.apply_exc_weight(config, v, shift=1.0, power=0.5).norm()
            checks = (
                ("b", F.apply_b(k, config, v).norm(), ck * half),
                ("b_dag", F.apply_b_dag(k, config, v).norm(), ck * half_up),
                ("d", F.apply_d(k, config, v).norm(), 2.0 * ck * half),
            )
            for name, lhs, rhs in checks:
                cases += 1
                if lhs > rhs + 1e-10 * max(1.0, rhs):
                    violations.append((name, config.d, k, lhs, rhs))

    # remainder expectation bound on excitation-map images
    audits = (
        (L.GasConfig(d=2, fermi_radius_sq=4, alpha=-1.0), F.unit_potential(2), 40),
        (L.GasConfig(d=2, fermi_radius_sq=9, alpha=-1.0), F.unit_potential(2), 40),
        (L.GasConfig(d=3, fermi_radius_sq=1, alpha=-1.0), F.unit_potential(3), 40),
        (L.GasConfig(d=3, fermi_radius_sq=2, alpha=-1.0), F.unit_potential(3), 40),
    )
    for config, pot, n_states in audits:
        window = B.TruncationWindow.from_radius(config.d, 1, 2)
        rng = np.random.default_rng(5500 + 10 * config.d + config.fermi_radius_sq)
        states = [B.random_boson_vector(window, rng, n_terms=4) for _ in range(n_states)]
        for audit in BR.h2_expectation_audit(states, window, config, pot, L.TWO_PI):
            cases += 1
            if not audit.passed:
                violations.append(
                    ("h2", config.d, config.fermi_radius_sq, audit.value, audit.bound)
                )

    report(
        5,
        "norm and remainder inequality audits",
        cases >= 500 and not violations,
        f"{cases} cases, {len(violations)} violations",
    )
    budget(5, "inequality audits", started, 300.0)


def test_acceptance_6_decay_sweeps():
    started = time.monotonic()
    radii = [5, 8, 9, 10, 13, 16, 17, 18, 20]
    window = B.TruncationWindow.from_radius(2, 1, 2)
    pot = F.unit_potential(2)

    kfs, eps_vals, res_vals, ratio_filled, ratio_sub = [], [], [], [], []
    for r in radii:
        config = L.GasConfig(d=2, fermi_radius_sq=r, alpha=-1.0)
        n = L.particle_count(config)
        kfs.append(config.fermi_momentum)
        eps_vals.append(BR.isometry_audit(window, config).max_abs_eps)
        res_vals.append(BR.intertwine_residual(window, config).annihilator_max)
        lower, upper = F.trivial_bounds(config, pot)
        sub = BR.subspace_upper_bound(window, config, pot)
        scale = float(n) ** 1.5  # N^(1 - alpha - 1/d) at alpha = -1, d = 2
        ratio_filled.append((upper - lower) / scale)
        ratio_sub.append((sub.value - lower) / scale)

    eps_fit = BR.loglog_fit(kfs, eps_vals)
    res_fit = BR.loglog_fit(kfs, res_vals)
    slopes_ok = abs(eps_fit.slope + 1.0) <= 0.3 and abs(res_fit.slope + 1.0) <= 0.3
    report(
        6,
        "decay slopes of max|eps| and intertwining residual vs k_F",
        slopes_ok,
        f"eps slope {eps_fit.slope:.3f}, residual slope {res_fit.slope:.3f}, "
        f"target -1 +- 0.3 over {len(radii)} magic k_F",
    )

    below = all(s < f for s, f in zip(ratio_sub[-3:], ratio_filled[-3:]))
    decreasing = ratio_sub[-3] > ratio_sub[-2] > ratio_sub[-1]
    report(
        6,
        "scaled subspace bound beats the filled-ball bound and keeps improving",
        below and decreasing,
        f"last three subspace ratios {[round(x, 4) for x in ratio_sub[-3:]]} vs "
        f"filled {[round(x, 4) for x in ratio_filled[-3:]]}",
    )
    budget(6, "decay sweeps", started, 1800.0)


def test_acceptance_7_bosonic_side():
    started = time.monotonic()
    ok = True
    detail = []

    # single pair of the slow-weight form at g = 1, one quantum per mode
    g = {(1, 0): 1.0, (-1, 0): 1.0}
    pair_window = B.TruncationWindow(modes=((1, 0), (-1, 0)), max_degree=2)
    value = B.hb_min_truncated(g, pair_window).value
    expect = 4.0 - 2.0 * math.sqrt(2.0)
    ok &= abs(value - expect) <= 1e-12
    detail.append(f"m=2 minimum {value!r}")

    values = []
    for m in range(0, 7):
        w = B.TruncationWindow(modes=((1, 0), (-1, 0)), max_degree=m)
        values.append(B.hb_min_truncated(g, w).value)
    ok &= all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    ok &= values[6] < 0.5 * values[0]
    detail.append(f"m=6 value {values[6]:.4f} vs m=0 value {values[0]:.4f}")

    checks = (
        (L.GasConfig(2, 1, alpha=-1.0), F.unit_potential(2), (1, 2)),
        (L.GasConfig(2, 4, alpha=-1.0), F.unit_potential(2), (1, 3)),
        (L.GasConfig(2, 4, alpha=-1.0), F.unit_potential(2, radius_sq=2), (2, 2)),
        (L.GasConfig(3, 1, alpha=-1.0), F.unit_potential(3), (1, 2)),
    )
    for config, pot, (wr, wm) in checks:
        window = B.TruncationWindow.from_radius(config.d, wr, wm)
        rep = O.hb_domination_check(config, pot, window)
        ok &= rep.passed
        detail.append(
            f"domination d={config.d} r={config.fermi_radius_sq} "
            f"min eig {rep.min_eig_gap:.2e}"
        )

    report(7, "bosonic truncation and domination checks", ok, "; ".join(detail))
    budget(7, "bosonic side", started, 60.0)
