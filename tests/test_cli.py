"""End-to-end runner tests on small geometries.

Every invocation goes through cli.main with an isolated output directory;
expected numbers are the frozen small-case values used elsewhere in the
suite, read back through the CSV text to pin the formatting contract.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from fermibose import bridge, cli, fock, vector
from fermibose.boson import TruncationWindow, window_monomials
from fermibose.lattice import TWO_PI, GasConfig


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def fresh_python(script):
    """Run script in a new interpreter at the repository root, with src on
    its path; its stdout lines."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


POT2 = "configs/unit4_d2.potential"


# ------------------------------------------------------------- experiments


def test_magic_table(tmp_path):
    out = tmp_path / "m"
    assert run_cli("magic", "--max-radius-sq", "5", "--out", str(out)) == 0
    header, rows = read_csv(out / "magic.csv")
    assert header == ["radius_sq", "k_f", "n_particles"]
    table = [(int(r[0]), int(r[2])) for r in rows]
    assert table == [(0, 1), (1, 5), (2, 9), (4, 13), (5, 21)]


def test_bounds_zero_potential_collapses(tmp_path):
    out = tmp_path / "b"
    assert run_cli("bounds", "--radii", "1,2,4", "--out", str(out)) == 0
    header, rows = read_csv(out / "bounds.csv")
    for row in rows:
        assert row[header.index("e_n0")] == row[header.index("upper_filled")]
        assert row[header.index("gap")] == "0"


def test_bounds_gap_formula(tmp_path):
    out = tmp_path / "bg"
    assert (
        run_cli("bounds", "--radii", "1", "--potential", POT2, "--out", str(out))
        == 0
    )
    header, rows = read_csv(out / "bounds.csv")
    # lambda sum_k vhat(k) |C_k| = 2.5 * 4 * 3 at alpha = -1
    assert float(rows[0][header.index("gap")]) == pytest.approx(30.0)


def test_crescent_audit(tmp_path):
    out = tmp_path / "c"
    assert (
        run_cli(
            "crescent-audit",
            "--radii",
            "1,2,4",
            "--kmax-sq",
            "4",
            "--out",
            str(out),
        )
        == 0
    )
    header, rows = read_csv(out / "crescent-audit.csv")
    assert header[:2] == ["fermi_radius_sq", "n_particles"]
    assert header[2:] == ["k_1", "k_2", "crescent_size", "ratio"]
    manifest = read_json(out / "manifest.json")
    assert manifest["ratio_low"] > 0
    assert manifest["ratio_high"] >= manifest["ratio_low"]
    assert read_json(out / "failures.json") == []
    # |C_k| for k = (1, 0) at r = 1 is the frozen 3
    for row in rows:
        if row[0] == "1" and row[2] == "1" and row[3] == "0":
            assert row[4] == "3"


def test_exact_small(tmp_path):
    out = tmp_path / "e"
    assert (
        run_cli(
            "exact",
            "--radii",
            "1",
            "--potential",
            POT2,
            "--cutoff-radius-sq",
            "4",
            "--out",
            str(out),
        )
        == 0
    )
    header, rows = read_csv(out / "exact.csv")
    row = dict(zip(header, rows[0]))
    assert row["dimension"] == "51"
    assert row["status"] == "ok"
    assert row["energy"] == "135.471296357"
    assert float(row["residual"]) < 1e-8


def test_exact_skips_cutoff_without_a_shell(tmp_path):
    # r=20's default cutoff 23 holds no lattice point outside the ball
    out = tmp_path / "e"
    argv = ["exact", "--radii", "1,20", "--potential", POT2, "--out", str(out)]
    assert run_cli(*argv) == 0
    header, rows = read_csv(out / "exact.csv")
    first, last = (dict(zip(header, row)) for row in rows)
    assert first["status"] == "ok"
    assert last["cutoff_radius_sq"] == "23"
    assert last["status"] == "skipped: cutoff adds no shell"
    assert [last[c] for c in ("dimension", "method", "energy", "residual")] == [""] * 4


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--config", "configs/exact_small_d2.yaml"],
        ["scaling", "--radii", "1", "--window-degree", "1", "--potential", POT2],
    ],
)
def test_solver_residual_is_gated(tmp_path, argv):
    out = tmp_path / "ok"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert read_json(out / "failures.json") == []
    out = tmp_path / "tight"
    assert run_cli(*argv, "--solver-tol", "1e-20", "--out", str(out)) == 1
    failures = read_json(out / "failures.json")
    assert [f["invariant"] for f in failures] == ["solver.residual"]
    assert failures[0]["row"] == {"fermi_radius_sq": 1, "dimension": 51}
    # the row is still written
    header, rows = read_csv(out / f"{argv[0]}.csv")
    assert len(rows) == 1


def test_unconverged_lanczos_sector_is_skipped(tmp_path, monkeypatch):
    """A Lanczos solve that does not converge raises ValueError, which
    _solve records as a skipped row; the run goes on."""
    monkeypatch.setattr(vector, "_CYCLES", 1)
    argv = ["scaling", "--radii", "1", "--cutoff-radius-sq", "5", "--window-degree", "1"]
    assert run_cli(*argv, "--potential", POT2, "--out", str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "scaling.csv")
    row = dict(zip(header, rows[0]))
    assert row["exact_status"] == "skipped: Lanczos did not converge in 1 cycles"
    assert row["exact_energy"] == ""
    assert read_json(tmp_path / "failures.json") == []


def test_non_finite_subspace_bound_is_gated(tmp_path, monkeypatch):
    """A PIVOT_TOL above 1 drops every Gram direction of every block, so
    subspace_upper_bound returns inf: scaling records it as
    solver.subspace, exits 1 and still writes the row."""
    argv = ["scaling", "--radii", "1", "--window-degree", "1", "--potential", POT2]
    monkeypatch.setattr(bridge, "PIVOT_TOL", 2.0)
    out = tmp_path / "dropped"
    assert run_cli(*argv, "--out", str(out)) == 1
    failures = read_json(out / "failures.json")
    assert [f["invariant"] for f in failures] == ["solver.subspace"]
    assert failures[0]["row"] == {"fermi_radius_sq": 1, "dimension": 5}
    assert failures[0]["detail"].startswith("subspace bound inf: 5 of 5 Gram directions")
    header, rows = read_csv(out / "scaling.csv")
    assert len(rows) == 1 and rows[0][header.index("upper_subspace")] == "inf"


def test_exact_dimension_limit_reported_per_row(tmp_path):
    out = tmp_path / "el"
    assert (
        run_cli(
            "exact",
            "--radii",
            "1",
            "--potential",
            POT2,
            "--cutoff-radius-sq",
            "4",
            "--exact-dim-limit",
            "10",
            "--out",
            str(out),
        )
        == 0
    )
    header, rows = read_csv(out / "exact.csv")
    row = dict(zip(header, rows[0]))
    assert row["status"].startswith("skipped")
    assert row["energy"] == ""


def test_h2_audit_rows(tmp_path):
    out = tmp_path / "h"
    assert (
        run_cli(
            "h2-audit",
            "--radii",
            "4",
            "--potential",
            POT2,
            "--n-states",
            "3",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        == 0
    )
    header, rows = read_csv(out / "h2-audit.csv")
    assert len(rows) == 3
    for row in rows:
        rec = dict(zip(header, row))
        assert rec["status"] == "ok"
        assert float(rec["margin"]) > 0
    assert read_json(out / "failures.json") == []


def test_h2_audit_encodes_each_radius_once(tmp_path, monkeypatch):
    """The states of one radius share one pair-term table: one rho_parts
    encoding per radius.  Each phi image creator is a rho_parts call of
    its own, so the window images are built before the count starts."""
    radii = (1, 2, 4, 5)
    window = TruncationWindow.from_radius(2, 1, 2)
    for r in radii:
        for mono in window_monomials(window):
            bridge.phi_monomial_image(GasConfig(d=2, fermi_radius_sq=r, alpha=-1.0), mono)
    calls = []
    encode = fock.rho_parts
    monkeypatch.setattr(fock, "rho_parts", lambda *a: calls.append(a[1]) or encode(*a))
    argv = ["h2-audit", "--radii", "1,2,4,5", "--window-degree", "2", "--n-states", "6"]
    assert run_cli(*argv, "--seed", "3", "--potential", POT2, "--out", str(tmp_path)) == 0
    assert calls == list(radii)
    header, rows = read_csv(tmp_path / "h2-audit.csv")
    assert len(rows) == 6 * len(radii)
    assert len(read_json(tmp_path / "manifest.json")["timings"]["row_seconds"]) == len(radii)


def test_h2_audit_refusal_skips_every_state_of_its_radius(tmp_path):
    # K = 7 exceeds k_F = 2 pi at r = 1 but not k_F = 6 pi at r = 9
    argv = ["h2-audit", "--radii", "1,9", "--cutoff-momentum", "7", "--n-states", "2"]
    assert run_cli(*argv, "--potential", POT2, "--out", str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "h2-audit.csv")
    recs = [dict(zip(header, row)) for row in rows]
    assert [(rec["fermi_radius_sq"], rec["state"]) for rec in recs] == [
        ("1", "0"), ("1", "1"), ("9", "0"), ("9", "1")
    ]
    for rec in recs[:2]:
        assert rec["status"] == f"skipped: momentum cutoff 7.0 outside [2 pi, k_F={TWO_PI}]"
        assert rec["value"] == rec["bound"] == rec["margin"] == ""
    assert [rec["status"] for rec in recs[2:]] == ["ok", "ok"]


def test_trial_matches_library(tmp_path, small2, unit4):
    out = tmp_path / "t"
    assert (
        run_cli("trial", "--radii", "1", "--potential", POT2, "--out", str(out))
        == 0
    )
    header, rows = read_csv(out / "trial.csv")
    rec = dict(zip(header, rows[0]))
    lower, upper = fock.trivial_bounds(small2, unit4)
    # CSV floats carry 12 significant digits
    assert float(rec["e_n0"]) == pytest.approx(lower, rel=1e-10)
    assert float(rec["upper_filled"]) == pytest.approx(upper, rel=1e-10)
    assert float(rec["upper_bosonic_min"]) < upper


def test_scaling_columns(tmp_path):
    out = tmp_path / "s"
    assert (
        run_cli(
            "scaling",
            "--radii",
            "1,2",
            "--potential",
            POT2,
            "--out",
            str(out),
        )
        == 0
    )
    header, rows = read_csv(out / "scaling.csv")
    assert header == [
        "fermi_radius_sq",
        "k_f",
        "n_particles",
        "e_n0",
        "upper_filled",
        "upper_subspace",
        "exact_energy",
        "ratio_filled",
        "ratio_subspace",
        "exact_status",
    ]
    for row in rows:
        rec = dict(zip(header, row))
        n = float(rec["n_particles"])
        scale = n ** 1.5  # 1 - alpha - 1/d at alpha = -1, d = 2
        gap = float(rec["upper_filled"]) - float(rec["e_n0"])
        assert float(rec["ratio_filled"]) == pytest.approx(gap / scale, rel=1e-10)
        assert float(rec["upper_subspace"]) < float(rec["upper_filled"])
    # the 5-particle row has a feasible exact sector
    first = dict(zip(header, rows[0]))
    assert first["exact_energy"] == "135.471296357"
    assert first["exact_status"] == "ok"


@pytest.mark.parametrize(
    "flags, status",
    [
        (["--cutoff-radius-sq", "1"], "skipped: cutoff adds no shell"),
        (
            ["--exact-dim-limit", "10"],
            "skipped: sector dimension 51 exceeds basis_limit=10",
        ),
    ],
)
def test_scaling_reports_why_exact_is_blank(tmp_path, flags, status):
    out = tmp_path / "s"
    argv = ["scaling", "--radii", "1", "--window-degree", "1"]
    assert run_cli(*argv, "--potential", POT2, *flags, "--out", str(out)) == 0
    header, rows = read_csv(out / "scaling.csv")
    row = dict(zip(header, rows[0]))
    assert row["exact_energy"] == ""
    assert row["exact_status"] == status


# ------------------------------------------------------------ determinism


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run_cli(
                "isometry", "--radii", "1,4", "--out", str(out)
            )
            == 0
        )
    assert (a / "isometry.csv").read_bytes() == (b / "isometry.csv").read_bytes()


def test_thread_pool_preserves_bytes(tmp_path):
    serial, pooled = tmp_path / "s1", tmp_path / "s2"
    common = ["scaling", "--radii", "1,2", "--potential", POT2]
    assert run_cli(*common, "--out", str(serial)) == 0
    assert run_cli(*common, "--threads", "2", "--out", str(pooled)) == 0
    assert (serial / "scaling.csv").read_bytes() == (
        pooled / "scaling.csv"
    ).read_bytes()


GAS = ["fermi_radius_sq", "k_f", "n_particles"]

# Every sweep experiment's header at d = 2, --window-degree 1.
SWEEP_HEADERS = {
    "bounds": GAS + ["e_n0", "upper_filled", "gap"],
    "exact": GAS
    + ["cutoff_radius_sq", "momentum_1", "momentum_2"]
    + ["dimension", "method", "energy", "residual", "status"],
    "isometry": GAS
    + ["window_dim", "min_crescent", "max_abs_eps", "operator_norm_bound"]
    + ["shape_constant", "eps_deg_0", "eps_deg_1"],
    "intertwine": GAS
    + ["annihilator_max", "res_deg_0", "res_deg_1"],
    "h2-audit": GAS
    + ["state", "cutoff_momentum", "value", "bound", "margin", "status"],
    "trial": GAS
    + ["e_n0", "upper_filled", "upper_bosonic_min", "trial_energy"]
    + ["discrepancy", "identity_gap"],
    "scaling": GAS
    + ["e_n0", "upper_filled", "upper_subspace", "exact_energy"]
    + ["ratio_filled", "ratio_subspace", "exact_status"],
}


def test_registry_lists_every_experiment():
    sweeps = [name for name, e in cli.EXPERIMENTS.items() if e.row is not None]
    assert sorted(sweeps) == sorted(SWEEP_HEADERS)
    # each entry has a row worker or a whole-table runner, never both
    assert all((e.row is None) != (e.table is None) for e in cli.EXPERIMENTS.values())


@pytest.mark.parametrize("experiment", sorted(SWEEP_HEADERS))
def test_sweep_header_rows_and_pool(tmp_path, experiment):
    common = [experiment, "--radii", "1", "--window-degree", "1"]
    common += ["--potential", POT2, "--n-states", "3"]
    serial, pooled = tmp_path / "t1", tmp_path / "t2"
    assert run_cli(*common, "--out", str(serial)) == 0
    assert run_cli(*common, "--threads", "2", "--out", str(pooled)) == 0
    header, rows = read_csv(serial / f"{experiment}.csv")
    assert header == SWEEP_HEADERS[experiment]
    assert len(rows) == (3 if experiment == "h2-audit" else 1)
    assert all(len(row) == len(header) for row in rows)
    assert (serial / f"{experiment}.csv").read_bytes() == (
        pooled / f"{experiment}.csv"
    ).read_bytes()


def test_write_csv_header_is_the_first_rows_columns(tmp_path):
    path = tmp_path / "t.csv"
    good = [{"r": 1, "e": 0.5, "status": "ok"}, {"r": 2, "e": None, "status": "skipped"}]
    cli.write_csv(path, good)
    assert path.read_text() == "r,e,status\n1,0.5,ok\n2,,skipped\n"
    missing = good + [{"r": 3, "status": "ok"}]
    reordered = good + [{"r": 3, "status": "ok", "e": 1.0}]
    for rows in (missing, reordered):
        with pytest.raises(ValueError, match="differ from the header"):
            cli.write_csv(tmp_path / "bad.csv", rows)
    assert not (tmp_path / "bad.csv").exists()


# -------------------------------------------------------- config handling


def test_yaml_config_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(
        "d: 2\nalpha: -1.0\nradii: [1]\npotential: "
        + POT2
        + "\nout: "
        + str(tmp_path / "ignored")
        + "\n"
    )
    out = tmp_path / "o"
    assert (
        run_cli(
            "bounds",
            "--config",
            str(cfgfile),
            "--radii",
            "1,2",
            "--out",
            str(out),
        )
        == 0
    )
    _, rows = read_csv(out / "bounds.csv")
    assert len(rows) == 2  # flag override beat the file's single radius


def test_config_echo_in_manifest(tmp_path):
    out = tmp_path / "m"
    assert run_cli("magic", "--out", str(out)) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["experiment"] == "magic"
    assert manifest["config"]["d"] == 2
    for key in ("fermibose", "python", "numpy", "scipy"):
        assert key in manifest["versions"]
    assert manifest["rows"] > 0
    assert "total_seconds" in manifest["timings"]


def test_non_magic_radius_rejected(tmp_path):
    assert run_cli("bounds", "--radii", "3", "--out", str(tmp_path)) == 2


def test_default_sweep_is_the_first_four_shells():
    assert cli.ExperimentConfig("bounds", d=2).resolved_radii() == (1, 2, 4, 5)
    assert cli.ExperimentConfig("bounds", d=3).resolved_radii() == (1, 2, 3, 4)


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text("radius: 1\n")
    assert run_cli("bounds", "--config", str(cfgfile)) == 2


@pytest.mark.parametrize("key", ["dense_limit", "pivot_tol"])
def test_solver_thresholds_are_not_config_keys(key):
    # fock.DENSE_LIMIT and bridge.PIVOT_TOL are library constants
    with pytest.raises(cli.ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
        cli.load_config("scaling", None, {key: 1})


def test_momentum_dimension_checked(tmp_path):
    assert (
        run_cli(
            "exact",
            "--radii",
            "1",
            "--momentum",
            "0,0,0",
            "--out",
            str(tmp_path),
        )
        == 2
    )


@pytest.mark.parametrize(
    "experiment, flags, yaml_text, message",
    [
        ("trial", ["--radii", "1", "--window-degree", "-1"], None, "window_degree"),
        (
            "scaling",
            ["--radii", "1", "--window-radius-sq", "0"],
            None,
            "window_radius_sq",
        ),
        ("bounds", [], "radii: 5\n", "radii must be a list"),
        ("magic", [], "particles: 5\n", "unknown config keys: ['particles']"),
        ("exact", ["--radii", "1"], "momentum: 0\n", "momentum must be a list"),
        (
            "scaling",
            ["--radii", "1,2", "--momentum", "1,0"],
            None,
            "momentum is read only by exact, not by scaling",
        ),
        (
            "trial",
            ["--radii", "1"],
            "window_degree: two\n",
            "window_degree must be an integer, not 'two'",
        ),
        ("bounds", [], "radii: [a]\n", "radii must list integers, not ['a']"),
        ("bounds", [], "radii: [1, 2.5]\n", "radii must list integers, not [2.5]"),
        ("bounds", ["--radii", "1"], "alpha: low\n", "alpha must be a number"),
        ("bounds", [], "radii: [1\n", "is not valid YAML"),
        ("crescent-audit", ["--kmax-sq", "0"], None, "kmax_sq must be >= 1"),
        ("h2-audit", ["--n-states", "0"], None, "n_states must be >= 1"),
        ("h2-audit", ["--seed", "-1"], None, "seed must be >= 0"),
        ("magic", ["--max-radius-sq", "-1"], None, "max_radius_sq must be >= 0"),
        (
            "exact",
            ["--radii", "1", "--exact-dim-limit", "0"],
            None,
            "exact_dim_limit must be >= 1",
        ),
        (
            "exact",
            ["--radii", "1,2", "--cutoff-radius-sq", "-1"],
            None,
            "cutoff_radius_sq must be >= 0",
        ),
        (
            "h2-audit",
            ["--radii", "1", "--cutoff-momentum", "-1"],
            None,
            f"cutoff_momentum must be >= {TWO_PI}",
        ),
        (
            "h2-audit",
            ["--radii", "1"],
            "cutoff_momentum: 6\n",
            f"cutoff_momentum must be >= {TWO_PI}",
        ),
        ("exact", ["--radii", "1", "--solver-tol", "-1"], None, "solver_tol must be > 0"),
        ("exact", ["--radii", "1", "--solver-tol", "0"], None, "solver_tol must be > 0"),
        ("exact", ["--radii", "1", "--solver-tol", "nan"], None, "solver_tol must be finite"),
        ("exact", ["--radii", "1"], "solver_tol: .nan\n", "solver_tol must be finite"),
        ("exact", ["--radii", "1"], "solver_tol: .inf\n", "solver_tol must be finite"),
        ("bounds", ["--radii", "1", "--alpha", "nan"], None, "alpha must be finite"),
        ("bounds", ["--radii", "1", "--alpha", "inf"], None, "alpha must be finite"),
        ("bounds", ["--radii", "1"], "alpha: .nan\n", "alpha must be finite"),
        ("bounds", ["--radii", "1"], "alpha: -.inf\n", "alpha must be finite"),
        (
            "h2-audit",
            ["--radii", "1", "--cutoff-momentum", "inf"],
            None,
            "cutoff_momentum must be finite",
        ),
        ("h2-audit", ["--radii", "1"], "cutoff_momentum: .nan\n", "cutoff_momentum must be finite"),
        ("bounds", ["--radii", "3"], None, "radii [3] are not occupied squared radii"),
        # particles, a second way to name a sweep, is no config key or flag
        ("bounds", ["--particles", "6"], None, "unrecognized arguments: --particles"),
        ("crescent-audit", ["--radii", "3"], None, "radii [3] are not occupied"),
        ("magic", ["--radii", "3"], None, "radii is not read by magic"),
        ("magic", [], "radii: [1, 2]\n", "radii is not read by magic"),
    ],
    ids=[
        "window-degree",
        "window-radius-sq",
        "radii",
        "particles",
        "momentum",
        "momentum-outside-exact",
        "window-degree-word",
        "radii-word",
        "radii-float",
        "alpha-word",
        "yaml-syntax",
        "kmax-sq",
        "n-states",
        "seed",
        "max-radius-sq",
        "exact-dim-limit",
        "cutoff-radius-sq",
        "cutoff-momentum",
        "cutoff-momentum-below-two-pi",
        "solver-tol-negative",
        "solver-tol-zero",
        "solver-tol-nan",
        "solver-tol-nan-yaml",
        "solver-tol-inf-yaml",
        "alpha-nan",
        "alpha-inf",
        "alpha-nan-yaml",
        "alpha-minus-inf-yaml",
        "cutoff-momentum-inf",
        "cutoff-momentum-nan-yaml",
        "radii-not-occupied",
        "particles-flag",
        "crescent-audit-radii",
        "magic-radii-flag",
        "magic-radii-yaml",
    ],
)
def test_bad_window_and_sweep_config_rejected(
    tmp_path, capsys, experiment, flags, yaml_text, message
):
    argv = [experiment, *flags, "--out", str(tmp_path / "out")]
    if yaml_text is not None:
        cfgfile = tmp_path / "bad.yaml"
        cfgfile.write_text(yaml_text)
        argv += ["--config", str(cfgfile)]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses an unknown flag
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Every flag with its parsed type and, where pinned, its --help text.
FLAGS = {
    "--d": (int, "lattice dimension"),
    "--alpha": (float, "coupling exponent"),
    "--radii": (tuple, "comma-separated fermi_radius_sq sweep"),
    "--potential": (str, "potential file path"),
    "--window-radius-sq": (int, None),
    "--window-degree": (int, None),
    "--max-radius-sq": (int, None),
    "--kmax-sq": (int, None),
    "--cutoff-radius-sq": (int, None),
    "--momentum": (tuple, "total momentum sector"),
    "--cutoff-momentum": (float, None),
    "--n-states": (int, None),
    "--exact-dim-limit": (int, None),
    "--solver-tol": (float, None),
    "--seed": (int, "seed for sampled audit states"),
    "--threads": (int, "worker processes"),
    "--out": (str, "output directory (default runs/)"),
}
# sample values that meet every key's lower bound; 5 and 9 are
# occupied squared radii in d = 2
SAMPLE_TEXT = {int: ("3", 3), float: ("7.5", 7.5), str: ("x", "x"), tuple: ("5,9", (5, 9))}


def test_parser_options_are_the_config_fields():
    options = [a for a in cli.build_parser()._actions if a.option_strings]
    dests = {a.dest for a in options} - {"help"}
    keys = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    assert dests == keys - {"experiment"} | {"config"}
    flags = {a.option_strings[0]: a for a in options if a.dest in keys}
    assert sorted(flags) == sorted(FLAGS)
    for flag, (_, help_text) in FLAGS.items():
        assert flags[flag].dest == flag[2:].replace("-", "_")
        assert flags[flag].help
        if help_text is not None:
            assert flags[flag].help == help_text


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_each_flag_parses_into_its_kind(flag):
    kind = FLAGS[flag][0]
    text, value = SAMPLE_TEXT[kind]
    args = vars(cli.build_parser().parse_args(["magic", flag, text]))
    key = flag[2:].replace("-", "_")
    assert type(args[key]) is kind and args[key] == value
    # the parsed value passes load_config's type check (in exact, the one
    # experiment that reads every key)
    assert getattr(cli.load_config("exact", None, {key: value}), key) == value


BOUNDED = {
    "d": 2,
    "window_radius_sq": 1,
    "window_degree": 0,
    "max_radius_sq": 0,
    "kmax_sq": 1,
    "n_states": 1,
    "seed": 0,
    "threads": 1,
    "exact_dim_limit": 1,
    "cutoff_radius_sq": 0,
    "cutoff_momentum": TWO_PI,
}


def test_bounded_keys_are_the_schema_lows():
    lows = {
        f.name: f.metadata["low"]
        for f in dataclasses.fields(cli.ExperimentConfig)
        if f.metadata.get("low") is not None
    }
    assert lows == BOUNDED
    above = {
        f.name: f.metadata["above"]
        for f in dataclasses.fields(cli.ExperimentConfig)
        if f.metadata.get("above") is not None
    }
    assert above == {"solver_tol": 0}


def test_solver_tol_accepts_any_positive_value():
    assert cli.load_config("exact", None, {"solver_tol": 5e-324}).solver_tol == 5e-324


@pytest.mark.parametrize("key", sorted(BOUNDED))
def test_bounded_key_accepts_its_low(tmp_path, key):
    low = BOUNDED[key]
    flag = "--" + key.replace("_", "-")
    args = vars(cli.build_parser().parse_args(["magic", flag, str(low)]))
    del args["experiment"], args["config"]
    assert getattr(cli.load_config("magic", None, args), key) == low
    cfgfile = tmp_path / "low.yaml"
    cfgfile.write_text(f"{key}: {low}\n")
    assert getattr(cli.load_config("magic", str(cfgfile), {}), key) == low
    with pytest.raises(cli.ConfigError, match=f"^{key} must be >= {low}$"):
        cli.load_config("magic", None, {key: low - 1})


def test_h2_audit_imports_no_matrix_or_config_libraries(tmp_path):
    """h2-audit and trial build no matrix and read no config file: in a
    fresh process that runs both, scipy.sparse, scipy.linalg, yaml and
    the process pool stay unimported."""
    script = (
        "import sys\n"
        "from fermibose import cli\n"
        f"code = cli.main(['h2-audit', '--radii', '1,5', '--window-degree', '2', "
        f"'--n-states', '2', '--potential', {POT2!r}, '--out', {str(tmp_path)!r}])\n"
        f"code += cli.main(['trial', '--radii', '1,5', '--window-degree', '2', "
        f"'--potential', {POT2!r}, '--out', {str(tmp_path)!r}])\n"
        "heavy = ('scipy.sparse', 'scipy.linalg', 'yaml', 'concurrent.futures.process')\n"
        "print(code, [m for m in heavy if m in sys.modules])\n"
    )
    assert fresh_python(script)[-1] == "0 []"
    _, rows = read_csv(tmp_path / "h2-audit.csv")
    assert len(rows) == 4 and {row[-1] for row in rows} == {"ok"}
    _, rows = read_csv(tmp_path / "trial.csv")
    assert len(rows) == 2


def test_scaling_and_isometry_import_no_scipy_submodule(tmp_path):
    """scaling and isometry build their frames, Hamiltonians and forms and
    solve their sectors with scipy's sparse kernels alone, the Lanczos
    sector of r = 13 (2104 determinants) included: in a fresh process
    that runs both, the one scipy module loaded beyond those of `import
    scipy` is the _sparsetools extension, not the scipy.sparse package,
    nor scipy._lib._array_api (which every scipy submodule loads), and
    numpy.ma, which np.unique's path without indices imports, and
    numpy.random, which the fixed Lanczos start vector does without,
    stay unimported.  An exact row of one Lanczos sector (5010
    determinants) loads nothing more, and a dense exact row adds scipy's
    LAPACK extension alone, so numpy.f2py and numpy.testing stay
    unimported too."""
    out = str(tmp_path)
    script = (
        "import sys\n"
        "import scipy\n"
        "def scipy_modules():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'scipy'}\n"
        "base = scipy_modules()\n"
        "from fermibose import cli\n"
        "heavy = ('numpy.ma', 'numpy.random', 'numpy.f2py', 'numpy.testing')\n"
        "def loaded():\n"
        "    return sorted(scipy_modules() - base) + [m for m in heavy if m in sys.modules]\n"
        f"code = cli.main(['scaling', '--config', 'configs/scaling_d2.yaml', '--radii', "
        f"'5,13,17', '--out', {out!r}])\n"
        f"code += cli.main(['isometry', '--radii', '1,4', '--out', {out!r}])\n"
        "print(code, loaded())\n"
        f"code += cli.main(['exact', '--radii', '2', '--cutoff-radius-sq', '5', '--potential', "
        f"{POT2!r}, '--exact-dim-limit', '30000', '--out', {out + '/lanczos'!r}])\n"
        "print(code, loaded())\n"
        f"code += cli.main(['exact', '--radii', '1', '--potential', {POT2!r}, "
        f"'--out', {out + '/dense'!r}])\n"
        "print(code, loaded())\n"
    )
    sparse, lapack = "'scipy.sparse._sparsetools'", "'scipy.linalg._flapack'"
    assert fresh_python(script)[-3:] == [
        f"0 [{sparse}]",
        f"0 [{sparse}]",
        f"0 [{lapack}, {sparse}]",
    ]
    _, rows = read_csv(tmp_path / "scaling.csv")
    assert [row[0] for row in rows] == ["5", "13", "17"]
    assert [row[6] != "" for row in rows] == [True, True, False]  # exact_energy
    for name, dim, method in (("lanczos", "5010", "iterative"), ("dense", "51", "dense")):
        header, rows = read_csv(tmp_path / name / "exact.csv")
        row = dict(zip(header, rows[0]))
        assert len(rows) == 1 and row["status"] == "ok"
        assert (row["dimension"], row["method"]) == (dim, method)


def test_dense_solver_loads_lapack_alone():
    """In a fresh process cli._dsyevr solves without importing
    scipy.linalg: it loads scipy's LAPACK extension once and refuses a
    NaN entry with ValueError, as eigh's finite check does.  On the dense
    sectors of 51 and 457 determinants and on random symmetric matrices
    its eigenpairs have the bytes of scipy.linalg.eigh(a,
    overwrite_a=True), which calls the same dsyevr."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from fermibose import cli, fock, lattice, vector

        assert "scipy.linalg" not in sys.modules
        config = lattice.GasConfig(d=2, fermi_radius_sq=1, alpha=-1.0)
        pot = fock.unit_potential(2)
        mats = [
            fock.hamiltonian_matrix(config, pot, fock.sector_basis(config, c)).toarray(order="F")
            for c in (4, 5)
        ]
        rng = np.random.default_rng(32)
        for n in (1, 2, 17, 513, 1999):
            a = rng.standard_normal((n, n))
            mats.append(np.asfortranarray(a + a.T))
        got = [cli._dsyevr(a.copy(order="F")) for a in mats]
        nan = np.eye(3, order="F")
        nan[1, 2] = nan[2, 1] = np.nan
        try:
            cli._dsyevr(nan)
        except ValueError:
            pass
        else:
            raise AssertionError("NaN accepted")
        assert "scipy.linalg" not in sys.modules
        lapack = vector.extension("linalg", "_flapack")
        assert lapack is vector.extension("linalg", "_flapack")

        import scipy.linalg

        assert scipy.linalg.lapack.dsyevr is lapack.dsyevr
        for a, (w, v) in zip(mats, got):
            want_w, want_v = scipy.linalg.eigh(a.copy(order="F"), overwrite_a=True)
            assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()
        print([len(w) for w, _ in got])
        """
    )
    assert fresh_python(script)[-1] == "[51, 457, 1, 2, 17, 513, 1999]"


def test_sparse_kernels_load_alone():
    """In a fresh process vector.extension loads scipy's _sparsetools
    from its file without the scipy.sparse package, and returns one
    module per extension on every call; a later import of scipy.sparse
    takes that module, whose kernels then serve scipy's own products."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from fermibose import vector

        tools = vector.extension("sparse", "_sparsetools")
        lapack = vector.extension("linalg", "_flapack")
        assert tools is vector.extension("sparse", "_sparsetools")
        assert lapack is vector.extension("linalg", "_flapack") and lapack is not tools
        assert "scipy.sparse" not in sys.modules and "scipy.linalg" not in sys.modules

        import scipy.sparse
        from scipy.sparse import _sparsetools

        assert _sparsetools is tools is vector.extension("sparse", "_sparsetools")
        assert sys.modules["scipy.sparse._sparsetools"] is tools
        a = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        print((a @ a).toarray().tolist())
        """
    )
    assert fresh_python(script)[-1] == "[[1.0, 8.0], [0.0, 9.0]]"


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        cli.main(["warp-drive"])


# ---------------------------------------------------- potential validation


def test_validate_potential_roundtrip():
    pot = fock.load_potential(POT2, 2)
    assert pot.value_at_origin() == pytest.approx(4.0)
    assert pot.integral() == 0.0


BAD_POTENTIALS = [
    # two missing mirrors and one negative mode
    ("1 0 1\n0 1 -2\n", ["missing opposite", "missing opposite", "negative"]),
    # each non-finite entry once, with no asymmetry reported for it
    ("1 0 inf\n-1 0 inf\n0 1 nan\n0 -1 nan\n1 1 1\n-1 -1 -inf\n", ["non-finite"] * 5),
]


def test_bad_potential_enumerated(tmp_path):
    for case, (text, reasons) in enumerate(BAD_POTENTIALS):
        bad = tmp_path / f"bad{case}.potential"
        bad.write_text(text)
        out = tmp_path / f"o{case}"
        assert (
            run_cli(
                "bounds", "--radii", "1", "--potential", str(bad), "--out", str(out)
            )
            == 1
        )
        failures = read_json(out / "failures.json")
        assert all(f["invariant"] == "potential.format" for f in failures)
        details = [f["detail"] for f in failures]
        assert len(details) == len(reasons)
        assert sorted(r for d in details for r in set(reasons) if d.startswith(r)) == reasons
        assert not any("vhat(k)=" in detail for detail in details)
        assert not (out / "bounds.csv").exists()


def test_potential_without_data_lines_rejected(tmp_path):
    empty = tmp_path / "empty.potential"
    empty.write_text("# comments only\n\n")
    out = tmp_path / "o"
    argv = ["bounds", "--radii", "1", "--potential", str(empty), "--out", str(out)]
    assert run_cli(*argv) == 1
    assert read_json(out / "failures.json") == [
        {"invariant": "potential.format", "row": {"where": "file"}, "detail": "no data lines"}
    ]
    assert not (out / "bounds.csv").exists()
    for d in (2, 3):
        with pytest.raises(fock.PotentialError) as err:
            fock.load_potential(empty, d)
        assert err.value.violations == [("file", "no data lines")]


def test_missing_potential_file(tmp_path):
    assert (
        run_cli(
            "bounds",
            "--radii",
            "1",
            "--potential",
            str(tmp_path / "nope.potential"),
            "--out",
            str(tmp_path / "o"),
        )
        == 2
    )
