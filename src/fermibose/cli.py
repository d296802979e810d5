"""Experiment runner: sweeps, audits and bounds as reproducible tables.

Each experiment reads one YAML config (flags override file values),
whose keys are the ExperimentConfig fields: every flag, type check and
lower bound is generated from them.  It writes a CSV table with floats
at 12 significant digits, a JSON manifest with the resolved config,
library versions and timings, and a failures.json listing every
violated invariant.  Identical configs produce byte-identical CSV files
on one machine with one BLAS thread count; the manifest carries the
wall-clock numbers and is the only output allowed to differ between
reruns.

Sweep rows are independent jobs.  With --threads > 1 they are evaluated
in a process pool and written back in row order, so the thread count
never changes the output bytes.  yaml and the process pool are imported
only when a config file is read or --threads > 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import __version__, boson, bridge, fock, lattice
from .lattice import TWO_PI, GasConfig

FLOAT_FMT = "%.12g"


class ConfigError(ValueError):
    pass


def _key(default, help, low=None, above=None):
    """A config key: its default, its --help text and its lowest valid
    value, or the value it must exceed (None: unbounded)."""
    return field(default=default, metadata={"help": help, "low": low, "above": above})


@dataclass
class ExperimentConfig:
    experiment: str
    d: int = _key(2, "lattice dimension", low=2)
    alpha: float = _key(-1.0, "coupling exponent")
    radii: tuple = _key((), "comma-separated fermi_radius_sq sweep")
    particles: tuple = _key((), "comma-separated magic N sweep")
    potential: str | None = _key(None, "potential file path")
    window_radius_sq: int = _key(1, "largest |k|^2 of a window mode", low=1)
    window_degree: int = _key(2, "largest window monomial degree", low=0)
    max_radius_sq: int = _key(25, "magic table extent", low=0)
    kmax_sq: int = _key(16, "crescent audit shift extent", low=1)
    cutoff_radius_sq: int | None = _key(None, "exact-diagonalization pool", low=0)
    momentum: tuple | None = _key(None, "total momentum sector")
    cutoff_momentum: float | None = _key(None, "h2 audit scale K", low=TWO_PI)
    n_states: int = _key(20, "h2 audit rows per radius", low=1)
    exact_dim_limit: int = _key(4000, "largest sector dimension solved", low=1)
    solver_tol: float = _key(1e-9, "eigensolver residual tolerance", above=0)
    seed: int = _key(0, "seed for sampled audit states", low=0)
    threads: int = _key(1, "worker processes", low=1)
    out: str = _key("runs", "output directory (default runs/)")

    def resolved_radii(self):
        if self.radii and self.particles:
            raise ConfigError("give either radii or particles, not both")
        if self.particles:
            radii = []
            for n in self.particles:
                try:
                    radii.append(
                        GasConfig.from_particle_count(
                            self.d, n, self.alpha
                        ).fermi_radius_sq
                    )
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
            return tuple(radii)
        if self.radii:
            bad = [
                r
                for r in self.radii
                if not lattice.is_occupied_radius(self.d, r) or r < 1
            ]
            if bad:
                raise ConfigError(
                    f"radii {bad} are not occupied squared radii in d={self.d}"
                )
            return tuple(self.radii)
        # first few closed shells as a usable default sweep
        out, r = [], 1
        while len(out) < 4:
            if lattice.is_occupied_radius(self.d, r):
                out.append(r)
            r += 1
        return tuple(out)

    def gas(self, radius_sq: int) -> GasConfig:
        return GasConfig(d=self.d, fermi_radius_sq=radius_sq, alpha=self.alpha)

    def window(self) -> boson.TruncationWindow:
        return boson.TruncationWindow.from_radius(
            self.d, self.window_radius_sq, self.window_degree
        )

    def warnings(self):
        out = []
        edge = 1.0 - 2.0 / self.d
        if self.alpha >= edge:
            out.append(
                f"alpha={self.alpha} is outside the strong-coupling regime "
                f"(expected alpha < 1 - 2/d = {edge})"
            )
        if self.potential is None and EXPERIMENTS[self.experiment].needs_potential:
            out.append("no potential configured; running with v = 0")
        return out


def _int_list(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


# annotation kind -> (flag parser, accepted value types, name in messages);
# a key's kind is the first name of its annotation ("int | None" -> "int")
_KINDS = {
    "int": (int, int, "an integer"),
    "float": (float, (int, float), "a number"),
    "str": (str, str, "a string"),
    "tuple": (_int_list, (list, tuple), "a list"),
}
_CONFIG_KINDS = {f.name: f.type.split(" |")[0] for f in fields(ExperimentConfig)}


def _is_kind(value, kind) -> bool:
    return not isinstance(value, bool) and isinstance(value, _KINDS[kind][1])


def load_config(experiment: str, path: str | None, overrides: dict) -> ExperimentConfig:
    data = {}
    if path is not None:
        import yaml

        with open(path) as fh:
            try:
                loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} is not a key-value document")
        data.update(loaded)
    data.update({k: v for k, v in overrides.items() if v is not None})
    data["experiment"] = experiment
    unknown = set(data) - set(_CONFIG_KINDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    data = {k: v for k, v in data.items() if v is not None}
    for key, value in data.items():
        kind = _CONFIG_KINDS[key]
        if not _is_kind(value, kind):
            raise ConfigError(f"{key} must be {_KINDS[kind][2]}, not {value!r}")
        if kind == "tuple":
            bad = [x for x in value if not _is_kind(x, "int")]
            if bad:
                raise ConfigError(f"{key} must list integers, not {bad!r}")
            data[key] = tuple(value)
    cfg = ExperimentConfig(**data)
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    for f in fields(cfg):
        low, above = f.metadata.get("low"), f.metadata.get("above")
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if low is not None and value < low:
            raise ConfigError(f"{f.name} must be >= {low}")
        if above is not None and value <= above:
            raise ConfigError(f"{f.name} must be > {above}")
    if cfg.momentum is not None and len(cfg.momentum) != cfg.d:
        raise ConfigError(
            f"momentum {cfg.momentum} does not have {cfg.d} components"
        )
    return cfg


def _potential(cfg: ExperimentConfig) -> fock.Potential:
    if cfg.potential is None:
        return fock.Potential(cfg.d, {})
    return fock.load_potential(cfg.potential, cfg.d)


# ---------------------------------------------------------------- formatting


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path, rows):
    """Write rows, dicts from column name to value, as a CSV table whose
    header is the first row's keys.  A row with other keys, or the same
    keys in another order, is refused before anything is written."""
    header = list(rows[0])
    for row in rows:
        if list(row) != header:
            raise ValueError(f"row columns {list(row)} differ from the header {header}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(x) for x in row.values()] for row in rows)


# -------------------------------------------------------------- row workers
#
# Each takes (cfg, pot, r, state) and returns (rows, failures), every row
# a dict from column name to value; a process pool pickles the config and
# the potential with every row.


def _gas(config: GasConfig) -> dict:
    """The leading columns of every sweep row."""
    return {
        "fermi_radius_sq": config.fermi_radius_sq,
        "k_f": config.fermi_momentum,
        "n_particles": lattice.particle_count(config),
    }


def _cutoff(cfg: ExperimentConfig, r: int) -> int:
    """Exact-diagonalization pool: the configured radius, else r + 3."""
    return cfg.cutoff_radius_sq if cfg.cutoff_radius_sq is not None else r + 3


def _solve(cfg, pot, config: GasConfig, cutoff: int, momentum):
    """The sector ground state of one row: (result or None, status,
    failures).

    A cutoff ball that is the Fermi ball itself holds only the filled
    ball, so it is skipped unsolved; a sector fock.ground_state refuses is
    skipped with its reason; an eigenpair whose residual exceeds
    solver_tol * |energy| is kept and recorded as solver.residual.
    """
    if len(lattice.ball_points(config.d, cutoff)) == lattice.particle_count(config):
        return None, "skipped: cutoff adds no shell", []
    try:
        res = fock.ground_state(
            config,
            pot,
            cutoff_radius_sq=cutoff,
            momentum=momentum,
            tol=cfg.solver_tol,
            basis_limit=cfg.exact_dim_limit,
        )
    except ValueError as exc:
        return None, f"skipped: {exc}", []
    failures = []
    bound = cfg.solver_tol * abs(res.energy)
    if res.residual > bound:
        failures.append(
            {
                "invariant": "solver.residual",
                "row": {
                    "fermi_radius_sq": config.fermi_radius_sq,
                    "dimension": res.dimension,
                },
                "detail": f"{res.method} residual {res.residual} exceeds "
                f"solver_tol * |energy| = {bound}",
            }
        )
    return res, "ok", failures


def _bounds_row(cfg, pot, r, state):
    config = cfg.gas(r)
    lower, upper = fock.trivial_bounds(config, pot)
    row = _gas(config) | {"e_n0": lower, "upper_filled": upper, "gap": upper - lower}
    return [row], []


def _exact_row(cfg, pot, r, state):
    config = cfg.gas(r)
    cutoff = _cutoff(cfg, r)
    momentum = cfg.momentum or (0,) * cfg.d
    res, status, failures = _solve(cfg, pot, config, cutoff, momentum)
    row = _gas(config) | {"cutoff_radius_sq": cutoff}
    row |= {f"momentum_{i + 1}": p for i, p in enumerate(momentum)}
    row |= {
        "dimension": None if res is None else res.dimension,
        "method": None if res is None else res.method,
        "energy": None if res is None else res.energy,
        "residual": None if res is None else res.residual,
        "status": status,
    }
    return [row], failures


def _isometry_row(cfg, pot, r, state):
    config = cfg.gas(r)
    window = cfg.window()
    report = bridge.isometry_audit(window, config)
    row = _gas(config) | {
        "window_dim": boson.window_dim(window),
        "min_crescent": min(len(lattice.crescent(k, config)) for k in window.modes),
        "max_abs_eps": report.max_abs_eps,
        "operator_norm_bound": report.operator_norm_bound,
        "shape_constant": bridge.isometry_shape_constant(report, config),
    }
    for deg in range(window.max_degree + 1):
        row[f"eps_deg_{deg}"] = report.max_abs_by_degree.get(deg, 0.0)
    return [row], []


def _intertwine_row(cfg, pot, r, state):
    config = cfg.gas(r)
    window = cfg.window()
    report = bridge.intertwine_residual(window, config)
    by_degree = {}
    for mono, val in report.per_monomial.items():
        deg = len(mono)
        by_degree[deg] = max(by_degree.get(deg, 0.0), val)
    row = _gas(config) | {
        "annihilator_max": report.annihilator_max,
        "creator_max": report.creator_max,
    }
    for deg in range(window.max_degree + 1):
        row[f"res_deg_{deg}"] = by_degree.get(deg, 0.0)
    return [row], []


def _h2_row(cfg, pot, r, state):
    config = cfg.gas(r)
    window = cfg.window()
    cutoff = cfg.cutoff_momentum
    if cutoff is None:
        cutoff = TWO_PI * math.sqrt(cfg.window_radius_sq)
    failures = []
    try:
        rng = np.random.default_rng((cfg.seed, r, state))
        f = boson.random_boson_vector(window, rng, n_terms=4)
        audit = bridge.h2_expectation_audit(f, window, config, pot, cutoff)
    except ValueError as exc:
        audit, status = None, f"skipped: {exc}"
    else:
        status = "ok" if audit.passed else "violated"
        if not audit.passed:
            failures.append(
                {
                    "invariant": "h2.expectation_bound",
                    "row": {"fermi_radius_sq": r, "state": state},
                    "detail": f"value {audit.value} exceeds bound {audit.bound}",
                }
            )
    row = _gas(config) | {
        "state": state,
        "cutoff_momentum": cutoff,
        "value": None if audit is None else audit.value,
        "bound": None if audit is None else audit.bound,
        "margin": None if audit is None else audit.bound - audit.value,
        "status": status,
    }
    return [row], failures


def _trial_row(cfg, pot, r, state):
    config = cfg.gas(r)
    lower, upper = fock.trivial_bounds(config, pot)
    weights = boson.hb_weights(config, pot)
    res = boson.hb_min_truncated(weights, cfg.window())
    report = bridge.trial_energy(res.argmin, config, pot)
    row = _gas(config) | {
        "e_n0": lower,
        "upper_filled": upper,
        "upper_bosonic_min": lower + res.value,
        "trial_energy": report.raw,
        "bosonic_prediction": report.bosonic_prediction,
        "discrepancy": report.discrepancy,
        "identity_gap": report.identity_gap,
    }
    return [row], []


def _scaling_row(cfg, pot, r, state):
    config = cfg.gas(r)
    n = lattice.particle_count(config)
    lower, upper = fock.trivial_bounds(config, pot)
    sub = bridge.subspace_upper_bound(cfg.window(), config, pot)
    res, status, failures = _solve(cfg, pot, config, _cutoff(cfg, r), None)
    scale = float(n) ** (1.0 - cfg.alpha - 1.0 / cfg.d)
    row = _gas(config) | {
        "e_n0": lower,
        "upper_filled": upper,
        "upper_subspace": sub.value,
        "exact_energy": None if res is None else res.energy,
        "ratio_filled": (upper - lower) / scale,
        "ratio_subspace": (sub.value - lower) / scale,
        "exact_status": status,
    }
    return [row], failures


def _timed_row(job):
    """Run one sweep row; returns (rows, failures, seconds)."""
    t0 = time.perf_counter()
    cfg, pot, r, state = job
    rows, failures = EXPERIMENTS[cfg.experiment].row(cfg, pot, r, state)
    return rows, failures, time.perf_counter() - t0


# ----------------------------------------------------------- whole tables
#
# Each takes the config and returns (rows, failures, manifest extras).


def _run_magic(cfg: ExperimentConfig):
    rows = [
        {"radius_sq": r, "k_f": cfg.gas(r).fermi_momentum, "n_particles": n}
        for r, n in lattice.magic_numbers(cfg.d, cfg.max_radius_sq)
    ]
    return rows, [], {}


def _run_crescent_audit(cfg: ExperimentConfig):
    radii = cfg.resolved_radii()
    audit = lattice.audit_crescent_bounds(cfg.d, radii, cfg.kmax_sq)
    rows = [
        {"fermi_radius_sq": r, "n_particles": n}
        | {f"k_{i + 1}": x for i, x in enumerate(k)}
        | {"crescent_size": size, "ratio": ratio}
        for r, n, k, size, ratio in audit.rows
    ]
    failures = [
        {
            "invariant": "crescent.geometry",
            "row": {"fermi_radius_sq": r, "k": list(k)},
            "detail": reason,
        }
        for r, k, reason in audit.failures
    ]
    extras = {
        "ratio_low": audit.ratio_low,
        "ratio_high": audit.ratio_high,
        "low_witness": audit.low_witness,
        "high_witness": audit.high_witness,
    }
    return rows, failures, extras


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Experiment:
    """One experiment: a per-row worker run once per radius (once per
    radius and state when per_state) or a runner for the whole table."""

    row: Callable | None = None
    table: Callable | None = None
    needs_potential: bool = False
    per_state: bool = False


EXPERIMENTS = {
    "magic": Experiment(table=_run_magic),
    "crescent-audit": Experiment(table=_run_crescent_audit),
    "bounds": Experiment(_bounds_row, needs_potential=True),
    "exact": Experiment(_exact_row, needs_potential=True),
    "isometry": Experiment(_isometry_row),
    "intertwine": Experiment(_intertwine_row),
    "h2-audit": Experiment(_h2_row, needs_potential=True, per_state=True),
    "trial": Experiment(_trial_row, needs_potential=True),
    "scaling": Experiment(_scaling_row, needs_potential=True),
}


# ------------------------------------------------------------------- runner


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    t_start = time.perf_counter()
    os.makedirs(cfg.out, exist_ok=True)
    warnings = cfg.warnings()
    experiment = EXPERIMENTS[cfg.experiment]
    row_seconds = []

    if experiment.table is not None:
        rows, failures, manifest_extras = experiment.table(cfg)
    else:
        try:
            pot = _potential(cfg)
        except fock.PotentialError as exc:
            _write_failures(
                cfg,
                [
                    {
                        "invariant": "potential.format",
                        "row": {"where": str(where)},
                        "detail": reason,
                    }
                    for where, reason in exc.violations
                ],
            )
            print(str(exc), file=sys.stderr)
            return 1
        states = range(cfg.n_states if experiment.per_state else 1)
        jobs = [(cfg, pot, r, s) for r in cfg.resolved_radii() for s in states]
        if cfg.threads > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
                results = list(pool.map(_timed_row, jobs))
        else:
            results = [_timed_row(job) for job in jobs]
        rows, failures, manifest_extras = [], [], {}
        for job_rows, job_failures, seconds in results:
            rows.extend(job_rows)
            failures.extend(job_failures)
            row_seconds.append(round(seconds, 6))

    csv_name = f"{cfg.experiment}.csv"
    write_csv(os.path.join(cfg.out, csv_name), rows)
    _write_failures(cfg, failures)

    manifest = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "versions": {
            "fermibose": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": {"csv": csv_name, "failures": "failures.json"},
        "rows": len(rows),
        "failures": len(failures),
        "warnings": warnings,
        "timings": {
            "total_seconds": round(time.perf_counter() - t_start, 6),
            "row_seconds": row_seconds,
        },
    }
    manifest.update(manifest_extras)
    with open(os.path.join(cfg.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} invariant failure(s); see failures.json",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_failures(cfg: ExperimentConfig, failures):
    path = os.path.join(cfg.out, "failures.json")
    with open(path, "w") as fh:
        json.dump(failures, fh, indent=2)
        fh.write("\n")


# --------------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fermibose",
        description="Sweeps, audits and variational bounds for the "
        "interacting Fermi gas on the momentum lattice.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="YAML config file")
    for f in fields(ExperimentConfig)[1:]:  # every key but experiment
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=_KINDS[_CONFIG_KINDS[f.name]][0],
            help=f.metadata["help"],
        )
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    experiment = args.pop("experiment")
    config_path = args.pop("config")
    try:
        cfg = load_config(experiment, config_path, args)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
