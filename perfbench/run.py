"""The fermibose benchmark: CLI workloads timed end to end, or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fermibose checkout.  NAME is one of WORKLOADS or
"all".  Every CLI run is a fresh single-threaded process (--threads 1,
one BLAS thread) and is checked against the reference CSV in
perfbench/reference/.

--trace 0 imports the CLI once to warm up, then runs the workload back
to back on each of two CPUs (one process per CPU at a time), starting no
run that would likely end after S seconds (so at least one per CPU).  It
reports the medians of wall_s, cpu_s, setup_s and peak_rss_mb over the
runs, and pass_ratio.
--trace 1 runs the workload once untraced and once under the span
recorder in tracer.py and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Outputs go to .perfbench/ in the checkout.  See NOTES.md for why these
workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference")
OUT = os.path.join(ROOT, ".perfbench")
POTENTIAL = "configs/unit4_d2.potential"

# name -> CLI arguments; each reference is reference/<name>.csv.
WORKLOADS = {
    "scaling_d2": ["scaling", "--config", "configs/scaling_d2.yaml", "--radii", "5,17"],
    "exact_sectors": [
        "exact", "--radii", "1,2", "--cutoff-radius-sq", "5",
        "--potential", POTENTIAL, "--exact-dim-limit", "30000",
    ],
    "h2_audit": [
        "h2-audit", "--radii", "5,9,13,20", "--window-degree", "1",
        "--n-states", "6", "--potential", POTENTIAL,
    ],
}
# The only workload whose input depends on the seed; its reference CSV
# was written at the CLI's default seed, DEFAULT_SEED.
SEEDED = "h2_audit"
DEFAULT_SEED = 0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)
CLI_TIMEOUT_S = 150
# CLI processes run at once, one pinned to each CPU (see NOTES.md).
STREAMS = 2
# One BLAS thread: with the process pool off, the children are single
# threaded, and the dense eigensolver's rounding does not depend on the
# thread count.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REQUIRED = ("src/fermibose/cli.py", "configs/scaling_d2.yaml", POTENTIAL)


def cli_args(name, seed):
    args = WORKLOADS[name] + ["--threads", "1"]
    return args + ["--seed", str(seed)] if name == SEEDED else args


def start(out_dir, args=None, trace=False, cpu=None):
    """Start child.py in a fresh out_dir, pinned to `cpu` if one is given.

    Without CLI arguments the child only imports: a set-up sample.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "child.json")
    cmd = [sys.executable, CHILD, result_path] + (["--trace"] if trace else [])
    if args:
        cmd += ["--"] + args + ["--out", out_dir]
    env = {**os.environ, **CHILD_ENV}
    with open(os.path.join(out_dir, "child.log"), "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
    if cpu is not None:
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except OSError:  # already exited; finish() reports it
            pass
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    return {"proc": proc, "start": started, "timer": timer, "out_dir": out_dir, "cpu": cpu}


def finish(job, status, usage):
    """The measurements of a started child that wait4 has reaped.

    Returns the exit code, wall time from spawn to exit, the child's CPU
    time and peak RSS (from wait4), setup_s (spawn until fermibose.cli
    was imported) and the child's result record (None if it wrote none).
    """
    wall = time.monotonic() - job["start"]
    job["timer"].cancel()
    proc = job["proc"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(os.path.join(job["out_dir"], "child.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError):  # killed before or while writing it
        result = None
    return {
        "code": proc.returncode,
        "cpu": job["cpu"],
        "out_dir": job["out_dir"],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        "setup_s": result["ready"] - job["start"] if result else None,
        "result": result,
    }


def stop(jobs):
    """Kill the children of `jobs` that still run and reap each of them."""
    for job in jobs:
        job["timer"].cancel()
        job["proc"].kill()
    for job in jobs:
        try:
            os.waitpid(job["proc"].pid, 0)
        except ChildProcessError:  # reaped already
            pass


def spawn(out_dir, args=None, trace=False):
    """Run child.py once in a fresh out_dir and wait for it; see finish()."""
    job = start(out_dir, args, trace)
    try:
        _, status, usage = os.wait4(job["proc"].pid, 0)
    except BaseException:
        stop([job])
        raise
    return finish(job, status, usage)


# ------------------------------------------------------------- correctness


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames or [], list(reader)


def csv_problems(got_path, ref_path, solver_tol, compare_cells=True):
    """Differences between a CLI table and its reference, by column name.

    Every reference column must be present, so a later version may add
    columns.  Cells compare byte for byte, except the residual of an
    iterative (Lanczos) row, which varies between processes because eigsh
    starts from a random vector; it must satisfy residual <= solver_tol *
    |energy|.  With compare_cells False only the columns, the row count
    and status == ok are checked.
    """
    ref_header, ref_rows = read_csv(ref_path)
    header, rows = read_csv(got_path)
    missing = [c for c in ref_header if c not in header]
    if missing:
        return [f"missing columns {missing}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if not compare_cells:
            if row.get("status", "ok") != "ok":
                problems.append(f"row {i}: status {row['status']!r}")
            continue
        for col in ref_header:
            if col == "residual" and row.get("method") == "iterative":
                try:
                    ok = float(row[col]) <= solver_tol * abs(float(row["energy"]))
                except ValueError:
                    ok = False
                if not ok:
                    problems.append(
                        f"row {i}: residual {row[col]} > {solver_tol} * |{row['energy']}|"
                    )
            elif row[col] != ref[col]:
                problems.append(f"row {i} {col}: {row[col]!r} != reference {ref[col]!r}")
    return problems


def run_problems(sample, out_dir, ref_path, compare_cells=True):
    """Why a CLI run failed: exit code, failures.json, CSV against reference."""
    if sample["code"] != 0:
        return [f"exit code {sample['code']}; see {out_dir}/child.log"]
    try:
        with open(os.path.join(out_dir, "failures.json")) as fh:
            failures = json.load(fh)
        if failures:
            return [f"{len(failures)} invariant failure(s) in failures.json"]
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        got = os.path.join(out_dir, manifest["outputs"]["csv"])
        return csv_problems(got, ref_path, manifest["config"]["solver_tol"], compare_cells)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def check(name, seed, sample):
    ref = os.path.join(REFERENCE, f"{name}.csv")
    exact = name != SEEDED or seed == DEFAULT_SEED
    sample["problems"] = run_problems(sample, sample["out_dir"], ref, compare_cells=exact)
    return sample


def run_workload(name, seed, out_dir, trace=False):
    return check(name, seed, spawn(out_dir, cli_args(name, seed), trace))


def stream_cpus():
    """The CPUs that each run one stream of CLI runs: at most STREAMS."""
    return sorted(os.sched_getaffinity(0))[:STREAMS]


def run_streams(name, seed, seconds, out):
    """Run the workload back to back on each CPU of stream_cpus(), one
    process per CPU at a time, starting no run on a CPU that would likely
    end after `seconds` (so at least one per CPU).  Returns the checked
    samples in the order they ended."""
    deadline = time.monotonic() + seconds
    live, runs = {}, []

    def launch(cpu):
        job = start(os.path.join(out, f"run-cpu{cpu}"), cli_args(name, seed), cpu=cpu)
        live[job["proc"].pid] = job

    try:
        for cpu in stream_cpus():
            launch(cpu)
        while live:
            pid, status, usage = os.wait4(-1, 0)
            job = live.pop(pid)
            sample = check(name, seed, finish(job, status, usage))
            runs.append(sample)
            if time.monotonic() + sample["wall_s"] <= deadline:
                launch(job["cpu"])
    finally:
        stop(live.values())
    return runs


# ------------------------------------------------------------- environment


def environment(seed, versions):
    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fermibose", "*.py"))):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "blas_env_inherited": {k: os.environ.get(k) for k in CHILD_ENV},
        "blas_env_children": CHILD_ENV,
        "src_fermibose_lines": lines,
    }


# ---------------------------------------------------------------- measuring


def measure(name, seed, seconds):
    """End-to-end metrics: medians over the CLI runs made in `seconds`."""
    out = os.path.join(OUT, name)
    warm = spawn(os.path.join(out, "setup"))  # byte-compile, fill the file cache
    began = time.monotonic()
    runs = run_streams(name, seed, seconds, out)
    setup_s = [r["setup_s"] for r in runs if r["setup_s"] is not None]
    failed = sum(1 for r in runs if r["problems"])
    per_cpu = {}
    for r in runs:
        per_cpu.setdefault(r["cpu"], []).append(r["wall_s"])
    return {
        "values": {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(setup_s) if setup_s else float("nan"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "pass_ratio": (len(runs) - failed) / len(runs),
        },
        "units": dict(END_TO_END),
        "runs": runs,
        "problems": [] if warm["code"] == 0 else [f"warm-up import: exit code {warm['code']}"],
        "notes": [
            f"{len(runs)} CLI run(s) in {time.monotonic() - began:.1f} s, "
            f"{len(setup_s)} set-up sample(s)",
        ]
        + [
            f"cpu {cpu}: {len(w)} run(s), wall_s median {statistics.median(w):.4f} s, "
            f"min {min(w):.4f} s, max {max(w):.4f} s"
            for cpu, w in sorted(per_cpu.items())
        ]
        + [f"fail_ratio = {failed / len(runs):g} ({failed} of {len(runs)} runs failed)"],
        "result": warm["result"],
    }


def measure_traced(name, seed):
    """Per-layer metrics from one traced run, against one untraced run."""
    out = os.path.join(OUT, name)
    base = run_workload(name, seed, os.path.join(out, "run"))
    traced = run_workload(name, seed, os.path.join(out, "traced"), trace=True)
    result = traced["result"] or {}
    if "spans" in result:
        values = tracer.layer_metrics(
            result["spans"], result["counts"], result["caches"],
            traced["wall_s"] - base["wall_s"],
        )
        problems, tree = [], tracer.span_tree(result["spans"])
    else:
        values = {m: float("nan") for m, _ in tracer.PER_LAYER}
        problems, tree = ["traced run recorded no spans"], []
    return {
        "values": values,
        "units": dict(tracer.PER_LAYER),
        "runs": [base, traced],
        "problems": problems,
        "notes": [f"traced wall {traced['wall_s']:.3f} s, untraced {base['wall_s']:.3f} s",
                  "span tree (total time and calls per call path):"]
        + ["  " + line for line in tree],
        "result": result,
    }


def report(name, seed, seconds, trace):
    """Measure one workload, print and record it; returns (correct,
    attempted, failed, metrics)."""
    m = measure_traced(name, seed) if trace else measure(name, seed, seconds)
    runs = m["runs"]
    problems = m["problems"] + [f"run {i}: {p}" for i, r in enumerate(runs) for p in r["problems"]]
    failed = sum(1 for r in runs if r["problems"])
    env = environment(seed, (m["result"] or {}).get("versions", {}))
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    for line in m["notes"]:
        print(f"  {line}")
    for metric, value in m["values"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric:38s} = {shown} {m['units'][metric]}")
    for p in problems:
        print(f"  FAILED: {p}")
    print(f"  env: {json.dumps(env)}")
    record = {
        "workload": name, "trace": trace, "env": env, "values": m["values"],
        "problems": problems,
        "runs": [{k: v for k, v in r.items() if k != "result"} for r in runs],
    }
    with open(os.path.join(OUT, name, f"record-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    metrics = {k: {"value": v, "unit": m["units"][k]} for k, v in m["values"].items()}
    return not problems, len(runs), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark raises SystemExit, so that the children are
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a fermibose checkout, missing {missing}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, f, m = report(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        metrics.update({f"{name}.{k}" if len(names) > 1 else k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
