"""Fast self-check of the benchmark harness, on configs/exact_small_d2.yaml.

    python3 perfbench/selfcheck.py

The workload is the 5-particle sector of dimension 51, which solves in
well under a second.  Checks, through the same code paths as run.py:

1. the metric names and units in BENCHMARK.json match the code;
2. one run per stream CPU passes against reference/exact_small_d2.csv;
3. with a deliberately wrong reference every run is counted as failed;
4. one traced run records the span tree
   cli.main > cli.run > fock.ground_state > fock.sector_basis, fock.eigensolve.

Exits 0 when every check holds.
"""

import json
import os
import shutil
import sys

import run
import tracer

NAME = "exact_small_d2"


def main():
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(tracer.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    run.WORKLOADS[NAME] = ["exact", "--config", "configs/exact_small_d2.yaml"]
    streams = len(run.stream_cpus())  # with 0 seconds, one run per stream

    ok, attempted, failed, metrics = run.report(NAME, 0, 0.0, trace=False)
    if not ok or (attempted, failed) != (streams, 0) or metrics["pass_ratio"]["value"] != 1.0:
        problems.append(f"clean run: correct={ok} attempted={attempted} failed={failed}")

    wrong = os.path.join(run.OUT, "wrong-reference")
    shutil.rmtree(wrong, ignore_errors=True)
    os.makedirs(wrong)
    with open(os.path.join(run.REFERENCE, f"{NAME}.csv")) as fh:
        text = fh.read()
    with open(os.path.join(wrong, f"{NAME}.csv"), "w") as fh:
        fh.write(text.replace(",dense,", ",iterative,", 1))
    run.REFERENCE = wrong
    ok, attempted, failed, metrics = run.report(NAME, 0, 0.0, trace=False)
    if ok or (attempted, failed) != (streams, streams) or metrics["pass_ratio"]["value"] != 0.0:
        problems.append(f"wrong reference not counted: correct={ok} failed={failed}")

    run.REFERENCE = os.path.join(run.BENCH, "reference")
    ok, attempted, failed, metrics = run.report(NAME, 0, 0.0, trace=True)
    if not ok or failed:
        problems.append(f"traced run: correct={ok} failed={failed}")
    with open(os.path.join(run.OUT, NAME, "traced", "child.json")) as fh:
        spans = json.load(fh)["spans"]
    names = {sid: name for sid, _, name, _, _ in spans}
    edges = {(names.get(parent), name) for _, parent, name, _, _ in spans}
    for edge in [(None, "cli.main"), ("cli.main", "cli.run"), ("cli.run", "fock.ground_state"),
                 ("fock.ground_state", "fock.sector_basis"), ("fock.ground_state", "fock.eigensolve")]:
        if edge not in edges:
            problems.append(f"span tree lacks {edge[0]} > {edge[1]}")
    for key in ("fock.sector_basis.dets", "fock.eigensolve.dim"):
        if metrics[key]["value"] != 51:
            problems.append(f"{key} = {metrics[key]['value']}, expected 51")
    if metrics["fock.apply.calls"]["value"] != 0 or metrics["bridge.phi_image.misses"]["value"] != 0:
        problems.append("exact run touched fock.apply_* or bridge")

    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
