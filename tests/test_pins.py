"""Every CLI CSV with a reference, pinned byte for byte.

Each row of PINS is one CLI run: its argv, the reference CSV it must
reproduce and the columns left out of the comparison.  The run goes
through a fresh process from the repository root with one BLAS thread,
and every other cell is compared as text, line by line, so a row that
skips no column compares the whole file byte for byte.  A skipped column
is cut by its header name from whichever side has it: `residual` is
rounding noise that follows the BLAS thread count, and the 9-column
`perfbench/reference/scaling_d2.csv` has no `exact_status`.  A new pin is
one more row.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = "tests/data/"
BENCH = "perfbench/reference/"
P2 = "--potential configs/unit4_d2.potential"
P3 = "--potential configs/unit6_d3.potential"
H2 = f"h2-audit --radii 5,9,13,20 --window-degree 1 --n-states 6 {P2} --seed 0"
EXACT = f"exact --radii 1,2 --cutoff-radius-sq 5 {P2} --exact-dim-limit 30000"
SCALING = "scaling --config configs/scaling_d2.yaml"
SKIP_RESIDUAL = ("residual",)

# id: (argv but --out, reference, skipped columns)
PINS = {
    "h2_audit": (f"{H2} --threads 1", BENCH + "h2_audit.csv", ()),
    "h2_audit-pool": (f"{H2} --threads 2", BENCH + "h2_audit.csv", ()),
    "scaling_d2": (
        f"{SCALING} --radii 5,17 --threads 1", BENCH + "scaling_d2.csv", ("exact_status",)
    ),
    "scaling_d2_full": (f"{SCALING} --threads 1", DATA + "scaling_d2_full.csv", ()),
    "exact_sectors": (f"{EXACT} --threads 1", BENCH + "exact_sectors.csv", SKIP_RESIDUAL),
    "exact_momentum_d2": (
        f"{EXACT} --momentum 1,-1 --threads 1", DATA + "exact_momentum_d2.csv", SKIP_RESIDUAL
    ),
    "exact_d3": (
        f"exact --d 3 --radii 1 --cutoff-radius-sq 3 --momentum 1,0,0 {P3}"
        " --exact-dim-limit 30000 --threads 1",
        DATA + "exact_d3.csv",
        SKIP_RESIDUAL,
    ),
    "scaling_d3": (
        f"scaling --d 3 --alpha -1 --radii 1,2,3,5 {P3} --window-radius-sq 1"
        " --window-degree 2 --threads 1",
        DATA + "scaling_d3.csv",
        (),
    ),
    "scaling_window4_d2": (
        f"scaling --alpha -1 --radii 1,2,5 {P2} --window-radius-sq 1 --window-degree 4"
        " --exact-dim-limit 1 --threads 1",
        DATA + "scaling_window4_d2.csv",
        (),
    ),
    "trial_d2": (f"trial --radii 1,2,4,5,8,9,13,20 {P2} --threads 1", DATA + "trial_d2.csv", ()),
    "trial_window4_d2": (
        f"trial --radii 20 --window-degree 4 {P2} --threads 1", DATA + "trial_window4_d2.csv", ()
    ),
    "h2_audit_deg2": (
        f"h2-audit --radii 1,2,4,5 --window-degree 2 --n-states 6 --seed 3 {P2} --threads 1",
        DATA + "h2_audit_deg2.csv",
        (),
    ),
    "h2_audit_deg2-pool": (
        f"h2-audit --radii 1,2,4,5 --window-degree 2 --n-states 6 --seed 3 {P2} --threads 2",
        DATA + "h2_audit_deg2.csv",
        (),
    ),
    "h2_audit_d3": (
        f"h2-audit --d 3 --radii 1,2,3 --window-degree 2 --n-states 6 --seed 4 {P3} --threads 1",
        DATA + "h2_audit_d3.csv",
        (),
    ),
    "magic_d2": ("magic --max-radius-sq 10 --threads 1", DATA + "magic_d2.csv", ()),
    "crescent_audit_d2": ("crescent-audit --threads 1", DATA + "crescent_audit_d2.csv", ()),
    "bounds_d2": (f"bounds --radii 1,2,4 {P2} --threads 1", DATA + "bounds_d2.csv", ()),
    "isometry_d2": ("isometry --radii 1,4,9,16 --threads 1", DATA + "isometry_d2.csv", ()),
    "intertwine_d2": ("intertwine --radii 1,4,9,16 --threads 1", DATA + "intertwine_d2.csv", ()),
    "isometry_d3": ("isometry --d 3 --radii 1,2,3,5 --threads 1", DATA + "isometry_d3.csv", ()),
    "intertwine_d3": (
        "intertwine --d 3 --radii 1,2,3,5 --threads 1", DATA + "intertwine_d3.csv", ()
    ),
    "magic_d3": ("magic --d 3 --max-radius-sq 30 --threads 1", DATA + "magic_d3.csv", ()),
    "crescent_audit_d3": (
        "crescent-audit --d 3 --radii 1,2,3,5 --kmax-sq 8 --threads 1",
        DATA + "crescent_audit_d3.csv",
        (),
    ),
}


def _cut(text: str, skip) -> list:
    """The lines of text with the columns named in skip cut out, as
    `cut -d,` cuts them."""
    lines = text.split("\n")
    keep = [i for i, name in enumerate(lines[0].split(",")) if name not in skip]
    return [
        ",".join(cells[i] for i in keep if i < len(cells))
        for cells in (line.split(",") for line in lines)
    ]


@pytest.mark.parametrize("pin", list(PINS))
def test_cli_csv_matches_its_reference(pin, tmp_path):
    argv, reference, skip = PINS[pin]
    argv = argv.split()
    subprocess.run(
        [sys.executable, "-m", "fermibose.cli", *argv, "--out", str(tmp_path)],
        cwd=ROOT,
        env=os.environ | {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"},
        check=True,
    )
    got = (tmp_path / f"{argv[0]}.csv").read_bytes().decode()
    want = (ROOT / reference).read_bytes().decode()
    assert _cut(got, skip) == _cut(want, skip)
