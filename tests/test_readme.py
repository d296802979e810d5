"""The README's library example runs against the current API."""

from __future__ import annotations

import pathlib
import re

import pytest

from fermibose import GasConfig, crescent, fock

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})
    size, bound, eps = map(float, capsys.readouterr().out.split())
    config = GasConfig(d=2, fermi_radius_sq=5, alpha=-1.0)
    assert size == len(crescent((1, 0), config))
    lower, upper = fock.trivial_bounds(config, fock.unit_potential(2))
    assert lower <= bound <= upper
    unit = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert eps == pytest.approx(
        2.0 / min(len(crescent(k, config)) for k in unit), rel=1e-9
    )
