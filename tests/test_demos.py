"""Smoke-run the walkthrough demos: each must finish without raising.

Demo 05 is left out: it only calls `run_taguchi`, which the acceptance gate
and `TestTaguchi` already run, and it takes longer than the other four
together.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_topology_and_paths.py",
        "02_placing_one_chain.py",
        "03_equilibrium_dynamics.py",
        "04_online_simulation.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
