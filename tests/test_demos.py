"""Every demo script runs to completion against the pdra under src and prints
the text checked in as tests/demo_output/<stem>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdra

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def run_demo(demo: Path, cwd: Path) -> str:
    """The stdout of demo run in cwd, where it writes its outputs (demo 05:
    demo-topology.csv, demo 06: demo-fig2.csv)."""
    src = os.path.dirname(os.path.dirname(pdra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    assert run_demo(demo, tmp_path) == (EXPECTED / f"{demo.stem}.txt").read_text()


def test_topology_csv(tmp_path):
    """Demo 05 writes the checked-in bytes of the cell grid and one UE drop."""
    demo, = (d for d in DEMOS if d.stem.startswith("05_"))
    run_demo(demo, tmp_path)
    out = tmp_path / "demo-topology.csv"
    assert out.read_bytes() == (EXPECTED / "05_topology.csv").read_bytes()
