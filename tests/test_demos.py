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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demos write their outputs (demo 06: demo-fig2.csv) into the working directory
    src = os.path.dirname(os.path.dirname(pdra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
