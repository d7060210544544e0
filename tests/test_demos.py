"""Smoke test of the demo scripts: each runs to the end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# 04 and 05 run the probit pipeline at full scale: about 7 s and 15 s on 2 CPUs
DEMOS = [
    "01_weight_identities.py",
    "02_error_vs_blocks.py",
    "03_error_vs_snr.py",
    "04_probit_pipeline.py",
    "05_gradient_budgets.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
