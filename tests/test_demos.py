"""Demos 01-05 run to completion; 06 takes minutes and is run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prb_oracle

DEMOS = Path(__file__).resolve().parent.parent / "demos"
PACKAGE_ROOT = Path(prb_oracle.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_synthetic_traces.py",
    "02_autodiff_engine.py",
    "03_likelihoods.py",
    "04_train_and_forecast.py",
    "05_power_and_decisions.py",
])
def test_demo_runs(tmp_path, monkeypatch, name):
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(PACKAGE_ROOT), inherited])))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
