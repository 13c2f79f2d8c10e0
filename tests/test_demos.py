"""Every narrative demo exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_wave_propagation.py",
                                  "02_correlated_channels.py",
                                  "03_autodiff_and_gradcheck.py",
                                  "04_train_and_transfer.py",
                                  "05_power_sweep.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    # demos 04 and 05 write their CSVs into the working directory
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
