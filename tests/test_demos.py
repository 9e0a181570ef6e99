"""Smoke runs of the demos, so a changed API cannot break one unseen."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_rotation_representation.py",
                                  "02_covariance_pushforward.py",
                                  "03_oracle_guided_recovery.py",
                                  "04_train_and_guide.py",
                                  "05_cli_pipeline.sh"])
def test_demo_runs(demo):
    # the shell demo calls python3, which must be this interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]]))
    runner = "bash" if demo.endswith(".sh") else sys.executable
    proc = subprocess.run([runner, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
