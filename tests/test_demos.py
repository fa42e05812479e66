"""Every demo script runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SLOW = {"04_training_run.py"}  # about 70 s; each other demo takes under 0.5 s


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in sorted((REPO / "demos").glob("*.py"))])
def test_demo_runs(demo, tmp_path):
    # the demos write into a tempfile.TemporaryDirectory(); TMPDIR keeps that
    # inside tmp_path, which must be empty again once the demo exits
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run([sys.executable, str(demo)], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.iterdir())
