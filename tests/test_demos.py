"""Each demo runs to completion in a fresh interpreter, so a demo that calls a
removed or renamed API fails here rather than only when someone runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_every_demo_is_collected():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    # pyproject's filterwarnings does not reach a subprocess: a numeric warning fails the demo here too
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr
