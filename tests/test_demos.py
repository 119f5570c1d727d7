"""The demos run as scripts, with every warning an error, and print what they claim."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_transform_walkthrough_counts():
    out = run_demo("transform_walkthrough.py").splitlines()
    assert "naive MACs:            225" in out
    assert "zero-operand fraction: 0.782  (176 wasted MACs)" in out
    assert "transformed multiplies: 49  (exactly the useful MACs)" in out
