"""The demos run as scripts, with every warning an error, and print what they claim."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# First 16 hex digits of the sha256 of each demo's full stdout. The same
# under the default BLAS kernels and OPENBLAS_CORETYPE=Prescott.
STDOUT_SHA256 = {
    "disparity_propagation.py": "dec332e8114107b8",
    "schedule_comparison.py": "3def6ae44be8d06b",
    "transform_walkthrough.py": "f2fda3c7bee9fcf1",
}


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_pinned(name):
    out = run_demo(name)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == STDOUT_SHA256[name], out


def test_transform_walkthrough_counts():
    out = run_demo("transform_walkthrough.py").splitlines()
    assert "naive MACs:            225" in out
    assert "zero-operand fraction: 0.782  (176 wasted MACs)" in out
    assert "transformed multiplies: 49  (exactly the useful MACs)" in out
