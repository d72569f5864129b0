"""Every demo script runs to the end in a fresh interpreter, and the
self-checks that ``bernstein_center.py`` prints all hold."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, path], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if os.path.basename(path) == "bernstein_center.py":
        checks = [line for line in proc.stdout.splitlines()
                  if line.rstrip().endswith(("True", "False"))]
        assert len(checks) >= 6
        assert not any("False" in line for line in checks), proc.stdout
