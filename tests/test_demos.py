"""Smoke test: the spiral-class, kernel, growth and Green-function demos
run to completion as standalone scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_spiral_classes_demo_runs():
    out = run_demo("01_domains_and_spiral_classes.py")
    assert "winding 5 (grid 48 x 240" in out
    assert out.rstrip().endswith("connected_on_spirals, k = 5, y-winding = 1")


def test_fundamental_solutions_demo_runs():
    assert "max disagreement" in run_demo("04_fundamental_solutions.py")


@pytest.mark.parametrize("demo,expect", [
    ("03_growth_estimators.py", "max pairwise disagreement"),
    ("07_channel_domains_beta.py", "growth-against-measure sequence"),
], ids=["03", "07"])
def test_growth_demo_runs(demo, expect):
    assert expect in run_demo(demo)


def test_green_demo_matches_shift_series():
    out = run_demo("05_green_dirichlet_riesz_sweep.py")
    line = next(s for s in out.splitlines() if "vs sector shift series" in s)
    assert float(line.rsplit(" ", 1)[1]) < 2e-3
