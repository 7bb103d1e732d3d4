"""Smoke runs of the example scripts at toy sizes: each exits 0 and prints its
header or summary keys."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_success_scan():
    lines = _run("success_scan.py", "--fields", "3,2^2", "-n", "2")
    assert lines[0].split() == [
        "field", "analysis", "lemma2", "approx", "ideal", "x_good", "w_good_min"
    ]
    assert [line.split()[:2] for line in lines[1:]] == [["3", "first"], ["2^2", "second"]]


def test_e2e_demo():
    lines = _run("e2e_demo.py", "--field", "5", "-n", "2", "-m", "2", "--seed", "smoke")
    assert lines[0] == "field GF(5), m=2, n=2, analysis=first"
    keys = [line.split(":")[0] for line in lines[1:]]
    assert keys == ["hidden", "recovered", "match", "univariate solves", "oracle queries"]
    assert "match:     True" in lines


def test_classical_scaling():
    lines = _run("classical_scaling.py", "--sizes", "5,7,11", "--trials", "30")
    assert lines[0].split() == ["d", "median", "mean", "success"]
    assert [line.split()[0] for line in lines[1:4]] == ["5", "7", "11"]
    assert lines[-1].startswith("fitted exponent: ")
