"""Smoke runs of the example script at toy sizes and of README's library
example: each exits 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_success_scan():
    lines = _run(str(ROOT / "scripts" / "success_scan.py"), "--fields", "3,2^2", "-n", "2")
    assert lines[0].split() == [
        "field", "analysis", "lemma2", "approx", "ideal", "x_good", "w_good_min"
    ]
    assert [line.split()[:2] for line in lines[1:]] == [["3", "first"], ["2^2", "second"]]


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    _run("-c", blocks[0])
