"""Smoke runs of the example script at toy sizes and of README's library
example and CLI lines: each exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args, cwd=None):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        cwd=cwd,
        timeout=60,
    )
    assert proc.returncode == 0, (args, proc.stderr)
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


def test_readme_cli_examples(tmp_path):
    """Every `hpp` line of the CLI block, and the --reveal line of the Scripts
    section, runs as `python -m hpp.cli` in an empty directory."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    lines = [line for line in block.group(1).splitlines() if line.startswith("hpp ")]
    reveal = re.findall(r"`(hpp [^`]*--reveal[^`]*)`", readme)
    assert lines and len(reveal) == 1
    for line in lines + reveal:
        _run("-m", "hpp.cli", *shlex.split(line, comments=True)[1:], cwd=tmp_path)
