"""The repository's pytest settings report a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(i):
    assert i < 0
"""


def test_a_failing_hypothesis_test_fails_without_an_internal_error(tmp_path):
    # Hypothesis's failure report imports modules that warn on import; with
    # every warning an error, an unfiltered one aborts the whole run.
    (tmp_path / "test_throwaway.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_throwaway.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
