"""The repository's settings in pyproject.toml hold: pytest reports a
failing test as a failure, and every source file parses at the declared
Python floor."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_sources_parse_at_the_declared_python_floor():
    # ast.parse with feature_version rejects syntax newer than the floor
    # (a match statement below 3.10, say), on any newer interpreter.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    with pytest.raises(SyntaxError):
        ast.parse("match x:\n    case _:\n        pass\n", feature_version=(3, 9))
    sources = sorted((ROOT / "src" / "hpp").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
