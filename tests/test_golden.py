"""Byte-for-byte guard on deterministic CLI outputs.

Each case runs `hpp.cli.main` in-process and compares every file it writes
with the copy stored under tests/golden/ (gzip-compressed to keep the
repository small).  Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import sys
from pathlib import Path

import pytest

from hpp.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, output files); "{name}" in argv is replaced by the path of
# that output file.
CASES = {
    "eta_solutions_gf5": (
        ["eta", "--field", "5", "-n", "2", "--solutions", "--out", "{eta.csv}"],
        ["eta.csv"],
    ),
    "eta_solutions_gf4": (
        ["eta", "--field", "2^2", "-n", "2", "--solutions", "--out", "{eta.csv}"],
        ["eta.csv"],
    ),
    "eta_gf9": (["eta", "--field", "3^2", "-n", "2", "--out", "{eta.csv}"], ["eta.csv"]),
    "eta_gf5_n3": (["eta", "--field", "5", "-n", "3", "--out", "{eta.csv}"], ["eta.csv"]),
    "moments_gf7": (
        ["eta", "--field", "7", "-n", "2", "--moments", "--out", "{m.json}"],
        ["m.json"],
    ),
    "moments_gf2_n24": (
        ["eta", "--field", "2", "-n", "24", "--moments", "--k", "2", "--out", "{m.json}"],
        ["m.json"],
    ),
    "success_dist_gf5": (
        ["success", "--field", "5", "-n", "2", "--out", "{s.json}",
         "--dump-dist", "{dist.csv}"],
        ["s.json", "dist.csv"],
    ),
    "success_dist_gf8": (
        ["success", "--field", "2^3", "-n", "2", "--out", "{s.json}",
         "--dump-dist", "{dist.csv}"],
        ["s.json", "dist.csv"],
    ),
    # F_p-lines of deltas have 12 points at GF(13).
    "success_dist_gf13": (
        ["success", "--field", "13", "-n", "2", "--out", "{s.json}",
         "--dump-dist", "{dist.csv}"],
        ["s.json", "dist.csv"],
    ),
    # The success pass alone, pinned byte for byte on four field shapes.
    "success_gf37": (["success", "--field", "37", "-n", "2", "--out", "{s.json}"], ["s.json"]),
    "success_gf13_n3": (["success", "--field", "13", "-n", "3", "--out", "{s.json}"], ["s.json"]),
    "success_gf27": (["success", "--field", "3^3", "-n", "2", "--out", "{s.json}"], ["s.json"]),
    "success_gf32": (["success", "--field", "2^5", "-n", "2", "--out", "{s.json}"], ["s.json"]),
    "success_mc_gf5": (
        ["success", "--field", "5", "-n", "2", "--mc", "200", "--seed", "g",
         "--out", "{s.json}"],
        ["s.json"],
    ),
    "e2e_gf7": (
        ["e2e", "--field", "7", "-n", "2", "-m", "2", "--trials", "4", "--seed", "g",
         "--out", "{trials.csv}", "--summary-out", "{summary.json}"],
        ["trials.csv", "summary.json"],
    ),
    "e2e_gf4": (
        ["e2e", "--field", "2^2", "-n", "2", "-m", "2", "--trials", "4", "--seed", "g",
         "--out", "{trials.csv}", "--summary-out", "{summary.json}"],
        ["trials.csv", "summary.json"],
    ),
    "e2e_gf8_m3": (
        ["e2e", "--field", "2^3", "-n", "2", "-m", "3", "--trials", "3", "--seed", "g",
         "--out", "{trials.csv}", "--summary-out", "{summary.json}"],
        ["trials.csv", "summary.json"],
    ),
    "e2e_gf9_m3": (
        ["e2e", "--field", "3^2", "-n", "2", "-m", "3", "--trials", "3", "--seed", "g",
         "--out", "{trials.csv}", "--summary-out", "{summary.json}"],
        ["trials.csv", "summary.json"],
    ),
    # 16 direction orbits serve the 900 good directions of GF(31).
    "e2e_gf31_m3": (
        ["e2e", "--field", "31", "-n", "2", "-m", "3", "--trials", "5", "--seed", "d31",
         "--out", "{trials.csv}", "--summary-out", "{summary.json}"],
        ["trials.csv", "summary.json"],
    ),
    # n = 3: sigma permutes three coordinates.
    "e2e_gf7_n3": (
        ["e2e", "--field", "7", "-n", "3", "-m", "2", "--trials", "3", "--seed", "g",
         "--out", "{trials.csv}", "--summary-out", "{summary.json}"],
        ["trials.csv", "summary.json"],
    ),
    "success_mc_gf9": (
        ["success", "--field", "3^2", "-n", "2", "--mc", "500", "--seed", "g",
         "--out", "{s.json}"],
        ["s.json"],
    ),
    "plan": (
        ["plan", "--field", "7", "-n", "2", "-m", "3", "--out", "{plan.json}"],
        ["plan.json"],
    ),
}


def _run(name, workdir: Path) -> dict[str, bytes]:
    argv, outputs = CASES[name]
    paths = {f: workdir / f for f in outputs}
    argv = [paths[a[1:-1]].as_posix() if a[1:-1] in paths else a for a in argv]
    assert main(argv) == 0
    return {f: p.read_bytes() for f, p in paths.items()}


def _golden(name: str, fname: str) -> bytes:
    return gzip.decompress((GOLDEN / f"{name}.{fname}.gz").read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for fname, data in _run(name, tmp_path).items():
        expected = _golden(name, fname)
        assert data == expected, f"{name}: {fname} differs from the golden copy"


def test_monte_carlo_and_dump_dist_in_one_run_match_their_goldens(tmp_path):
    # The one path where the dump and the Monte Carlo draws read the same
    # law state: each output equals the golden of the run that writes it alone.
    s_json, dist = tmp_path / "s.json", tmp_path / "dist.csv"
    assert main(["success", "--field", "5", "-n", "2", "--mc", "200", "--seed", "g",
                 "--out", str(s_json), "--dump-dist", str(dist)]) == 0
    assert s_json.read_bytes() == _golden("success_mc_gf5", "s.json")
    assert dist.read_bytes() == _golden("success_dist_gf5", "dist.csv")


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in _run(name, Path(tmp)).items():
                (GOLDEN / f"{name}.{fname}.gz").write_bytes(gzip.compress(data, mtime=0))
    sys.exit(0)
