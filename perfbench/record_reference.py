"""Record the reference outputs that run.py compares every child against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Writes perfbench/reference/<workload>/<hpp seed>/ for every seed in the
pool (one `seedless` directory for the `success` workload).  Run it only on
a commit whose outputs are known good: the stored files define correct.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from run import SEED_POOL, TMP, WORKLOADS, Workload, child_env, spawn


def record(w: Workload) -> None:
    env = child_env()
    seeds = sorted({w.hpp_seed(0, i) for i in range(SEED_POOL)}, key=str)
    for hpp_seed in seeds:
        TMP.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP) as tmp:
            outdir = Path(tmp)
            argv = [sys.executable, "-m", "hpp.cli", *w.argv(hpp_seed, outdir)]
            child = spawn(argv, env, outdir, timeout=600)
            if child.returncode != 0:
                raise SystemExit(f"{w.name} {hpp_seed}: exit {child.returncode}: {child.stderr}")
            dest = w.reference_dir(hpp_seed)
            dest.mkdir(parents=True, exist_ok=True)
            for out in w.outputs():
                shutil.copyfile(outdir / out, dest / out)
        print(f"{w.name} {hpp_seed or 'seedless'}: {child.wall_s:.2f} s", flush=True)


if __name__ == "__main__":
    t0 = perf_counter()
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(WORKLOADS[name])
    print(f"done in {perf_counter() - t0:.1f} s")
