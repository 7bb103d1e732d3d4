"""hpp-sim benchmark: end-to-end runs of the `hpp` CLI plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this file.
Each child is a fresh interpreter running `python -m hpp.cli` with the
checkout's `src/` first on PYTHONPATH, one at a time (closed loop, one
client), `--jobs 1` and BLAS/OpenMP threads pinned to 1.  Outputs go to a
temporary directory inside the checkout and are compared with the stored
reference (see RATIONALE.md).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from two children run under traced_cli.py, after untraced children
that give the overhead baseline.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"
TMP = BENCH_DIR / ".tmp"

# Driver seed N picks hpp seeds from a pool of SEED_POOL stored references:
# child i of a run uses b{(N + i) % SEED_POOL}.
SEED_POOL = 16
# setup_s samples: import-only spawns after each child, topped up to a minimum.
SETUP_PER_CHILD = 2
MIN_SETUP_SAMPLES = 8
# Every run, set-up included, ends well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0
TRACED_CHILDREN = 2
# Speed probe: loop iterations per counted batch, and the batches per second
# the probe ran at on the 2-core x86-64 box the bounds were set on.
PROBE_BATCH = 200
REF_PROBE_RATE = 17600.0
MIN_COVERAGE = 0.95
# Success-report floats match the reference to the ROADMAP pin tolerance.
FLOAT_TOL = 1e-12

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "gf.chi.calls": ("count", "lower"),
    "gf.trace.calls": ("count", "lower"),
    "gf.chi.total_s": ("s", "lower"),
    "fibers.enum_passes": ("count", "lower"),
    "fibers.tables_built": ("count", "lower"),
    "fibers.eta_table.self_s": ("s", "lower"),
    "fibers.summarize_good_sets.self_s": ("s", "lower"),
    "pgm.ideal_success.self_s": ("s", "lower"),
    "pgm.approx_success.self_s": ("s", "lower"),
    "pgm.sample_outcome.self_s": ("s", "lower"),
    "pgm.sample_outcome.total_s": ("s", "lower"),
    "pgm.draws": ("count", "lower"),
    "pgm.bad_branch_frac": ("ratio", "lower"),
    "pgm.solver.calls": ("count", "lower"),
    "pgm.solver.self_s": ("s", "lower"),
    "blackbox.queries": ("count", "lower"),
    "blackbox.query.total_s": ("s", "lower"),
    "blackbox.sample_instance.total_s": ("s", "lower"),
    "polyring.eval_multi.calls": ("count", "lower"),
    "polyring.eval_multi.total_s": ("s", "lower"),
    "polyring.substitute.total_s": ("s", "lower"),
    "polyring.lagrange_interpolate.total_s": ("s", "lower"),
    "reduction.solve_multivariate.self_s": ("s", "lower"),
    "reduction.verify_queries": ("count", "lower"),
    "reduction.solve_queries": ("count", "lower"),
    "reduction.verify_accept_frac": ("ratio", "higher"),
    "reduction.retries": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Workload:
    """One `hpp` invocation shape; m is None for the seedless `success` analysis."""

    name: str
    field: str
    n: int
    m: int | None = None
    trials: int = 0

    @property
    def d(self) -> int:
        p, _, e = self.field.partition("^")
        return int(p) ** int(e or 1)

    def hpp_seed(self, seed: int, child: int) -> str | None:
        if self.m is None:
            return None
        return f"b{(seed + child) % SEED_POOL}"

    def outputs(self) -> tuple[str, ...]:
        return ("success.json",) if self.m is None else ("trials.csv", "summary.json")

    def argv(self, hpp_seed: str | None, outdir: Path) -> list[str]:
        common = ["--field", self.field, "-n", str(self.n), "--jobs", "1"]
        if self.m is None:
            return ["success", *common, "--out", str(outdir / "success.json")]
        return [
            "e2e",
            *common,
            "-m",
            str(self.m),
            "--trials",
            str(self.trials),
            "--seed",
            hpp_seed,
            "--out",
            str(outdir / "trials.csv"),
            "--summary-out",
            str(outdir / "summary.json"),
        ]

    def reference_dir(self, hpp_seed: str | None) -> Path:
        return REFERENCE / self.name / (hpp_seed or "seedless")


# Why each workload exists, and which layer metric should move which
# end-to-end metric on it, is written down in RATIONALE.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analysis-prime", "37", 2),
        Workload("recovery-prime", "13", 2, m=3, trials=5),
        Workload("recovery-reuse", "7", 2, m=4, trials=300),
    )
}


# -- children ------------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    ref_s: float  # wall_s at the reference box speed (see SpeedProbe)
    rss_mb: float
    returncode: int
    stderr: str


class SpeedProbe:
    """How fast the box runs Python right now, measured while children run.

    The box is shared and its speed drifts by up to about 20% over tens of
    seconds to minutes, for every process on it at once.  A thread runs a
    fixed pure-Python loop on the core the child leaves free and counts
    batches.  A child's duration counted in probe batches, divided by
    REF_PROBE_RATE, is its wall time at the reference speed: it follows
    the program, not the box.
    """

    def __init__(self):
        self.batches = 0
        self._running = False
        self._thread = threading.Thread(target=self._spin, daemon=True)
        self._switch_interval = sys.getswitchinterval()

    def _spin(self):
        table = {}
        n = 0
        while self._running:
            for i in range(PROBE_BATCH):
                table[(i & 63, n & 7)] = (i * 31 + n) % 1009
            n += 1
            self.batches = n

    def __enter__(self):
        # The main thread waits in wait4 without the GIL; a short switch
        # interval lets it take the GIL back within 0.5 ms of a child's exit.
        sys.setswitchinterval(5e-4)
        self._running = True
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._running = False
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)

    def mark(self) -> tuple[float, int]:
        return perf_counter(), self.batches

    @staticmethod
    def ref_s(start: tuple[float, int], end: tuple[float, int]) -> float:
        return (end[1] - start[1]) / REF_PROBE_RATE


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("HPP_SEED", None)
    return env


def spawn(
    argv: list[str], env: dict[str, str], workdir: Path, timeout: float,
    probe: SpeedProbe | None = None,
) -> Child:
    """Run one child to completion; wall time is spawn to reaped exit."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "w+b") as err:
        start = probe.mark() if probe else None
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            ref = SpeedProbe.ref_s(start, probe.mark()) if probe else wall
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
            if proc.returncode is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        err.seek(0)
        tail = err.read().decode("utf-8", "replace").strip().splitlines()[-3:]
    return Child(wall, ref, usage.ru_maxrss / 1024.0, proc.returncode, " | ".join(tail))


SETUP_PROBE = (
    "import time, hpp.cli, numpy; "
    "print(repr(time.perf_counter()), numpy.__version__)"
)


def measure_setup(
    env: dict[str, str], spawns: int, timeout: float, probe: SpeedProbe | None = None
) -> tuple[list[float], str]:
    """Spawn-to-ready times of `import hpp.cli`: what `python -m hpp.cli` does
    before it enters cli.main.  perf_counter is CLOCK_MONOTONIC on Linux, so
    the child's reading is comparable with the parent's.  With a probe, each
    time is rescaled by the probe's speed over the spawn's life."""
    samples = []
    numpy_version = "unknown"
    for _ in range(spawns):
        start = probe.mark() if probe else None
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=max(timeout, 1.0), check=True,
        )
        end = probe.mark() if probe else None
        ready, numpy_version = out.stdout.split()
        setup = float(ready) - t0
        if probe:
            setup *= SpeedProbe.ref_s(start, end) / (end[0] - start[0])
        samples.append(setup)
    return samples, numpy_version


# -- output checks -------------------------------------------------------------


def _same_json(ref, got, where: str = "$") -> str | None:
    """None when equal: exact on non-floats, FLOAT_TOL (relative above 1) on floats."""
    if isinstance(ref, float) or isinstance(got, float):
        if not (isinstance(ref, float) and isinstance(got, float)):
            return f"{where}: {got!r} != {ref!r}"
        if abs(ref - got) > FLOAT_TOL * max(1.0, abs(ref)):
            return f"{where}: {got!r} differs from {ref!r} by more than {FLOAT_TOL}"
        return None
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{where}: keys {sorted(got)} != {sorted(ref)}"
        for key in ref:
            diff = _same_json(ref[key], got[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if type(ref) is not type(got) or ref != got:
        return f"{where}: {got!r} != {ref!r}"
    return None


NOT_COMPARED = "outputs not compared"


def compare_outputs(w: Workload, hpp_seed: str | None, outdir: Path) -> str | None:
    """None when every output matches its reference; otherwise the reason.
    A missing reference is a reason: such a run is never counted as passed."""
    ref_dir = w.reference_dir(hpp_seed)
    for name in w.outputs():
        ref_path, got_path = ref_dir / name, outdir / name
        if not ref_path.is_file():
            return f"{NOT_COMPARED}: no reference {ref_path.relative_to(ROOT)}"
        if not got_path.is_file():
            return f"{name} was not written"
        if name == "success.json":
            diff = _same_json(
                json.loads(ref_path.read_text()), json.loads(got_path.read_text())
            )
            if diff:
                return f"{name} {diff}"
        elif ref_path.read_bytes() != got_path.read_bytes():
            return f"{name} differs from the reference byte for byte"
    return None


def read_trials(outdir: Path) -> list[dict[str, int]]:
    with open(outdir / "trials.csv", newline="", encoding="utf-8") as fh:
        return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# -- one run -------------------------------------------------------------------


@dataclass
class Sample:
    hpp_seed: str | None
    child: Child
    problem: str | None  # None: exit 0 and outputs match the reference
    compared: bool = False
    summary: dict | None = None
    trials: list | None = None
    stats: dict | None = None


def run_child(w: Workload, hpp_seed, env, deadline, probe, traced: bool = False) -> Sample:
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        outdir = Path(tmp)
        stats_path = outdir / "stats.json"
        if traced:
            prefix = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(stats_path)]
        else:
            prefix = [sys.executable, "-m", "hpp.cli"]
        child = spawn(
            prefix + w.argv(hpp_seed, outdir), env, outdir, deadline - perf_counter(), probe
        )
        sample = Sample(hpp_seed, child, None)
        if child.returncode != 0:
            sample.problem = f"exit code {child.returncode}: {child.stderr}"
            return sample
        sample.problem = compare_outputs(w, hpp_seed, outdir)
        sample.compared = not (sample.problem or "").startswith(NOT_COMPARED)
        if w.m is not None and (outdir / "summary.json").is_file():
            sample.summary = json.loads((outdir / "summary.json").read_text())
            sample.trials = read_trials(outdir)
        if traced:
            sample.stats = json.loads(stats_path.read_text())
    return sample


def run_children(w, seed, env, seconds, deadline, probe, setup: list[float]) -> list[Sample]:
    """Back-to-back untraced children for about `seconds`, never past the
    deadline.  Setup spawns between children spread the setup_s samples
    over the run instead of bunching them at its start."""
    samples = []
    start = perf_counter()
    while True:
        samples.append(run_child(w, w.hpp_seed(seed, len(samples)), env, deadline, probe))
        setup += measure_setup(env, SETUP_PER_CHILD, deadline - perf_counter(), probe)[0]
        now = perf_counter()
        walls = [s.child.wall_s for s in samples]
        # Stop when the next child would end more than half a child late.
        if now - start + _median(walls) / 2 >= seconds or now + 1.5 * max(walls) > deadline:
            return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(w: Workload, traced: list[Sample], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced child (they must
    repeat exactly), times as the median over the traced children."""

    def span(name, field):
        if field == "calls":
            return traced[0].stats["spans"].get(name, [0])[0]
        index = {"total_s": 1, "self_s": 2}[field]
        return _median([s.stats["spans"].get(name, [0, 0.0, 0.0])[index] for s in traced])

    def counter(name):
        return traced[0].stats["counters"][name]

    def ratio(num, den):
        return num / den if den else 0.0

    draws = span("pgm.sample_outcome", "calls")
    main_total = span("cli.main", "total_s")
    main_self = span("cli.main", "self_s")
    values = {
        "gf.chi.calls": span("gf.chi", "calls"),
        "gf.trace.calls": span("gf.trace", "calls"),
        "gf.chi.total_s": span("gf.chi", "total_s"),
        "fibers.enum_passes": span("fibers.iter_eta_tables", "calls"),
        "fibers.tables_built": span("fibers.eta_table", "calls"),
        "fibers.eta_table.self_s": span("fibers.eta_table", "self_s"),
        "fibers.summarize_good_sets.self_s": span("fibers.summarize_good_sets", "self_s"),
        "pgm.ideal_success.self_s": span("pgm.ideal_success", "self_s"),
        "pgm.approx_success.self_s": span("pgm.approx_success", "self_s"),
        "pgm.sample_outcome.self_s": span("pgm.sample_outcome", "self_s"),
        "pgm.sample_outcome.total_s": span("pgm.sample_outcome", "total_s"),
        "pgm.draws": draws,
        "pgm.bad_branch_frac": ratio(counter("bad_draws"), draws),
        "pgm.solver.calls": span("pgm.solver", "calls"),
        "pgm.solver.self_s": span("pgm.solver", "self_s"),
        "blackbox.queries": span("blackbox.query", "calls"),
        "blackbox.query.total_s": span("blackbox.query", "total_s"),
        "blackbox.sample_instance.total_s": span("blackbox.sample_instance", "total_s"),
        "polyring.eval_multi.calls": span("polyring.eval_multi", "calls"),
        "polyring.eval_multi.total_s": span("polyring.eval_multi", "total_s"),
        "polyring.substitute.total_s": span("polyring.substitute", "total_s"),
        "polyring.lagrange_interpolate.total_s": span("polyring.lagrange_interpolate", "total_s"),
        "reduction.solve_multivariate.self_s": span("reduction.solve_multivariate", "self_s"),
        "reduction.verify_queries": counter("verify_queries"),
        "reduction.solve_queries": counter("solve_queries"),
        "reduction.verify_accept_frac": ratio(
            counter("verify_accepts"), counter("verifications")
        ),
        # Every univariate solve opens one view; each further solver call
        # on that view is a retry.
        "reduction.retries": span("pgm.solver", "calls")
        - span("reduction.univariate_oracle_view", "calls"),
        "cli.self_s": main_self,
        "trace.coverage": ratio(main_total - main_self, main_total),
        "trace.overhead_s": _median([s.child.ref_s for s in traced]) - untraced_wall,
    }
    return values


def count_signature(stats: dict) -> dict:
    """Everything a traced run counts; it must repeat exactly for one seed."""
    return {
        "spans": {name: rec[0] for name, rec in stats["spans"].items()},
        "counters": stats["counters"],
    }


def completeness_problems(w: Workload, traced: list[Sample], values: dict) -> list[str]:
    problems = []
    for s in traced:
        if s.stats["unpatched"]:
            problems.append(f"unpatched bindings: {s.stats['unpatched']}")
    signatures = [count_signature(s.stats) for s in traced]
    if any(sig != signatures[0] for sig in signatures[1:]):
        problems.append("counts differ between traced runs of the same seed")
    rows = traced[0].trials or []
    expected = {
        "blackbox.queries": sum(r["queries"] for r in rows),
        "pgm.solver.calls": sum(r["solves"] for r in rows),
        "reduction.retries": sum(r["retries"] for r in rows),
        "fibers.tables_built": values["fibers.enum_passes"] * w.d**w.n,
    }
    for name, want in expected.items():
        if values[name] != want:
            problems.append(f"{name} = {values[name]} but the run implies {want}")
    if values["trace.coverage"] < MIN_COVERAGE:
        problems.append(
            f"trace.coverage {values['trace.coverage']:.3f} is below {MIN_COVERAGE}"
        )
    return problems


def environment_record(numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (git not available)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "inherited_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    env = child_env()
    # One untimed import compiles bytecode, which users pay once per install.
    _, numpy_version = measure_setup(env, 1, deadline - perf_counter())
    print("env", json.dumps(environment_record(numpy_version), sort_keys=True))

    setup: list[float] = []
    traced = []
    with SpeedProbe() as probe:
        window = seconds / 2 if trace else seconds
        untraced = run_children(w, seed, env, window, deadline, probe, setup)
        missing = MIN_SETUP_SAMPLES - len(setup)
        if missing > 0:
            setup += measure_setup(env, missing, deadline - perf_counter(), probe)[0]
        if trace:
            # Traced children repeat the first untraced child's inputs.
            traced = [
                run_child(w, w.hpp_seed(seed, 0), env, deadline, probe, traced=True)
                for _ in range(TRACED_CHILDREN)
            ]
    samples = untraced + traced
    failed = [s for s in samples if s.problem]
    wall = _median([s.child.ref_s for s in untraced])
    raw_wall = _median([s.child.wall_s for s in untraced])

    print(
        f"workload {w.name}: {len(untraced)} untraced + {len(traced)} traced children, "
        f"hpp seeds {sorted({s.hpp_seed for s in samples}, key=str)}"
    )
    for s in failed:
        print(f"  FAILED child (hpp seed {s.hpp_seed}): {s.problem}")
    compared = sum(s.compared for s in samples)
    print(f"  outputs compared with the reference: {compared} of {len(samples)}")

    if not trace:
        e2e = {
            "wall_s": wall,
            "setup_s": _median(setup),
            "peak_rss_mb": _median([s.child.rss_mb for s in untraced]),
        }
        rates = [s.summary["success_rate"] for s in untraced if s.summary]
        queries = [s.summary["median_queries"] for s in untraced if s.summary]
        shown = {
            **e2e,
            "failed_frac": len(failed) / len(samples),
            "recovery_rate": _median(rates) if rates else None,
            "queries_per_recovery": _median(queries) if queries else None,
        }
        units = {"failed_frac": "ratio", "recovery_rate": "ratio",
                 "queries_per_recovery": "queries"}
        for name, value in shown.items():
            unit = END_TO_END[name][0] if name in END_TO_END else units[name]
            text = "n/a (no recovery on this workload)" if value is None else f"{value:.6g} {unit}"
            print(f"  {name} = {text}")
        print(
            f"  raw wall time (not rescaled to the reference speed) = {raw_wall:.6g} s; "
            f"box speed / reference speed = {raw_wall and wall / raw_wall:.4g}\n"
            f"  wall_s samples: {[round(s.child.ref_s, 4) for s in untraced]}; "
            f"setup_s samples: {[round(x, 4) for x in setup]}"
        )
        metrics = {name: metric(e2e[name], unit) for name, (unit, _) in END_TO_END.items()}
        problems = []
    else:
        metrics = {}
        if all(s.stats for s in traced):
            values = layer_metrics(w, traced, wall)
            problems = completeness_problems(w, traced, values)
            metrics = {name: metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
            for name, m in metrics.items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        else:
            problems = ["a traced child wrote no stats"]
        for p in problems:
            print(f"  TRACE CHECK FAILED: {p}")

    if problems:
        # A traced run that fails its checks fails its traced children.
        failed += [s for s in traced if not s.problem]
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hpp" / "cli.py").is_file():
        print(f"error: {SRC / 'hpp'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
