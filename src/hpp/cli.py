"""Command-line front end.

Subcommands:
  eta       fiber-size tables as CSV, or exact fiber-size moments as JSON
  success   measurement success analysis (exact values, bounds, optional MC)
  e2e       end-to-end recovery trials: per-trial CSV plus a summary
  baseline  classical collision baseline and its query-scaling fit
  plan      static reduction schedule as JSON

Exit codes: 0 success, 1 recovery failure (for example a query budget
exhausted), 2 usage error (including an output path that cannot be
written), 3 enumeration guard tripped, 4 internal invariant violated or
any other unexpected error.
Outputs are deterministic byte-for-byte for fixed arguments and seed (JSON
keys sorted, newline-terminated lines).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import random
import stat
import sys

from .errors import GuardExceededError, InvariantViolationError, RecoveryError
from .fibers import (
    GoodSets,
    Orbits,
    eta_moments,
    iter_eta_tables,
    pick_analysis,
    write_eta_csv,
)
from .gf import field_descriptor, parse_field
from .pgm import (
    Sampler,
    make_quantum_solver,
    outcome_distribution,
    run_many,
    success_report,
)

# The recovery layers (blackbox, reduction) and the classical baseline are
# imported by the commands that run them, so `hpp success` and `hpp eta`
# load only the analysis layers.


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    seed = args.seed if args.seed is not None else os.environ.get("HPP_SEED")
    if seed is None:
        parser.error("a seed is required: pass --seed or set HPP_SEED")
    return seed


@contextlib.contextmanager
def _outputs(paths: dict[str, str | None]):
    """Every output a command writes, opened before its first table or
    trial: one handle per option of paths (option -> path), in order, stdout
    for None or "-".  Two options that open one file, by (st_dev, st_ino),
    or both "-", are refused: one write would overwrite the other; None and
    os.devnull clash with nothing.  A regular file is written as a new file,
    beside the path's target if it exists, that becomes the target when the
    command returns and is deleted on any exception, so a failed run leaves
    the outputs as they were; a device or pipe is written in place."""
    seen: dict = {}
    made: list[tuple[str, str]] = []  # (file this command created, the path it becomes)
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for option, path in paths.items():
                target = key = path  # "-" is its own key
                if path is None or path == os.devnull:
                    key = None
                elif path != "-":
                    try:
                        st = os.stat(path)
                    except FileNotFoundError:
                        st = None
                    if st is None or stat.S_ISREG(st.st_mode):
                        # A symlink, dangling or not, is written through to its target.
                        real = os.path.realpath(path) if os.path.islink(path) else path
                        new = real if st is None else f"{real}.{os.urandom(4).hex()}.tmp"
                        mode = 0o666 if st is None else stat.S_IMODE(st.st_mode)
                        target = os.open(new, os.O_CREAT | os.O_EXCL | os.O_WRONLY, mode)
                        made.append((new, real))
                        st = st or os.fstat(target)
                    key = st.st_dev, st.st_ino
                handles.append(sys.stdout if target in (None, "-") else stack.enter_context(
                    open(target, "w", newline="\n", encoding="utf-8")))
                if key is not None and seen.setdefault(key, option) != option:
                    raise ValueError(f"{seen[key]} and {option} must name different files")
            yield handles
        for new, real in made:
            if new != real:
                os.replace(new, real)
    except BaseException:
        for new, _ in made:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(new)
        raise


def _write_json(doc, fh) -> None:
    fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_eta(args, parser) -> int:
    if args.k is not None and not args.moments:
        raise ValueError("--k applies only with --moments")
    if args.solutions and args.moments:
        raise ValueError("--solutions applies only to the table export, not --moments")
    ctx = parse_field(args.field)
    if args.out is None and not args.moments:
        parser.error("eta table export needs --out FILE, or --out - for stdout")
    with _outputs({"--out": args.out}) as (fh,):
        if not args.moments:
            write_eta_csv(iter_eta_tables(Orbits(ctx, args.n)), fh, args.solutions)
            return 0
        first, second = eta_moments(ctx, args.n, k=args.k)
        _write_json({
            "field": field_descriptor(ctx),
            "n": args.n,
            "k": args.k if args.k is not None else args.n,
            "first_moment": str(first),
            "second_moment": str(second),
        }, fh)
    return 0


def _cmd_success(args, parser) -> int:
    ctx = parse_field(args.field)
    analysis = pick_analysis(ctx, args.n) if args.analysis == "auto" else args.analysis
    if args.mc < 0:
        raise ValueError(f"Monte Carlo run count must be >= 0, got {args.mc}")
    seed = None
    if args.mc:
        seed = _resolve_seed(args, parser)
    elif args.seed is not None:
        raise ValueError("--seed applies only with --mc")
    paths = {"--out": args.out}
    if args.dump_dist:
        paths["--dump-dist"] = args.dump_dist
    with _outputs(paths) as handles:
        orbits = Orbits(ctx, args.n)
        report = success_report(orbits, analysis)
        doc = report.as_dict()
        doc["mc"] = None
        if args.mc or args.dump_dist:
            # One Sampler for the dump and the draws: each good orbit's law
            # is built once, from the table the report's pass kept.
            sampler = Sampler(report.good, orbits)
        if args.dump_dist:
            writer = csv.writer(handles[1], lineterminator="\n")
            writer.writerow(["x", "good_mass", "qprime", "probability"])
            labels = [";".join(map(str, p)) for p in sampler.points]  # by code
            for x, x_label in zip(sampler.points, labels):
                probs, mass = outcome_distribution(sampler, x)
                mass_label = f"{mass:.12g}"
                writer.writerows(
                    [x_label, mass_label, labels[code], f"{pr:.12g}"]
                    for code, pr in enumerate(probs.tolist())
                )
        if args.mc:
            stats = run_many(sampler, random.Random(f"hpp-mc:{seed}"), args.mc)
            doc["mc"] = {
                "runs": args.mc, "estimate": stats.success_rate, "stderr": stats.stderr
            }
        _write_json(doc, handles[0])
    return 0


def _median(values: list[int]) -> float:
    """float(statistics.median(values)) for a nonempty list of ints, without
    loading statistics (and through it fractions and decimal)."""
    values = sorted(values)
    mid = len(values) // 2
    return float(values[mid]) if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _cmd_e2e(args, parser) -> int:
    from .blackbox import sample_instance
    from .polyring import format_multipoly
    from .reduction import SolveStats, kappa, solve_multivariate

    ctx = parse_field(args.field)
    seed = _resolve_seed(args, parser)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.baseline:
        if args.m != 1 or args.n != 1:
            parser.error("--baseline applies only to m = 1, n = 1 instances")
        from .baseline import solve_linear_classical
    analysis = pick_analysis(ctx, args.n)
    good = GoodSets(ctx, args.n, analysis)
    solves = kappa(args.n, args.m)  # guards the schedule before any table or instance
    outputs = {"--out": args.out, "--summary-out": args.summary_out}
    with _outputs(outputs) as (out_fh, summary_fh):
        sampler = Sampler(good, Orbits(ctx, args.n))
        rows = []
        successes = 0
        revealed = []
        for trial in range(args.trials):
            inst = sample_instance(ctx, args.m, args.n, seed=f"{seed}:{trial}")
            rng = random.Random(f"hpp-e2e:{seed}:{trial}")
            solver = make_quantum_solver(sampler, rng)
            stats = SolveStats()
            try:
                cand = solve_multivariate(inst, solver, rng=rng, stats=stats)
                ok = cand == inst.Q
            except RecoveryError:
                cand, ok = None, False
            successes += ok
            row = {
                "trial": trial,
                "success": int(ok),
                "queries": inst.query_count,
                "solves": stats.univariate_solves,
                "retries": stats.retries,
            }
            if args.baseline:
                b_inst = sample_instance(ctx, 1, 1, seed=f"{seed}:{trial}")
                b = solve_linear_classical(
                    b_inst, rng=random.Random(f"hpp-e2e-baseline:{seed}:{trial}")
                )
                row["baseline_queries"] = b.queries
            rows.append(row)
            if args.reveal:
                revealed.append(
                    {
                        "trial": trial,
                        "hidden": format_multipoly(inst.Q),
                        "recovered": None if cand is None else format_multipoly(cand),
                    }
                )

        writer = csv.DictWriter(out_fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

        summary = {
            "field": field_descriptor(ctx),
            "m": args.m,
            "n": args.n,
            "trials": args.trials,
            "kappa": solves,
            "success_rate": successes / args.trials,
            "median_queries": _median([r["queries"] for r in rows]),
            "analysis": analysis.value,
        }
        if args.reveal:
            summary["instances"] = revealed
        _write_json(summary, summary_fh)
    return 0


def _cmd_baseline(args, parser) -> int:
    from .baseline import DEFAULT_SIZES, scaling_experiment

    seed = _resolve_seed(args, parser)
    ds = DEFAULT_SIZES if args.sizes is None else tuple(int(t) for t in args.sizes.split(","))
    with _outputs({"--out": args.out, "--fit-out": args.fit_out}) as (out_fh, fit_fh):
        stats, fit = scaling_experiment(
            ds=ds, trials=args.trials, seed=seed, max_queries=args.max_queries
        )
        writer = csv.writer(out_fh, lineterminator="\n")
        writer.writerow(["d", "trial", "queries", "success"])
        for s in stats:
            for trial, (q, ok) in enumerate(zip(s.queries, s.verified)):
                writer.writerow([s.d, trial, q, int(ok)])
        fit_doc = {
            "sizes": list(ds),
            "trials": args.trials,
            "medians": {str(s.d): s.median_queries for s in stats},
            "success_rates": {str(s.d): s.success_rate for s in stats},
            "exponent": fit.exponent,
            "stderr": fit.stderr,
            "ci95": list(fit.ci95),
        }
        _write_json(fit_doc, fit_fh)
    return 0


def _cmd_plan(args, parser) -> int:
    from .reduction import build_plan

    ctx = parse_field(args.field)
    with _outputs({"--out": args.out}) as (fh,):
        _write_json(build_plan(ctx, args.n, args.m), fh)
    return 0


def parse_args(argv=None) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """The CLI's argument stage: its parser, and the arguments it parsed."""
    parser = argparse.ArgumentParser(
        prog="hpp", description="hidden-polynomial oracle simulator and analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--field", required=True, help="field size, 'p' or 'p^e'")
        p.add_argument(
            "--jobs", type=int, default=1, help="accepted for compatibility and ignored"
        )
        if seed:
            p.add_argument("--seed", default=None, help="RNG seed (or set HPP_SEED)")

    p_eta = sub.add_parser("eta", help="fiber-size tables and moments")
    common(p_eta)
    p_eta.add_argument("-n", type=int, required=True, help="degree bound / copies")
    p_eta.add_argument("--out", default=None, help="CSV output path")
    p_eta.add_argument(
        "--solutions", action="store_true", help="include fiber members per row"
    )
    p_eta.add_argument(
        "--moments", action="store_true", help="print exact moments instead of the table"
    )
    p_eta.add_argument("--k", type=int, default=None, help="copy count for --moments")
    p_eta.set_defaults(func=_cmd_eta)

    p_success = sub.add_parser("success", help="success probabilities and bounds")
    common(p_success, seed=True)
    p_success.add_argument("-n", type=int, required=True)
    p_success.add_argument(
        "--analysis", choices=["auto", "first", "second"], default="auto"
    )
    p_success.add_argument("--mc", type=int, default=0, help="Monte Carlo runs")
    p_success.add_argument("--out", default=None, help="JSON output path")
    p_success.add_argument(
        "--dump-dist", default=None, help="CSV path for the per-direction outcome law"
    )
    p_success.set_defaults(func=_cmd_success)

    p_e2e = sub.add_parser("e2e", help="end-to-end recovery trials")
    common(p_e2e, seed=True)
    p_e2e.add_argument("-n", type=int, required=True, help="total degree bound")
    p_e2e.add_argument("-m", type=int, required=True, help="number of variables")
    p_e2e.add_argument("--trials", type=int, default=20)
    p_e2e.add_argument("--out", default=None, help="per-trial CSV path")
    p_e2e.add_argument("--summary-out", default=None, help="summary JSON path")
    p_e2e.add_argument(
        "--baseline",
        action="store_true",
        help="also run the classical collision baseline (m = n = 1 only)",
    )
    p_e2e.add_argument(
        "--reveal", action="store_true", help="include hidden polynomials in the summary"
    )
    p_e2e.set_defaults(func=_cmd_e2e)

    p_base = sub.add_parser("baseline", help="classical collision-search scaling")
    p_base.add_argument("--sizes", default=None)
    p_base.add_argument("--trials", type=int, default=50)
    p_base.add_argument("--seed", default=None, help="RNG seed (or set HPP_SEED)")
    p_base.add_argument("--max-queries", type=int, default=None)
    p_base.add_argument("--out", default=None, help="per-trial CSV path")
    p_base.add_argument("--fit-out", default=None, help="fit summary JSON path")
    p_base.set_defaults(func=_cmd_baseline)

    p_plan = sub.add_parser("plan", help="static reduction schedule")
    common(p_plan)
    p_plan.add_argument("-n", type=int, required=True)
    p_plan.add_argument("-m", type=int, required=True)
    p_plan.add_argument("--out", default=None, help="JSON output path")
    p_plan.set_defaults(func=_cmd_plan)

    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command and return its exit code; no process-wide side
    effects, so it can be called many times in one interpreter."""
    parser, args = parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: keep exit 1 for recovery failure alone
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    """The process entry of `hpp` and `python -m hpp.cli`: main(), then exit.

    gc.freeze() moves every live object to the permanent generation, which
    the interpreter's shutdown collections skip; objects are still freed by
    refcount, and main has closed its outputs before it returns."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
