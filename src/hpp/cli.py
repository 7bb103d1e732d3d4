"""Command-line front end.

Subcommands:
  eta       fiber-size tables as CSV, or exact fiber-size moments as JSON
  success   measurement success analysis (exact values, bounds, optional MC)
  e2e       end-to-end recovery trials: per-trial CSV plus a summary
  baseline  classical collision baseline and its query-scaling fit
  plan      static reduction schedule as JSON

Exit codes: 0 success, 1 recovery failure (for example a query budget
exhausted), 2 usage error (including an output path that cannot be
written), 3 enumeration guard tripped, 4 internal invariant violated.
Outputs are deterministic byte-for-byte for fixed arguments and seed (JSON
keys sorted, newline-terminated lines).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import statistics
import sys

from . import baseline as baseline_mod
from .blackbox import sample_instance
from .errors import GuardExceededError, InvariantViolationError, RecoveryError
from .fibers import (
    Analysis,
    eta_moments,
    good_sets,
    iter_eta_tables,
    pick_analysis,
    write_eta_csv,
)
from .gf import field_descriptor, parse_field
from .pgm import make_quantum_solver, outcome_distribution, success_report
from .polyring import format_multipoly
from .reduction import SolveStats, build_plan, kappa, solve_multivariate


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    seed = args.seed if args.seed is not None else os.environ.get("HPP_SEED")
    if seed is None:
        parser.error("a seed is required: pass --seed or set HPP_SEED")
    return seed


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="\n", encoding="utf-8"), True


def _emit_json(doc, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    fh, close = _open_out(path)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


def _cmd_eta(args, parser) -> int:
    ctx = parse_field(args.field)
    if args.moments:
        first, second = eta_moments(ctx, args.n, k=args.k)
        _emit_json(
            {
                "field": field_descriptor(ctx),
                "n": args.n,
                "k": args.k if args.k is not None else args.n,
                "first_moment": str(first),
                "second_moment": str(second),
            },
            args.out,
        )
        return 0
    if args.out is None:
        parser.error("eta table export needs --out FILE (CSV is not written to stdout)")
    tables = iter_eta_tables(ctx, args.n, store_solutions=args.solutions)
    write_eta_csv(tables, args.out, include_solutions=args.solutions)
    return 0


def _cmd_success(args, parser) -> int:
    ctx = parse_field(args.field)
    if args.analysis == "auto":
        analysis = pick_analysis(ctx, args.n)
    else:
        analysis = Analysis(args.analysis)
    seed = None
    if args.mc > 0:
        seed = _resolve_seed(args, parser)
    report = success_report(ctx, args.n, analysis, mc_runs=args.mc, seed=seed)
    _emit_json(report.as_dict(), args.out)
    if args.dump_dist:
        good = good_sets(ctx, args.n, analysis)
        origin = (0,) * args.n
        fh, close = _open_out(args.dump_dist)
        try:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "good_mass", "qprime", "probability"])
            for table in iter_eta_tables(ctx, args.n):
                dist = outcome_distribution(table, good, origin)
                if not dist.probabilities:
                    continue
                x_label = ";".join(str(c) for c in table.x)
                for qprime in sorted(dist.probabilities):
                    writer.writerow(
                        [
                            x_label,
                            f"{dist.good_mass:.12g}",
                            ";".join(str(c) for c in qprime),
                            f"{dist.probabilities[qprime]:.12g}",
                        ]
                    )
        finally:
            if close:
                fh.close()
    return 0


def _cmd_e2e(args, parser) -> int:
    ctx = parse_field(args.field)
    seed = _resolve_seed(args, parser)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    analysis = pick_analysis(ctx, args.n)
    good = good_sets(ctx, args.n, analysis)
    tables = {t.x: t for t in iter_eta_tables(ctx, args.n)}
    if args.baseline and (args.m != 1 or args.n != 1):
        parser.error("--baseline applies only to m = 1, n = 1 instances")

    rows = []
    successes = 0
    revealed = []
    for trial in range(args.trials):
        inst = sample_instance(ctx, args.m, args.n, seed=f"{seed}:{trial}")
        rng = random.Random(f"hpp-e2e:{seed}:{trial}")
        solver = make_quantum_solver(tables, good, rng)
        stats = SolveStats()
        try:
            cand = solve_multivariate(inst, solver, rng=rng, stats=stats)
            ok = cand == inst.Q
        except RecoveryError:
            cand = None
            ok = False
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
            b = baseline_mod.solve_linear_classical(
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

    fh, close = _open_out(args.out)
    try:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if close:
            fh.close()

    summary = {
        "field": field_descriptor(ctx),
        "m": args.m,
        "n": args.n,
        "trials": args.trials,
        "kappa": kappa(args.n, args.m),
        "success_rate": successes / args.trials,
        "median_queries": float(statistics.median(r["queries"] for r in rows)),
        "analysis": analysis.value,
    }
    if args.reveal:
        summary["instances"] = revealed
    _emit_json(summary, args.summary_out)
    return 0


def _cmd_baseline(args, parser) -> int:
    seed = _resolve_seed(args, parser)
    ds = tuple(int(tok) for tok in args.sizes.split(","))
    stats, fit = baseline_mod.scaling_experiment(
        ds=ds, trials=args.trials, seed=seed, max_queries=args.max_queries
    )
    fh, close = _open_out(args.out)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["d", "trial", "queries", "success"])
        for s in stats:
            for trial, (q, ok) in enumerate(zip(s.queries, s.verified)):
                writer.writerow([s.d, trial, q, int(ok)])
    finally:
        if close:
            fh.close()
    _emit_json(
        {
            "sizes": list(ds),
            "trials": args.trials,
            "medians": {str(s.d): s.median_queries for s in stats},
            "success_rates": {str(s.d): s.success_rate for s in stats},
            "exponent": fit.exponent,
            "stderr": fit.stderr,
            "ci95": list(fit.ci95),
        },
        args.fit_out,
    )
    return 0


def _cmd_plan(args, parser) -> int:
    ctx = parse_field(args.field)
    plan = build_plan(ctx, args.n, args.m)
    _emit_json(
        {"n": plan.n, "m": plan.m, "kappa": plan.kappa, "tree": plan.tree}, args.out
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_base.add_argument(
        "--sizes", default=",".join(str(d) for d in baseline_mod.DEFAULT_SIZES)
    )
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
