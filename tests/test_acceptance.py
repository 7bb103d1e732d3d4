"""Acceptance gate: every release criterion, one test each.

Each test computes its criterion, prints one PASS/FAIL line (run with -s to
see them live), and asserts both the result and the runtime budget.  Frozen
regression values were produced by this implementation and pinned; exact
identities carry zero tolerance.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from hpp.blackbox import sample_instance
from hpp.fibers import (
    Analysis,
    GoodSets,
    Orbits,
    brute_fiber,
    eta_moments,
    eta_table,
    iter_eta_tables,
    n2_constraint,
    pick_analysis,
    solve_n2_triangular,
)
from hpp.gf import make_field, parse_field
from hpp.pgm import Sampler, run_many, success_report
from hpp.polyring import UniPoly
from hpp.reduction import SolveStats, kappa, perfect_solver, solve_multivariate

def _check(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num}: {status} - {detail} [{elapsed:.1f}s, budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_exact_first_moment():
    t0 = time.perf_counter()
    cases = [(3, 2), (5, 2), (7, 2), (3, 3)]
    ok = True
    for d, n in cases:
        first, _ = eta_moments(make_field(d), n)
        ok = ok and first == Fraction(1)
    _check(1, ok, f"E[eta] exactly 1 at (d,n) in {cases}", time.perf_counter() - t0, 30)


def test_criterion_2_partition_identity():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for desc in ("2", "3", "2^2", "5", "7"):
        ctx = parse_field(desc)
        for table in iter_eta_tables(Orbits(ctx, 2)):
            ok = ok and int(table.counts.sum()) == ctx.d**2
            checked += 1
    _check(2, ok, f"sum of fiber sizes is d^2 for all {checked} directions, d <= 7",
           time.perf_counter() - t0, 10)


def test_criterion_3_triangular_equals_brute():
    t0 = time.perf_counter()
    ok = True
    exhaustive = 0
    for desc in ("5", "7", "2^2"):
        ctx = parse_field(desc)
        d = ctx.d
        for x in product(range(d), repeat=2):
            if n2_constraint(ctx, x) == 0:
                continue
            for w in product(range(d), repeat=2):
                ok = ok and sorted(solve_n2_triangular(ctx, x, w)) == sorted(
                    brute_fiber(ctx, x, w)
                )
                exhaustive += 1
    ctx = make_field(101)
    rng = random.Random("acceptance:triangular")
    randomized = 0
    while randomized < 1000:
        x = (rng.randrange(101), rng.randrange(101))
        if n2_constraint(ctx, x) == 0:
            continue
        w = (rng.randrange(101), rng.randrange(101))
        ok = ok and sorted(solve_n2_triangular(ctx, x, w)) == sorted(
            brute_fiber(ctx, x, w)
        )
        randomized += 1
    _check(3, ok,
           f"identical solution sets on {exhaustive} exhaustive and {randomized} random cases",
           time.perf_counter() - t0, 60)


def test_criterion_4_ideal_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (3, 5, 7, 11):
        ctx = make_field(d)
        got = success_report(Orbits(ctx, 1), Analysis.FIRST).ideal
        want = 1 - 1 / d + 1 / d**2
        worst = max(worst, abs(got - want))
    _check(4, worst < 1e-12, f"n=1 ideal success equals 1 - 1/d + 1/d^2, worst delta {worst:.2e}",
           time.perf_counter() - t0, 5)


def test_criterion_5_sandwich_bounds():
    t0 = time.perf_counter()
    tol = 1e-9
    ok = True
    for d in (7, 11, 19, 31):
        ctx = make_field(d)
        report = success_report(Orbits(ctx, 2), pick_analysis(ctx, 2))
        lo, mid, hi = report.lemma2, report.approx, report.ideal
        ok = ok and lo <= mid + tol and mid <= hi + tol and hi <= 1 + tol
    _check(5, ok, "lemma bound <= approximate <= ideal <= 1 at n=2, d in {7,11,19,31}",
           time.perf_counter() - t0, 300)


# pinned outputs of this implementation at n=2 under the first analysis
APPROX_N2 = {
    7: 0.4333854399113525,
    11: 0.468737941816528,
    19: 0.4872544586179589,
    31: 0.4940667012205872,
    61: 0.49776094934558657,
}
IDEAL_N2 = {
    7: 0.4804785614914472,
    11: 0.4880133574182385,
    19: 0.49365871245248427,
    31: 0.49643292492918034,
    61: 0.4983563519030819,
}


def test_criterion_6_constant_success_regression():
    t0 = time.perf_counter()
    ok = True
    approx = {}
    for d in sorted(APPROX_N2):
        ctx = make_field(d)
        report = success_report(Orbits(ctx, 2), pick_analysis(ctx, 2))
        approx[d] = report.approx
        ok = ok and abs(approx[d] - APPROX_N2[d]) < 1e-12
        ok = ok and abs(report.ideal - IDEAL_N2[d]) < 1e-12
    floor = min(v for d, v in approx.items() if d >= 11)
    ok = ok and floor >= 0.05
    # non-vanishing: the success level rises with d instead of decaying
    seq = [approx[d] for d in sorted(approx)]
    ok = ok and all(a < b for a, b in zip(seq, seq[1:]))
    _check(6, ok, f"approx success pinned at 5 sizes, min {floor:.3f} >= 0.05 for d >= 11",
           time.perf_counter() - t0, 600)


def test_criterion_7_density_matrix_cross_validation():
    import numpy as np

    from hpp.densmat import build_vx, conjugate_fourier, build_rho_q, pipeline_probability
    from hpp.fibers import encode_point
    from hpp.pgm import outcome_distribution
    from hpp.polyring import UniPoly as UP

    t0 = time.perf_counter()
    ok = True

    # block-diagonality after the Fourier conjugation, d <= 5
    for desc in ("2", "3", "2^2", "5"):
        ctx = parse_field(desc)
        d = ctx.d
        deg2 = (0, 1, 1) if d > 2 else (0, 1)
        rho = conjugate_fourier(ctx, build_rho_q(ctx, UP(ctx, deg2)))
        off = sum(
            abs(rho[b * d + x1, c * d + x2])
            for b in range(d) for x1 in range(d)
            for c in range(d) for x2 in range(d)
            if x1 != x2
        )
        ok = ok and off < 1e-10

    # fiber-collapsing isometry contract at d=3, n=2
    ctx = make_field(3)
    good = GoodSets(ctx, 2, Analysis.FIRST)
    orbits = Orbits(ctx, 2)
    worst_vx = 0.0
    for x in product(range(3), repeat=2):
        if not good.x_good(x):
            continue
        table = eta_table(orbits, x)
        vx = build_vx(ctx, table, good)
        for w, eta in table.items():
            if not good.w_good(x, eta):
                continue
            state = np.zeros(9, dtype=np.complex128)
            for b in table.solutions[w]:
                state[b[0] * 3 + b[1]] = 1 / math.sqrt(eta)
            worst_vx = max(worst_vx, float(np.linalg.norm(vx.matrix @ state - vx.w_state(w))))
    ok = ok and worst_vx < 1e-10

    # pipeline probabilities at q = qc against the analytic outcome law of
    # q = 0, read at q' - qc
    configs = [("3", Analysis.FIRST), ("2^2", Analysis.SECOND), ("5", Analysis.FIRST),
               ("5", Analysis.SECOND), ("7", Analysis.FIRST), ("7", Analysis.SECOND)]
    worst_pipe = 0.0
    for desc, analysis in configs:
        ctx = parse_field(desc)
        good = GoodSets(ctx, 2, analysis)
        sampler = Sampler(good, Orbits(ctx, 2))
        qc = (2 % ctx.d, 1)
        q = UP(ctx, (0, *qc))
        shifted = [encode_point(map(ctx.sub, qp, qc), ctx.d)
                   for qp in product(range(ctx.d), repeat=2)]
        for x in product(range(ctx.d), repeat=2):
            mass, law = pipeline_probability(ctx, q, x, good)
            probs, law_mass = outcome_distribution(sampler, x)
            ok = ok and law.shape == probs.shape
            probs = probs[shifted] if probs.size else probs
            worst_pipe = max(worst_pipe, abs(mass - law_mass), *np.abs(law - probs).tolist())
    ok = ok and worst_pipe < 1e-9
    _check(7, ok,
           f"off-block mass < 1e-10, isometry defect {worst_vx:.1e}, pipeline delta {worst_pipe:.1e}",
           time.perf_counter() - t0, 120)


def test_criterion_8_monte_carlo_consistency():
    t0 = time.perf_counter()
    ctx = make_field(7)
    analysis = pick_analysis(ctx, 2)
    orbits = Orbits(ctx, 2)
    sampler = Sampler(GoodSets(ctx, 2, analysis), orbits)
    target = success_report(orbits, analysis).approx
    runs = 10_000
    sigma = math.sqrt(target * (1 - target) / runs)

    # The law is the same for every instance, so the sampler takes none; two
    # independent streams each estimate the success probability.
    ok = True
    rates = []
    for label in ("identity", "random"):
        stats = run_many(sampler, random.Random(f"hpp-mc:{label}"), runs)
        rates.append(stats.success_rate)
        ok = ok and abs(stats.success_rate - target) <= 4 * sigma
    _check(8, ok,
           f"empirical {rates[0]:.4f}/{rates[1]:.4f} vs analytic {target:.4f}, 4 sigma = {4 * sigma:.4f}",
           time.perf_counter() - t0, 60)


def test_criterion_9_reduction_accounting():
    t0 = time.perf_counter()
    ok = True
    for m, n, d in ((2, 2, 7), (3, 2, 11), (2, 3, 13)):
        ctx = make_field(d)
        want = kappa(n, m)
        for trial in range(100):
            inst = sample_instance(ctx, m, n, seed=f"acc9:{m}:{n}:{d}:{trial}")
            stats = SolveStats()
            cand = solve_multivariate(inst, perfect_solver, stats=stats)
            ok = ok and cand == inst.Q and stats.univariate_solves == want
    _check(9, ok, "exactly kappa solves and exact recovery, 300 instances",
           time.perf_counter() - t0, 60)


def test_criterion_10_classical_scaling_exponent():
    from hpp.baseline import scaling_experiment

    t0 = time.perf_counter()
    _, fit = scaling_experiment(ds=(101, 401, 1009, 4001), trials=200, seed=0)
    ok = 0.4 <= fit.exponent <= 0.6
    _check(10, ok, f"median collision cost scales as d^{fit.exponent:.3f}",
           time.perf_counter() - t0, 120)
