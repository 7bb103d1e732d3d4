import json
import math
import random
from itertools import product

import pytest

from hpp.blackbox import make_instance, sample_instance
from hpp.errors import InvariantViolationError
from hpp.fibers import (
    Analysis,
    eta_table,
    good_sets,
    iter_eta_tables,
    summarize_good_sets,
)
from hpp.gf import make_field, parse_field
from hpp.pgm import (
    BAD_BRANCH,
    Branch,
    SuccessReport,
    approx_success,
    corollary_bound,
    ideal_success,
    lemma2_bound,
    make_quantum_solver,
    outcome_distribution,
    run_many,
    run_once,
    success_report,
)
from hpp.polyring import multi_poly

F4 = parse_field("2^2")
F5 = make_field(5)
F7 = make_field(7)


def test_ideal_n1_closed_form():
    for d in (3, 5, 7, 11):
        ctx = make_field(d)
        val = ideal_success(iter_eta_tables(ctx, 1))
        assert abs(val - (1 - 1 / d + 1 / d**2)) < 1e-12


def test_gf4_frozen_values():
    # hand-derived: 4096 * ideal = 2128; approx = lemma2 = 3/8 exactly
    good = good_sets(F4, 2, Analysis.SECOND)
    ideal = ideal_success(iter_eta_tables(F4, 2))
    approx = approx_success(iter_eta_tables(F4, 2), good)
    summary = summarize_good_sets(iter_eta_tables(F4, 2), good)
    assert abs(ideal - 2128 / 4096) < 1e-12
    assert abs(approx - 0.375) < 1e-12
    assert abs(lemma2_bound(summary) - 0.375) < 1e-12


def test_sandwich_small_fields():
    for desc, analysis in (
        ("5", Analysis.FIRST),
        ("7", Analysis.FIRST),
        ("2^2", Analysis.SECOND),
        ("5", Analysis.SECOND),
        ("3^2", Analysis.SECOND),
    ):
        ctx = parse_field(desc)
        good = good_sets(ctx, 2, analysis)
        ideal = ideal_success(iter_eta_tables(ctx, 2))
        approx = approx_success(iter_eta_tables(ctx, 2), good)
        lemma2 = lemma2_bound(summarize_good_sets(iter_eta_tables(ctx, 2), good))
        assert lemma2 <= approx + 1e-9
        assert approx <= ideal + 1e-9
        assert ideal <= 1.0 + 1e-12


def test_corollary_bound_fixture():
    # (d-1)^2 * (d(d-1)/D - 2d)^2 / d^6 at d=11, D=2
    assert abs(corollary_bound(11, 2, 2) - 108900 / 11**6) < 1e-15
    assert corollary_bound(3, 2, 2) == 0.0  # clamped: 3*2/2 - 6 < 0


def test_ideal_requires_full_scan():
    with pytest.raises(InvariantViolationError):
        ideal_success([eta_table(F5, (1, 2))])


def test_outcome_distribution_normalization_and_support():
    good = good_sets(F5, 2, Analysis.FIRST)
    for x in product(range(5), repeat=2):
        table = eta_table(F5, x)
        dist = outcome_distribution(table, good, (1, 3))
        if not good.x_good(x):
            assert dist.branch is Branch.BAD
            assert dist.good_mass == 0.0
            continue
        assert dist.branch is Branch.GOOD
        dist.check_normalized()
        total_eta = sum(
            eta for w, eta in table.items() if good.w_good(x, eta)
        )
        assert abs(dist.good_mass - total_eta / 25) < 1e-12


def test_outcome_distribution_shift_covariance():
    # the law depends on q only through q - q'
    good = good_sets(F7, 2, Analysis.FIRST)
    table = eta_table(F7, (2, 5))
    base = outcome_distribution(table, good, (0, 0))
    for q in ((1, 0), (3, 4), (6, 6)):
        dist = outcome_distribution(table, good, q)
        for qprime, p in dist.probabilities.items():
            delta = (F7.sub(q[0], qprime[0]), F7.sub(q[1], qprime[1]))
            base_qprime = (F7.neg(delta[0]), F7.neg(delta[1]))
            assert abs(p - base.probabilities[base_qprime]) < 1e-12


def test_ideal_outcome_distribution():
    table = eta_table(F5, (1, 2))
    dist = outcome_distribution(table, None, (2, 1))
    assert dist.branch is Branch.IDEAL
    dist.check_normalized()
    assert abs(dist.good_mass - 1.0) < 1e-12


def test_outcome_distribution_validates_q():
    table = eta_table(F5, (1, 2))
    with pytest.raises(ValueError):
        outcome_distribution(table, None, (1, 2, 3))


def test_run_once_returns_outcome_or_bad():
    ctx = F5
    good = good_sets(ctx, 2, Analysis.FIRST)
    tables = {t.x: t for t in iter_eta_tables(ctx, 2)}
    inst = sample_instance(ctx, 1, 2, seed="runonce")
    rng = random.Random("runonce")
    seen_bad = seen_good = False
    for _ in range(200):
        out = run_once(inst, tables, good, rng)
        if out is BAD_BRANCH:
            seen_bad = True
        else:
            assert len(out) == 2
            seen_good = True
    assert seen_bad and seen_good


def test_run_many_matches_approx_success():
    ctx = F5
    good = good_sets(ctx, 2, Analysis.FIRST)
    tables = {t.x: t for t in iter_eta_tables(ctx, 2)}
    approx = approx_success(iter_eta_tables(ctx, 2), good)
    inst = sample_instance(ctx, 1, 2, seed="mc")
    stats = run_many(inst, tables, good, random.Random("mc"), runs=4000)
    sigma = math.sqrt(approx * (1 - approx) / stats.runs)
    assert abs(stats.success_rate - approx) < 5 * sigma
    assert stats.runs == 4000
    assert stats.bad_branches + stats.successes <= stats.runs


def test_run_many_pi_independent():
    # identical seeds, different permutations: same sampled outcomes
    ctx = F5
    good = good_sets(ctx, 2, Analysis.FIRST)
    tables = {t.x: t for t in iter_eta_tables(ctx, 2)}
    q = multi_poly(ctx, 1, {(1,): 2, (2,): 3}, degree_bound=2)
    ident = make_instance(ctx, q, n=2)
    rng = random.Random("perm")
    perm = list(range(5))
    rng.shuffle(perm)
    shuffled = make_instance(ctx, q, n=2, pi=tuple(perm))
    a = run_many(ident, tables, good, random.Random("x"), runs=500)
    b = run_many(shuffled, tables, good, random.Random("x"), runs=500)
    assert a.successes == b.successes and a.bad_branches == b.bad_branches


def test_quantum_solver_majority_vote():
    ctx = F7
    good = good_sets(ctx, 2, Analysis.FIRST)
    tables = {t.x: t for t in iter_eta_tables(ctx, 2)}
    inst = sample_instance(ctx, 1, 2, seed="vote")
    from hpp.reduction import univariate_oracle_view

    view = univariate_oracle_view(inst, {}, 0)
    truth = view.effective_coeffs()
    solver = make_quantum_solver(tables, good, random.Random("vote"), votes=9)
    hits = sum(
        tuple(solver(view).coeff(i) for i in (1, 2)) == truth for _ in range(20)
    )
    assert hits >= 15  # majority of 9 good-branch draws is rarely wrong


def test_success_report_structure_and_determinism():
    report = success_report(F5, 2, Analysis.FIRST, mc_runs=500, seed="rep")
    doc = report.as_dict()
    assert doc["field"] == "5"
    assert doc["analysis"] == "first"
    assert doc["mc"]["runs"] == 500
    assert report.to_json() == success_report(
        F5, 2, Analysis.FIRST, mc_runs=500, seed="rep"
    ).to_json()
    json.loads(report.to_json())


def test_success_report_enumerates_once(monkeypatch):
    import hpp.pgm

    passes = []
    real = hpp.pgm.iter_eta_tables

    def counting(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hpp.pgm, "iter_eta_tables", counting)
    for mc_runs in (0, 50):
        passes.clear()
        success_report(F5, 2, Analysis.FIRST, mc_runs=mc_runs, seed="one-pass")
        assert len(passes) == 1


def test_success_report_requires_seed_for_mc():
    with pytest.raises(ValueError):
        success_report(F5, 2, Analysis.FIRST, mc_runs=10)


def test_success_report_rejects_broken_sandwich():
    good = good_sets(F5, 2, Analysis.FIRST)
    summary = summarize_good_sets(iter_eta_tables(F5, 2), good)
    with pytest.raises(InvariantViolationError):
        SuccessReport(
            field="5",
            d=5,
            n=2,
            analysis=Analysis.FIRST,
            ideal=0.5,
            approx=0.7,  # impossible: above ideal
            lemma2=0.1,
            corollary=0.0,
            good_summary=summary,
        )
