import json
import math
import random
from bisect import bisect_left
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpp.blackbox import make_instance, sample_instance
from hpp.densmat import pipeline_probability
from hpp.errors import InvariantViolationError
from hpp.fibers import (
    Analysis,
    eta_table,
    good_sets,
    iter_eta_tables,
)
from hpp.gf import chi, dot, make_field, parse_field
from hpp.pgm import (
    BAD_BRANCH,
    Branch,
    SuccessReport,
    _delta_distribution,
    _exact_row_sums,
    _outcome_law,
    _sqrt_sum,
    _success_sums,
    corollary_bound,
    lemma2_bound,
    make_quantum_solver,
    outcome_distribution,
    run_many,
    sample_outcome,
    success_report,
)
from hpp.polyring import UniPoly, multi_poly

F4 = parse_field("2^2")
F5 = make_field(5)
F7 = make_field(7)


def test_ideal_n1_closed_form():
    for d in (3, 5, 7, 11):
        ctx = make_field(d)
        val = success_report(ctx, 1, Analysis.FIRST).ideal
        assert abs(val - (1 - 1 / d + 1 / d**2)) < 1e-12


def test_gf4_frozen_values():
    # hand-derived: 4096 * ideal = 2128; approx = lemma2 = 3/8 exactly
    report = success_report(F4, 2, Analysis.SECOND)
    assert abs(report.ideal - 2128 / 4096) < 1e-12
    assert abs(report.approx - 0.375) < 1e-12
    assert abs(report.lemma2 - 0.375) < 1e-12
    assert lemma2_bound(4, 2, report.x_good_count, report.w_good_min) == report.lemma2


def test_sandwich_small_fields():
    for desc, analysis in (
        ("5", Analysis.FIRST),
        ("7", Analysis.FIRST),
        ("2^2", Analysis.SECOND),
        ("5", Analysis.SECOND),
        ("3^2", Analysis.SECOND),
    ):
        report = success_report(parse_field(desc), 2, analysis)
        ideal, approx, lemma2 = report.ideal, report.approx, report.lemma2
        assert lemma2 <= approx + 1e-9
        assert approx <= ideal + 1e-9
        assert ideal <= 1.0 + 1e-12


ODD_FIELDS_TO_61 = (
    "3", "5", "7", "3^2", "11", "13", "17", "19", "23", "5^2", "3^3",
    "29", "31", "37", "41", "43", "47", "7^2", "53", "59", "61",
)


@pytest.mark.parametrize("desc", ODD_FIELDS_TO_61)
def test_first_analysis_n2_closed_form(desc):
    # Odd characteristic, n = 2: the fibers of every direction are known by
    # hand, so the whole report has a closed form that shares no code with
    # the enumeration.
    #   x1*x2*(x1+x2) != 0, (d-1)(d-2) of them: d fibers of size 1 and
    #     (d^2-d)/2 of size 2;
    #   x1 + x2 = 0 != x1, d-1 of them: one fiber of size d, d^2-d of size 1;
    #   exactly one x_i = 0, 2(d-1) of them: d fibers of size d;
    #   x = 0: one fiber of size d^2.
    ctx = parse_field(desc)
    d = ctx.d
    report = success_report(ctx, 2, Analysis.FIRST)
    r = (d - 1) * (d - 2) * (d + (d * d - d) / math.sqrt(2)) ** 2
    ideal = (r + (d - 1) * (math.sqrt(d) + d * d - d) ** 2 + 2 * (d - 1) * d**3 + d * d) / d**6
    approx = (r + (d - 1) * (d * d - d) ** 2) / d**6
    assert abs(report.ideal - ideal) <= 1e-15
    assert abs(report.approx - approx) <= 1e-15
    assert report.x_good_count == (d - 1) ** 2
    assert report.w_good_min == (d * d + d) // 2
    mean = ((d - 2) * (d * d + d) // 2 + d * d - d) / (d - 1)
    assert report.w_good_mean == pytest.approx(mean, rel=1e-12, abs=0)


def test_corollary_bound_fixture():
    # (d-1)^2 * (d(d-1)/D - 2d)^2 / d^6 at d=11, D=2
    assert abs(corollary_bound(11, 2, 2) - 108900 / 11**6) < 1e-15
    assert corollary_bound(3, 2, 2) == 0.0  # clamped: 3*2/2 - 6 < 0


def test_ideal_requires_full_scan():
    with pytest.raises(InvariantViolationError, match="a table for every x"):
        _success_sums([eta_table(F5, (1, 2))], good_sets(F5, 2, Analysis.FIRST))


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
        assert abs(math.fsum(dist.probabilities.values()) - 1.0) < 1e-9
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
    assert abs(math.fsum(dist.probabilities.values()) - 1.0) < 1e-9
    assert abs(dist.good_mass - 1.0) < 1e-12


def test_outcome_distribution_validates_q():
    table = eta_table(F5, (1, 2))
    with pytest.raises(ValueError):
        outcome_distribution(table, None, (1, 2, 3))


def test_sample_outcome_returns_outcome_or_bad():
    ctx = F5
    good = good_sets(ctx, 2, Analysis.FIRST)
    tables = {t.x: t for t in iter_eta_tables(ctx, 2)}
    inst = sample_instance(ctx, 1, 2, seed="runonce")
    q = tuple(inst.Q.coeff((i,)) for i in (1, 2))
    rng = random.Random("runonce")
    seen_bad = seen_good = False
    for _ in range(200):
        out = sample_outcome(q, tables, good, rng)
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
    approx = success_report(ctx, 2, Analysis.FIRST).approx
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
    assert doc == success_report(F5, 2, Analysis.FIRST, mc_runs=500, seed="rep").as_dict()
    assert json.loads(json.dumps(doc)) == doc


def test_success_report_enumerates_once(monkeypatch):
    import hpp.pgm

    passes = []
    built = []
    real = hpp.pgm.iter_eta_tables

    def counting(*args, **kwargs):
        passes.append(args)
        return (built.append(t) or t for t in real(*args, **kwargs))

    monkeypatch.setattr(hpp.pgm, "iter_eta_tables", counting)
    for mc_runs in (0, 50):
        passes.clear()
        built.clear()
        success_report(F5, 2, Analysis.FIRST, mc_runs=mc_runs, seed="one-pass")
        assert len(passes) == 1
        # The fibers themselves are never enumerated on the report's path.
        assert len(built) == 25 and not any("solutions" in vars(t) for t in built)


def test_success_report_requires_seed_for_mc():
    with pytest.raises(ValueError):
        success_report(F5, 2, Analysis.FIRST, mc_runs=10)


def test_success_report_rejects_broken_sandwich():
    report = success_report(F5, 2, Analysis.FIRST)
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
            cap=report.cap,
            x_good_count=report.x_good_count,
            w_good_min=report.w_good_min,
            w_good_mean=report.w_good_mean,
        )


def _literal_delta_distribution(table, good):
    """The outcome law summed character by character: the oracle for the
    vectorized law, (probabilities by delta code, good-branch mass)."""
    ctx = table.ctx
    d, n = table.d, table.n
    chosen = [
        (w, eta) for w, eta in table.items() if good is None or good.w_good(table.x, eta)
    ]
    if good is None:
        norm = d**n * d**n
        mass = 1.0
    else:
        b_size = sum(eta for _, eta in chosen)
        norm = d**n * b_size
        mass = b_size / d**n
    if not chosen:
        return [], mass
    pairs = [(w, math.sqrt(eta)) for w, eta in chosen]
    probs = []
    for delta in product(range(d), repeat=n):
        terms = [s * chi(ctx, dot(ctx, delta, w)) for w, s in pairs]
        amp = complex(
            math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
        )
        probs.append((amp.real * amp.real + amp.imag * amp.imag) / norm)
    return probs, mass


# (field, n, analysis, every how many-th direction to check, whether the
# ideal branch is checked too); the larger fields are strided to keep the
# literal loop fast.  GF(3^3) has a three-digit trace form, and GF(31)
# checks one direction with |W| = 496, whose row sums need several exponent
# windows; each literal law there takes about 1.7 s, so only the good
# branch, the one the sampler draws from, is checked.
ORACLE_CASES = [
    ("5", 2, Analysis.FIRST, 1, True),
    ("13", 2, Analysis.FIRST, 21, True),
    ("2^2", 2, Analysis.SECOND, 1, True),
    ("2^3", 2, Analysis.SECOND, 3, True),
    ("3^2", 2, Analysis.SECOND, 3, True),
    ("5", 3, Analysis.FIRST, 9, True),
    ("3^3", 2, Analysis.FIRST, 365, False),
    ("31", 2, Analysis.FIRST, 500, False),
]


@pytest.mark.parametrize(
    "desc,n,analysis,stride,with_ideal",
    ORACLE_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2].value}-{c[3]}" for c in ORACLE_CASES],
)
def test_outcome_law_equals_literal_character_sum(desc, n, analysis, stride, with_ideal):
    ctx = parse_field(desc)
    good = good_sets(ctx, n, analysis)
    checked = 0
    for i, table in enumerate(iter_eta_tables(ctx, n)):
        if i % stride:
            continue
        for g in (None, good) if with_ideal else (good,):
            if g is not None and not g.x_good(table.x):
                continue
            probs, mass = _delta_distribution(table, g)
            want, want_mass = _literal_delta_distribution(table, g)
            assert probs.tolist() == want, (desc, table.x, g is None)
            assert mass == want_mass
            checked += 1
    assert checked > 0


@given(
    nrows=st.integers(min_value=1, max_value=5),
    nvalues=st.integers(min_value=1, max_value=8),
    rnd=st.randoms(use_true_random=True),
)
@settings(max_examples=100, deadline=None)
def test_grouped_row_sums_equal_fsum_of_expanded_terms(nrows, nvalues, rnd):
    # Full 53-bit mantissas over 320 binades, both signs and some zeros: the
    # sums need several exponent windows, and adding the window totals in
    # plain floating point would round twice.  A seeded generator fills them
    # because Hypothesis's own number strategies favour short mantissas.
    def value():
        if rnd.random() < 0.1:
            return 0.0
        return math.ldexp(rnd.randrange(1 - 2**53, 2**53), rnd.randrange(-300, 21))

    values = [[value(), value()] for _ in range(nvalues)]
    rows = [[rnd.randrange(61) for _ in values] for _ in range(nrows)] + [[0] * nvalues]
    sums = _exact_row_sums(np.array(rows, dtype=np.int64), values)
    for r, counts in enumerate(rows):
        for c in range(2):
            terms = [v[c] for v, k in zip(values, counts) for _ in range(k)]
            assert sums[r, c] == math.fsum(terms), (r, c)


def test_sqrt_sum_equals_fsum_of_expanded_roots():
    def fsum_roots(a):
        return math.fsum(np.sqrt(a).tolist())

    rng = np.random.default_rng(20260)
    for _ in range(2000):
        top = int(rng.choice([1, 4, 30, 10**4]))
        a = rng.integers(0, top + 1, size=int(rng.integers(0, 3000)))
        assert _sqrt_sum(np.bincount(a)) == fsum_roots(a), a
    # All-zero and empty arrays, and the single fiber of size d^n at x = 0.
    for a in (np.zeros(0, np.int64), np.zeros(49, np.int64), eta_table(F7, (0, 0)).counts):
        assert _sqrt_sum(np.bincount(a)) == fsum_roots(a)
    # The full tables and the good-target slices success_report sums, the
    # latter read from the histogram masked on its size axis.
    for ctx, analysis in ((F7, Analysis.FIRST), (parse_field("3^2"), Analysis.SECOND)):
        good = good_sets(ctx, 2, analysis)
        for table in iter_eta_tables(ctx, 2):
            hist = np.bincount(table.counts)
            assert _sqrt_sum(hist) == fsum_roots(table.counts), table.x
            if good.x_good(table.x):
                masked = table.counts[good.w_good(table.x, table.counts)]
                by_size = hist * good.w_good(table.x, np.arange(len(hist)))
                assert _sqrt_sum(by_size) == fsum_roots(masked), table.x
                assert by_size.sum() == masked.size, table.x


def test_grouped_row_sums_refuse_row_counts_of_2_to_the_26():
    assert _exact_row_sums(np.array([[2**26 - 1]]), [[1.5]])[0, 0] == 1.5 * (2**26 - 1)
    with pytest.raises(InvariantViolationError):
        _exact_row_sums(np.array([[2**25, 2**25]]), [[1.0], [0.5]])


def test_outcome_law_is_cached_with_its_cdf():
    good = good_sets(F7, 2, Analysis.FIRST)
    table = eta_table(F7, (2, 5))
    law = _outcome_law(table, good)
    assert _outcome_law(table, good) is law
    assert _outcome_law(table, None) is not law
    probs, cdf, _ = law
    cum = list(accumulate(probs.tolist()))
    assert cdf.tolist() == cum
    rng = random.Random("cdf")
    for u in [rng.random() * cum[-1] for _ in range(500)] + cum + [0.0]:
        assert int(cdf.searchsorted(u)) == bisect_left(cum, u)


def test_sample_outcome_returns_plain_ints():
    good = good_sets(F5, 2, Analysis.FIRST)
    tables = {t.x: t for t in iter_eta_tables(F5, 2)}
    rng = random.Random("ints")
    outcomes = [sample_outcome((1, 3), tables, good, rng) for _ in range(100)]
    drawn = [o for o in outcomes if o is not BAD_BRANCH]
    assert drawn
    for out in drawn:
        for c in out:
            assert type(c) is int and F5.check(c) == c
    assert not any("solutions" in vars(t) for t in tables.values())


def _assert_pipeline_matches_law(ctx, analysis, x, qc):
    good = good_sets(ctx, len(x), analysis)
    mass, law = pipeline_probability(ctx, UniPoly(ctx, (0, *qc)), x, good)
    dist = outcome_distribution(eta_table(ctx, x), good, qc)
    assert abs(mass - dist.good_mass) < 1e-12
    assert law.keys() == dist.probabilities.keys()
    for qprime, p in law.items():
        assert abs(p - dist.probabilities[qprime]) < 1e-12, qprime


PIPELINE_CASES = [
    (parse_field("3"), Analysis.FIRST),
    (parse_field("3"), Analysis.SECOND),
    (F4, Analysis.SECOND),
    (F5, Analysis.FIRST),
    (F5, Analysis.SECOND),
    (F7, Analysis.FIRST),
    (F7, Analysis.SECOND),
    (parse_field("2^3"), Analysis.SECOND),
    (parse_field("3^2"), Analysis.FIRST),
    (make_field(11), Analysis.FIRST),
]


@given(case=st.sampled_from(PIPELINE_CASES), data=st.data())
@settings(max_examples=30, deadline=None)
def test_outcome_law_matches_density_matrix_pipeline(case, data):
    ctx, analysis = case
    elt = st.integers(min_value=0, max_value=ctx.d - 1)
    x = (data.draw(elt), data.draw(elt))
    qc = (data.draw(elt), data.draw(elt))
    _assert_pipeline_matches_law(ctx, analysis, x, qc)


# GF(5^2) is the smallest field where a wrong trace form in the phase matrix
# moves a good-branch law by more than rounding: the identity form moves the
# law at x = (1, 1) by 2.65e-4, and those at GF(2^2), GF(2^3), GF(2^4),
# GF(3^2), GF(3^3) and GF(7^2) by at most 3e-17.  GF(5) at n = 3 runs the
# pipeline on three copies; (2, 0, 3) is a bad direction there.
@pytest.mark.parametrize(
    "desc,x,qc",
    [("5^2", (1, 1), (1, 1)), ("5", (1, 2, 3), (1, 2, 3)), ("5", (4, 4, 1), (0, 3, 2)),
     ("5", (2, 0, 3), (4, 1, 0))],
)
def test_outcome_law_matches_pipeline_at_fixed_directions(desc, x, qc):
    _assert_pipeline_matches_law(parse_field(desc), Analysis.FIRST, x, qc)
