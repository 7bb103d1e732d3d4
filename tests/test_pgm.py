import gc
import json
import math
import operator
import random
import tracemalloc
import weakref
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpp.cli
import hpp.fibers
import hpp.pgm
from hpp.blackbox import sample_instance
from hpp.densmat import pipeline_probability
from hpp.errors import GuardExceededError, InvariantViolationError
from hpp.fibers import (
    Analysis,
    EtaTable,
    GoodSets,
    Orbits,
    _check_enum_budget,
    _scaled_read,
    decode_point,
    direction_orbit,
    encode_point,
    eta_table,
    iter_eta_tables,
)
from hpp.gf import chi, dot, make_field, parse_field
from hpp.pgm import (
    BAD_BRANCH,
    SOLVER_VOTES,
    Sampler,
    SuccessReport,
    _BAD_X,
    _delta_distribution,
    _delta_lines,
    _draw_record,
    _exact_row_sums,
    _outcome_law,
    _success_sums,
    _term_counts,
    corollary_bound,
    lemma2_bound,
    make_quantum_solver,
    outcome_distribution,
    run_many,
    sample_outcome,
    success_report,
)
from hpp.polyring import UniPoly

F4 = parse_field("2^2")
F5 = make_field(5)
F7 = make_field(7)


def test_ideal_n1_closed_form():
    for d in (3, 5, 7, 11):
        ctx = make_field(d)
        val = success_report(Orbits(ctx, 1), Analysis.FIRST).ideal
        assert abs(val - (1 - 1 / d + 1 / d**2)) < 1e-12


def test_gf4_frozen_values():
    # hand-derived: 4096 * ideal = 2128; approx = lemma2 = 3/8 exactly
    report = success_report(Orbits(F4, 2), Analysis.SECOND)
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
        report = success_report(Orbits(parse_field(desc), 2), analysis)
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
    report = success_report(Orbits(ctx, 2), Analysis.FIRST)
    r = (d - 1) * (d - 2) * (d + (d * d - d) / math.sqrt(2)) ** 2
    ideal = (r + (d - 1) * (math.sqrt(d) + d * d - d) ** 2 + 2 * (d - 1) * d**3 + d * d) / d**6
    approx = (r + (d - 1) * (d * d - d) ** 2) / d**6
    assert abs(report.ideal - ideal) <= 1e-15
    assert abs(report.approx - approx) <= 1e-15
    assert report.x_good_count == (d - 1) ** 2
    assert report.w_good_min == (d * d + d) // 2
    mean = ((d - 2) * (d * d + d) // 2 + d * d - d) / (d - 1)
    assert report.w_good_mean == pytest.approx(mean, rel=1e-12, abs=0)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
def test_second_analysis_characteristic_2_pin(e):
    # In characteristic 2, b -> b^2 is additive, so w -> (w1, sqrt(w2)) is an
    # F-linear map of b with determinant sqrt(x1 x2) (sqrt(x1) + sqrt(x2)),
    # nonzero exactly on the (d-1)(d-2) good directions: there eta = 1 at
    # every w, and approx = (d-1)(d-2)/d^2.  Each direction adds
    # 1/(|kernel| d^2) to ideal: the kernel has 1 point on the good ones, d
    # on the 3(d-1) with one zero coordinate or x1 = x2, d^2 at x = 0.
    ctx = parse_field(f"2^{e}")
    d = ctx.d
    report = success_report(Orbits(ctx, 2), Analysis.SECOND)
    assert report.approx == float(Fraction((d - 1) * (d - 2), d * d))
    ideal = Fraction((d - 1) * (d - 2)) + Fraction(3 * (d - 1), d) + Fraction(1, d * d)
    assert report.ideal == float(ideal / (d * d))
    assert report.x_good_count == (d - 1) * (d - 2)


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_second_analysis_characteristic_2_laws_are_point_masses(e):
    # eta = 1 over every good direction, so each good law (sum_w chi(<delta,
    # w>))^2 is a point mass at delta = 0, up to the rounding of the unit
    # roots.  GF(2^6)^2 is left out: its laws take about 26 s.
    ctx = parse_field(f"2^{e}")
    sampler = _sampler(ctx, 2, Analysis.SECOND)
    good = [x for x in product(range(ctx.d), repeat=2) if sampler.good.x_good(x)]
    assert len(good) == (ctx.d - 1) * (ctx.d - 2)
    for x in good:
        probs, _ = outcome_distribution(sampler, x)
        assert probs[0] >= 1 - 1e-12, x


def test_corollary_bound_fixture():
    # (d-1)^2 * (d(d-1)/D - 2d)^2 / d^6 at d=11, D=2
    assert abs(corollary_bound(11, 2, 2) - 108900 / 11**6) < 1e-15
    assert corollary_bound(3, 2, 2) == 0.0  # clamped: 3*2/2 - 6 < 0


def test_ideal_requires_full_scan():
    with pytest.raises(InvariantViolationError, match="a table for every x"):
        _success_sums([eta_table(Orbits(F5, 2), (1, 2))], GoodSets(F5, 2, Analysis.FIRST))


@pytest.mark.parametrize(
    "desc,n,analysis",
    [("7", 2, Analysis.FIRST), ("13", 2, Analysis.FIRST), ("13", 2, Analysis.SECOND),
     ("3^2", 2, Analysis.SECOND), ("2^3", 2, Analysis.SECOND), ("7", 3, Analysis.FIRST),
     ("5", 3, Analysis.FIRST), ("5", 4, Analysis.FIRST), ("2^4", 2, Analysis.SECOND)],
)
def test_success_sums_equal_a_table_by_table_computation(desc, n, analysis):
    # Read from the tally of histograms, the report's five numbers are equal
    # to those of every direction's own roots and good targets: equal
    # floats, not a tolerance, so a drift of one ulp fails here.
    ctx = parse_field(desc)
    good = GoodSets(ctx, n, analysis)
    ideal_terms, approx_terms, w_counts = [], [], []
    for table in iter_eta_tables(Orbits(ctx, n)):
        inner = math.fsum(np.sqrt(table.counts).tolist())
        ideal_terms.append(inner * inner)
        if good.x_good(table.x):
            kept = table.counts[good.w_good(table.x, table.counts)]
            inner = math.fsum(np.sqrt(kept).tolist())
            approx_terms.append(inner * inner)
            w_counts.append(kept.size)
    scale = ctx.d ** (3 * n)
    want = (
        math.fsum(ideal_terms) / scale,
        math.fsum(approx_terms) / scale,
        len(w_counts),
        min(w_counts, default=0),
        sum(w_counts) / len(w_counts) if w_counts else 0.0,
    )
    got = _success_sums(iter_eta_tables(Orbits(ctx, n)), good)
    assert got == want
    assert [type(v) for v in got] == [float, float, int, int, float]
    report = success_report(Orbits(ctx, n), analysis)
    assert (
        report.ideal, report.approx, report.x_good_count, report.w_good_min, report.w_good_mean
    ) == want


def _sampler(ctx, n, analysis):
    """A Sampler over a store of its own, which no pass has filled: it
    enumerates each table it reads."""
    return Sampler(GoodSets(ctx, n, analysis), Orbits(ctx, n))


def _direction_law(sampler, x):
    """Direction x's delta law and good-branch mass: its orbit's law read
    at lam * delta."""
    probs, mass, lam = _outcome_law(sampler, x)
    ctx = sampler.good.ctx
    return _scaled_read(probs, ctx, len(x), lam), mass


def test_outcome_distribution_refuses_coordinates_outside_the_field():
    # (1, 8) would read the code of (2, 1), and (1, 99) a code past F^2:
    # both raise the field's check, for good and bad directions alike.
    sampler = _sampler(F7, 2, Analysis.FIRST)
    for x in ((1, 8), (1, 99), (0, 8), (-1, 2), (1, 2.0)):
        with pytest.raises(ValueError, match="is not an element of"):
            outcome_distribution(sampler, x)
    assert not sampler.orbit_laws


def test_outcome_distribution_normalization_and_support():
    sampler = _sampler(F5, 2, Analysis.FIRST)
    good = sampler.good
    for x in product(range(5), repeat=2):
        table = eta_table(sampler.orbits, x)
        probs, mass = outcome_distribution(sampler, x)
        if not good.x_good(x):
            assert mass == 0.0 and probs.shape == (0,)
            continue
        assert probs.shape == (25,)
        assert abs(math.fsum(probs.tolist()) - 1.0) < 1e-9
        total_eta = sum(
            eta for w, eta in table.items() if good.w_good(x, eta)
        )
        assert abs(mass - total_eta / 25) < 1e-12


def test_sample_outcome_returns_outcome_or_bad():
    ctx = F5
    sampler = _sampler(ctx, 2, Analysis.FIRST)
    rng = random.Random("runonce")
    seen_bad = seen_good = False
    for _ in range(200):
        out = sample_outcome(sampler, rng)
        if out is BAD_BRANCH:
            seen_bad = True
        else:
            assert out in range(ctx.d**2)
            seen_good = True
    assert seen_bad and seen_good


def test_run_many_matches_approx_success():
    ctx = F5
    sampler = _sampler(ctx, 2, Analysis.FIRST)
    approx = success_report(Orbits(ctx, 2), Analysis.FIRST).approx
    stats = run_many(sampler, random.Random("mc"), runs=4000)
    sigma = math.sqrt(approx * (1 - approx) / stats.runs)
    assert abs(stats.success_rate - approx) < 5 * sigma
    assert stats.runs == 4000
    assert stats.bad_branches + stats.successes <= stats.runs


def test_run_many_refuses_a_negative_run_count():
    sampler, rng = _sampler(F5, 2, Analysis.FIRST), random.Random("negative")
    state = rng.getstate()
    with pytest.raises(ValueError, match="runs must be >= 0, got -3"):
        run_many(sampler, rng, -3)
    assert rng.getstate() == state
    assert run_many(sampler, rng, 0).runs == 0


@pytest.mark.parametrize("desc, m, n", [("7", 2, 3), ("13", 1, 2)])
def test_quantum_solver_refuses_a_view_over_another_f_n(desc, m, n):
    # The sampler is over GF(7)^2: a view of an n = 3 instance, or of a
    # GF(13) instance, is refused before the first draw, and a recovery
    # through the solver fails as a usage error, not a RecoveryError.
    from hpp.reduction import solve_multivariate, univariate_oracle_view

    inst = sample_instance(parse_field(desc), m=m, n=n, seed="other")
    rng = random.Random("other")
    state = rng.getstate()
    solver = make_quantum_solver(_sampler(F7, 2, Analysis.FIRST), rng)
    message = "the view and the sampler are over different F\\^n"
    with pytest.raises(ValueError, match=message):
        solver(univariate_oracle_view(inst, (0,) * m, 0))
    with pytest.raises(ValueError, match=message):
        solve_multivariate(inst, solver, random.Random("other"))
    assert rng.getstate() == state and inst.query_count == 0


def test_quantum_solver_majority_vote():
    ctx = F7
    sampler = _sampler(ctx, 2, Analysis.FIRST)
    inst = sample_instance(ctx, 1, 2, seed="vote")
    from hpp.reduction import univariate_oracle_view

    view = univariate_oracle_view(inst, (0,), 0)
    truth = view.effective_coeffs()
    solver = make_quantum_solver(sampler, random.Random("vote"))
    hits = sum(
        tuple(solver(view).coeff(i) for i in (1, 2)) == truth for _ in range(20)
    )
    # A majority of SOLVER_VOTES good-branch draws is rarely wrong.
    assert hits >= 15, SOLVER_VOTES


def test_success_report_structure_and_determinism(tmp_path):
    from hpp.cli import main

    report = success_report(Orbits(F5, 2), Analysis.FIRST)
    doc = report.as_dict()
    assert doc["field"] == "5"
    assert doc["analysis"] == "first"
    assert "mc" not in doc
    assert doc == success_report(Orbits(F5, 2), Analysis.FIRST).as_dict()
    assert json.loads(json.dumps(doc)) == doc
    # The Monte Carlo block is the command's: the same report plus "mc".
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["success", "--field", "5", "-n", "2", "--analysis", "first",
                     "--mc", "500", "--seed", "rep", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    cli_doc = json.loads(outs[0].read_text())
    mc = cli_doc.pop("mc")
    assert cli_doc == doc
    assert set(mc) == {"runs", "estimate", "stderr"} and mc["runs"] == 500
    assert 0.0 <= mc["estimate"] <= 1.0


def test_success_report_enumerates_once(tmp_path, monkeypatch):
    import hpp.cli
    import hpp.pgm
    from hpp.cli import main

    passes = []
    built = []
    real = hpp.pgm.iter_eta_tables

    def counting(*args, **kwargs):
        passes.append(args)
        return (built.append(t) or t for t in real(*args, **kwargs))

    def no_sampler(*args):
        raise AssertionError("a Sampler was built")

    monkeypatch.setattr(hpp.pgm, "iter_eta_tables", counting)
    success_report(Orbits(F5, 2), Analysis.FIRST)
    assert len(passes) == 1
    # The fibers themselves are never enumerated on the report's path.
    assert len(built) == 25 and not any("solutions" in vars(t) for t in built)
    out = str(tmp_path / "s.json")
    flags = ["--mc", "50", "--seed", "one-pass", "--dump-dist", str(tmp_path / "d.csv")]
    for extra in (flags, []):
        passes.clear()
        built.clear()
        with monkeypatch.context() as m:
            if not extra:  # the exact report alone needs no Sampler
                m.setattr(hpp.cli, "Sampler", no_sampler)
            argv = ["success", "--field", "5", "-n", "2", "--out", out, *extra]
            assert main(argv) == 0
        assert len(passes) == 1 and len(built) == 25, extra


def test_success_report_requires_seed_for_mc(tmp_path, monkeypatch, capsys):
    from hpp.cli import main

    def no_tables(*a, **k):
        raise AssertionError("a table was built")

    monkeypatch.delenv("HPP_SEED", raising=False)
    monkeypatch.setattr("hpp.fibers._w_codes", no_tables)
    monkeypatch.setattr("hpp.pgm.iter_eta_tables", no_tables)
    with pytest.raises(SystemExit) as exc:
        main(["success", "--field", "5", "-n", "2", "--mc", "10",
              "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    assert "a seed is required" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_success_report_rejects_broken_sandwich():
    report = success_report(Orbits(F5, 2), Analysis.FIRST)
    with pytest.raises(InvariantViolationError):
        SuccessReport(
            good=report.good,
            ideal=0.5,
            approx=0.7,  # impossible: above ideal
            x_good_count=report.x_good_count,
            w_good_min=report.w_good_min,
            w_good_mean=report.w_good_mean,
        )


def _literal_delta_distribution(table, good):
    """The outcome law summed character by character: the oracle for the
    vectorized law, (probabilities by delta code, good-branch mass)."""
    ctx = table.ctx
    d, n = table.d, table.n
    chosen = [(w, eta) for w, eta in table.items() if good.w_good(table.x, eta)]
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


# (field, n, analysis, every how many-th direction to check); the larger
# fields are strided to keep the literal loop fast.  GF(3^3) has a
# three-digit trace form, and GF(31) checks one direction with |W| = 496,
# whose row sums need several exponent windows (about 1.7 s per literal law).
ORACLE_CASES = [
    ("5", 2, Analysis.FIRST, 1),
    ("13", 2, Analysis.FIRST, 21),
    ("2^2", 2, Analysis.SECOND, 1),
    ("2^3", 2, Analysis.SECOND, 3),
    ("3^2", 2, Analysis.SECOND, 3),
    ("5", 3, Analysis.FIRST, 9),
    ("3^3", 2, Analysis.FIRST, 365),
    ("31", 2, Analysis.FIRST, 500),
]


@pytest.mark.parametrize(
    "desc,n,analysis,stride",
    ORACLE_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2].value}-{c[3]}" for c in ORACLE_CASES],
)
def test_outcome_law_equals_literal_character_sum(desc, n, analysis, stride):
    ctx = parse_field(desc)
    good = GoodSets(ctx, n, analysis)
    lines = _delta_lines(ctx, n)
    checked = 0
    for i, table in enumerate(iter_eta_tables(Orbits(ctx, n))):
        if i % stride or not good.x_good(table.x):
            continue
        probs, mass = _delta_distribution(table, good, lines)
        want, want_mass = _literal_delta_distribution(table, good)
        assert probs.tolist() == want, (desc, table.x)
        assert mass == want_mass
        checked += 1
    assert checked > 0


# Every ORACLE_CASES field with all its directions, and more fields under
# each analysis that applies (the first needs p > n: not at GF(2^4)).
EXACT_LINK_CASES = [c[:3] for c in ORACLE_CASES] + [
    ("7", 2, Analysis.FIRST), ("7", 2, Analysis.SECOND), ("2^4", 2, Analysis.SECOND),
    ("5^2", 2, Analysis.FIRST), ("5^2", 2, Analysis.SECOND), ("7", 3, Analysis.FIRST),
]


@pytest.mark.parametrize(
    "desc,n,analysis",
    EXACT_LINK_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2].value}" for c in EXACT_LINK_CASES],
)
def test_approx_is_the_mean_success_of_the_samplers_laws(desc, n, analysis):
    # The exact link the Monte Carlo tests check to a few sigma: approx =
    # (1/d^n) * sum over good x of mass_x * law_x(q' = 0), each law read
    # from the Sampler for q = 0 and summed literally.
    ctx = parse_field(desc)
    sampler = _sampler(ctx, n, analysis)
    terms = []
    for x in product(range(ctx.d), repeat=n):
        probs, mass = outcome_distribution(sampler, x)
        if probs.size:
            terms.append(mass * probs[0])
    approx = success_report(Orbits(ctx, n), analysis).approx
    assert abs(math.fsum(terms) / ctx.d**n - approx) <= 4 * math.ulp(approx)


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
    # _success_sums' inner sums: one _exact_row_sums row per histogram, one
    # column per size that occurs (and one for size 0, worth 0.0), read as
    # sum_k hist[k] * sqrt(k).
    def fsum_roots(a):
        return math.fsum(np.sqrt(a).tolist())

    def sqrt_sum(a):
        hist = np.bincount(a, minlength=1)
        sizes = [0, *(np.flatnonzero(hist[1:]) + 1).tolist()]
        return _exact_row_sums(hist[None, sizes], [[math.sqrt(k)] for k in sizes])[0, 0]

    rng = np.random.default_rng(20260)
    for _ in range(2000):
        top = int(rng.choice([1, 4, 30, 10**4]))
        a = rng.integers(0, top + 1, size=int(rng.integers(0, 3000)))
        assert sqrt_sum(a) == fsum_roots(a), a
    # All-zero and empty arrays, and the single fiber of size d^n at x = 0.
    zero_x = eta_table(Orbits(F7, 2), (0, 0)).counts
    for a in (np.zeros(0, np.int64), np.zeros(49, np.int64), zero_x):
        assert sqrt_sum(a) == fsum_roots(a)
    # The full tables and the good-target slices success_report sums, the
    # latter read with every size past the cap weighted 0.
    for ctx, analysis in ((F7, Analysis.FIRST), (parse_field("3^2"), Analysis.SECOND)):
        good = GoodSets(ctx, 2, analysis)
        for table in iter_eta_tables(Orbits(ctx, 2)):
            assert sqrt_sum(table.counts) == fsum_roots(table.counts), table.x
            if good.x_good(table.x):
                masked = table.counts[good.w_good(table.x, table.counts)]
                assert sqrt_sum(table.counts[table.counts <= good.cap]) == fsum_roots(masked)


def test_grouped_row_sums_refuse_row_counts_of_2_to_the_52():
    # Below 2^52 the limbs are 1 bit wide; at 2^52 no limb width is left.
    assert _exact_row_sums(np.array([[2**52 - 1]]), [[1.5]])[0, 0] == 1.5 * (2**52 - 1)
    with pytest.raises(InvariantViolationError):
        _exact_row_sums(np.array([[2**51, 2**51]]), [[1.0], [0.5]])


def test_draw_record_holds_the_cdf_of_the_outcome_law():
    sampler = _sampler(F7, 2, Analysis.FIRST)
    x = (2, 5)
    probs, mass = _direction_law(sampler, x)
    (rep,) = sampler.orbit_laws
    orbit_law = sampler.orbit_laws[rep]
    again, again_mass = _direction_law(sampler, x)
    assert np.array_equal(again, probs) and again_mass == mass
    # The second call reads the cached orbit law; nothing is rebuilt.
    assert list(sampler.orbit_laws) == [rep] and sampler.orbit_laws[rep] is orbit_law
    # The two analyses share this table at p > 2, n = 2; each has its own law.
    second = _sampler(F7, 2, Analysis.SECOND)
    _outcome_law(second, x)
    assert second.orbit_laws[rep][0] is not orbit_law[0]
    record_mass, cdf, last = _draw_record(sampler, x)
    cum = list(accumulate(probs.tolist()))
    assert record_mass == mass and cdf.tolist() == cum and last == cum[-1]
    rng = random.Random("cdf")
    for u in [rng.random() * cum[-1] for _ in range(500)] + cum + [0.0]:
        assert int(cdf.obj.searchsorted(u)) == bisect_left(cdf, u) == bisect_left(cum, u)


def test_an_empty_orbit_law_is_shared_without_a_gather():
    # One orbit of GF(7) whose directions are bad under the second analysis:
    # no good target, so every member's law is empty.
    sampler = _sampler(F7, 2, Analysis.SECOND)
    for x in ((2, 5), (1, 6), (5, 2)):
        probs, mass = _direction_law(sampler, x)
        assert probs.size == 0 and mass == 0.0, x
    assert list(sampler.orbit_laws) == [(1, 6)]


def test_law_constants_die_with_their_sampler():
    # The line constants are built by the draws, held by the Sampler alone,
    # and freed with it: no cache keeps them for a later run.
    sampler = _sampler(F7, 2, Analysis.FIRST)
    run_many(sampler, random.Random("lines"), 50)
    assert "lines" in vars(sampler) and sampler.orbit_laws
    refs = [weakref.ref(a) for a in sampler.lines]
    del sampler
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_samplers_over_equal_good_sets_keep_their_own_laws():
    first, second = _sampler(F7, 2, Analysis.FIRST), _sampler(F7, 2, Analysis.FIRST)
    assert first.good == second.good
    _outcome_law(first, (2, 5))
    assert list(first.orbit_laws) == [(1, 6)] and second.orbit_laws == {}
    _outcome_law(second, (2, 5))
    assert second.orbit_laws[(1, 6)][0] is not first.orbit_laws[(1, 6)][0]


def _drawn_directions(seed, runs):
    """The directions run_many(sampler, random.Random(seed), runs) draws on
    GF(7)^2 under the first analysis, read from a replay of the literal
    draw, and the stream's state after it."""
    rng, drawn = random.Random(seed), []
    replay = _sampler(F7, 2, Analysis.FIRST)
    for _ in range(runs):
        _literal_draw(replay, rng, drawn)
    return drawn, rng.getstate()


def test_a_sampler_builds_one_law_per_drawn_good_orbit_from_its_representatives_table(
    monkeypatch,
):
    drawn, state = _drawn_directions("table-of", 60)
    sampler = _sampler(F7, 2, Analysis.FIRST)
    good = {x for x in drawn if sampler.good.x_good(x)}
    reps = {direction_orbit(F7, x)[0] for x in good}
    # Bad directions and orbit members other than the representative were drawn.
    assert good < set(drawn) and not good <= reps
    built = []
    real = hpp.pgm._delta_distribution
    monkeypatch.setattr(
        hpp.pgm, "_delta_distribution", lambda table, *a: built.append(table) or real(table, *a)
    )
    rng = random.Random("table-of")
    run_many(sampler, rng, 60)
    assert rng.getstate() == state
    assert sorted(t.x for t in built) == sorted(reps)
    for table in built:
        fresh = eta_table(Orbits(F7, 2), table.x)
        assert np.array_equal(table.counts, fresh.counts), table.x


def test_a_sampler_enumerates_only_the_orbits_its_store_has_not_kept(monkeypatch):
    # Half the drawn good orbits are kept in the store before the draws; the
    # sampler's store enumerates the other half only, once each, at their
    # representatives, and keeps those too.  The sampler calls no eta_table.
    drawn, _ = _drawn_directions("table-of", 60)
    good = GoodSets(F7, 2, Analysis.FIRST)
    reps = sorted({direction_orbit(F7, x)[0] for x in drawn if good.x_good(x)})
    assert len(reps) >= 2
    orbits = Orbits(F7, 2)
    for rep in reps[::2]:
        eta_table(orbits, rep)
    enumerated, asked = [], []
    real_codes, real_table = hpp.fibers._w_codes, hpp.fibers.eta_table
    monkeypatch.setattr(
        hpp.fibers, "_w_codes", lambda *a: enumerated.append(a[1]) or real_codes(*a)
    )
    monkeypatch.setattr(hpp.fibers, "eta_table", lambda *a: asked.append(a) or real_table(*a))
    run_many(Sampler(good, orbits), random.Random("table-of"), 60)
    assert enumerated == reps[1::2] and not asked
    assert set(orbits.kept) == {encode_point(r, F7.d) for r in reps}


def test_a_sampler_past_the_enumeration_budget_is_refused_before_its_state():
    # A Sampler's line constants hold d^n * p <= d^(2n) entries, so it
    # refuses d^(2n) > ENUMERATION_BUDGET, with a pass's message, before it
    # builds the orbit labels or its draw list of d^n (here 1018081) records.
    ctx = parse_field("1009")
    orbits = Orbits(ctx, 2)
    with pytest.raises(GuardExceededError) as expected:
        _check_enum_budget(ctx.d, 4)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError) as exc:
            Sampler(GoodSets(ctx, 2, Analysis.FIRST), orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == str(expected.value)
    assert peak < 1 << 20
    assert "labels" not in vars(orbits) and orbits.kept == {}
    # GF(97)^2 is inside the budget: 97^4 < 10^8.
    f97 = parse_field("97")
    assert Sampler(GoodSets(f97, 2, Analysis.FIRST), Orbits(f97, 2)).draws == [None] * 97**2


# (field, n, analysis, orbit laws built, good directions)
ORBIT_CASES = [
    ("13", 2, Analysis.FIRST, 7, 144),
    ("31", 2, Analysis.FIRST, 16, 900),
    ("3^2", 2, Analysis.FIRST, 5, 64),
    ("2^3", 2, Analysis.SECOND, 3, 42),
    ("5^2", 2, Analysis.FIRST, 13, 576),
    ("7", 3, Analysis.FIRST, 10, 216),
    ("7", 2, Analysis.SECOND, 3, 30),
]


@pytest.mark.parametrize(
    "desc,n,analysis,built,good_count",
    ORBIT_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2].value}" for c in ORBIT_CASES],
)
def test_orbit_laws_equal_fresh_builds(desc, n, analysis, built, good_count):
    ctx = parse_field(desc)
    sampler = _sampler(ctx, n, analysis)
    good = sampler.good
    tables = [t for t in iter_eta_tables(Orbits(ctx, n)) if good.x_good(t.x)]
    assert len(tables) == good_count
    # Each direction's law, read from its orbit representative's law, is
    # compared with a fresh build from the direction's own table.  In
    # reverse order most orbits are first met at another member.
    d = ctx.d
    negated = [
        encode_point([ctx.neg(a) for a in decode_point(code, d, n)], d) for code in range(d**n)
    ]
    lines = _delta_lines(ctx, n)
    for table in reversed(tables):
        x = table.x
        want, want_mass = _delta_distribution(table, good, lines)
        probs, mass = outcome_distribution(sampler, x)
        assert np.array_equal(probs, want[negated]) and mass == want_mass, x
        assert np.array_equal(_draw_record(sampler, x)[1], np.cumsum(want)), x
    assert len(sampler.orbit_laws) == built


def test_dump_dist_and_mc_share_the_orbit_laws(tmp_path, monkeypatch):
    # The dump and the Monte Carlo draws read one Sampler, so each good
    # orbit's law is built once per run.
    import hpp.pgm
    from hpp.cli import main

    desc, n, analysis, built, _ = ORBIT_CASES[0]
    builds = []
    real = hpp.pgm._delta_distribution
    monkeypatch.setattr(
        hpp.pgm, "_delta_distribution", lambda *a: builds.append(a[0].x) or real(*a)
    )
    assert main(["success", "--field", desc, "-n", str(n), "--analysis", analysis.value,
                 "--mc", "2000", "--seed", "a", "--out", str(tmp_path / "s.json"),
                 "--dump-dist", str(tmp_path / "dist.csv")]) == 0
    assert len(builds) == built == 7


@pytest.mark.parametrize(
    "desc,n", [("13", 2), ("3^2", 2), ("2^3", 2), ("7", 3)]
)
def test_success_mc_and_dump_dist_enumerate_once_per_direction_orbit(
    desc, n, tmp_path, monkeypatch
):
    # The dump and the draws read the tables the report's pass kept: a
    # Sampler that rebuilt one would enumerate its orbit a second time.
    from hpp.cli import main

    ctx = parse_field(desc)
    orbits = {direction_orbit(ctx, x)[0] for x in product(range(ctx.d), repeat=n)}
    calls = []
    real = hpp.fibers._w_codes
    monkeypatch.setattr(hpp.fibers, "_w_codes", lambda *a: calls.append(a[1]) or real(*a))
    assert main(["success", "--field", desc, "-n", str(n), "--mc", "300", "--seed", "o",
                 "--out", str(tmp_path / "s.json"),
                 "--dump-dist", str(tmp_path / "d.csv")]) == 0
    assert len(calls) == len(orbits) and set(calls) == orbits


def test_no_table_outlives_the_run_that_made_it(tmp_path, monkeypatch):
    # Each in-process run builds its own orbit store, so a second run
    # enumerates every direction orbit again, once, as the first did.
    from hpp.cli import main

    ctx = parse_field("13")
    orbits = sorted({direction_orbit(ctx, x)[0] for x in product(range(ctx.d), repeat=2)})
    calls = []
    real = hpp.fibers._w_codes
    monkeypatch.setattr(hpp.fibers, "_w_codes", lambda *a: calls.append(a[1]) or real(*a))
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        calls.clear()
        assert main(["success", "--field", "13", "-n", "2", "--out", str(out)]) == 0
        assert sorted(calls) == orbits, out.name
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # A Sampler reads only a store over its good sets' F^n.
    good = GoodSets(ctx, 2, Analysis.FIRST)
    for other in (Orbits(parse_field("11"), 2), Orbits(ctx, 3)):
        with pytest.raises(ValueError, match="different F\\^n"):
            Sampler(good, other)


@pytest.mark.parametrize(
    "argv",
    [
        ["e2e", "-m", "2", "--trials", "2", "--summary-out", "{out2}"],
        ["success", "--mc", "500", "--dump-dist", "{out2}"],
    ],
    ids=["e2e", "success"],
)
def test_commands_keep_only_good_orbit_representatives_tables(argv, tmp_path, monkeypatch):
    # Each command's one Sampler builds laws for good orbit representatives
    # only, from the tables its store keeps, and no orbit is enumerated
    # twice.  e2e makes no pass: it enumerates the good orbits it draws and
    # reads no direction's table; success's pass enumerates every orbit.
    from hpp.cli import main

    made, built, enumerated, tables = [], [], [], []

    def recording(good, orbits):
        made.append(orbits)
        return Sampler(good, orbits)

    real_law, real_codes, real_table = (
        hpp.pgm._delta_distribution, hpp.fibers._w_codes, hpp.fibers.eta_table
    )
    monkeypatch.setattr(hpp.cli, "Sampler", recording)
    monkeypatch.setattr(
        hpp.pgm, "_delta_distribution", lambda t, *a: built.append(t.x) or real_law(t, *a)
    )
    monkeypatch.setattr(
        hpp.fibers, "_w_codes", lambda *a: enumerated.append(a[1]) or real_codes(*a)
    )
    monkeypatch.setattr(hpp.fibers, "eta_table", lambda o, x: tables.append(x) or real_table(o, x))
    outs = {"{out1}": str(tmp_path / "out1"), "{out2}": str(tmp_path / "out2")}
    argv = [argv[0], "--field", "13", "-n", "2", "--seed", "r", "--out", "{out1}", *argv[1:]]
    assert main([outs.get(a, a) for a in argv]) == 0
    (orbits,) = made
    ctx = orbits.ctx
    good = GoodSets(ctx, 2, Analysis.FIRST)
    reps = {
        direction_orbit(ctx, x)[0] for x in product(range(ctx.d), repeat=2) if good.x_good(x)
    }
    assert len(reps) == 7
    assert sorted(built) == sorted(reps)
    assert {encode_point(r, ctx.d) for r in reps} <= set(orbits.kept)
    if argv[0] == "e2e":
        # Every good orbit is drawn here, each enumerated once, and nothing else.
        assert sorted(enumerated) == sorted(reps) and tables == []
    else:
        every = {direction_orbit(ctx, x)[0] for x in product(range(ctx.d), repeat=2)}
        assert sorted(enumerated) == sorted(every)


def _full_term_counts(ctx, n, w_codes, size_index, k):
    """Every row of the (phase, size) count matrix, each from its own row of
    the full phase matrix, in blocks of rows."""
    p, rows = ctx.p, ctx.d**n
    place = p ** np.arange(n * ctx.e)
    form = np.kron(np.eye(n, dtype=np.int64), np.array(ctx.trace_form))
    right = form @ (w_codes[:, None] // place % p).T
    out = []
    for start in range(0, rows, 512):
        deltas = np.arange(start, min(start + 512, rows))
        keys = (deltas[:, None] // place % p) @ right % p * k + size_index
        out += [np.bincount(row, minlength=p * k) for row in keys]
    return np.array(out)


@pytest.mark.parametrize(
    "desc,x",
    [("13", (2, 7)), ("61", (3, 10)), ("97", (5, 41)), ("3^2", (2, 7)), ("5^2", (3, 17)),
     ("2^3", (3, 6)), ("13", (1, 4, 9)), ("17", (2, 3, 11))],
)
def test_line_reduced_term_counts_equal_the_full_count(desc, x):
    ctx = parse_field(desc)
    n = len(x)
    table = eta_table(Orbits(ctx, n), x)
    good = GoodSets(ctx, n, Analysis.SECOND if ctx.p == 2 else Analysis.FIRST)
    codes = np.flatnonzero(good.w_good(x, table.counts))
    eta = table.counts[codes]
    sizes = np.flatnonzero(np.bincount(eta))
    args = (codes, np.searchsorted(sizes, eta), len(sizes))
    want = _full_term_counts(ctx, n, *args)
    assert (_term_counts(ctx, *args, _delta_lines(ctx, n)) == want).all()


def _literal_draw(sampler, rng, drawn=None):
    """One draw spelled out: randrange per coordinate of x, x_good, the law,
    random() >= mass and the CDF search, whose index is the code of delta.
    The direction drawn is appended to `drawn` when given."""
    good = sampler.good
    x = tuple(rng.randrange(good.ctx.d) for _ in range(good.n))
    if drawn is not None:
        drawn.append(x)
    if not good.x_good(x):
        return BAD_BRANCH
    probs, mass = _direction_law(sampler, x)
    if rng.random() >= mass:
        return BAD_BRANCH
    cdf = np.cumsum(probs)
    return int(cdf.searchsorted(rng.random() * cdf[-1]))


def _assert_solver_takes_the_vote(sampler, seed, q, got):
    """A solver on the RNG stream that drew `got` returns q' = q - delta,
    by base-p digits, for the most-voted delta of its first SOLVER_VOTES
    good draws, and the least such q' on a tie."""
    ctx, good = sampler.good.ctx, sampler.good
    votes = [
        tuple(
            ctx.from_digits(map(operator.sub, ctx.digits(qi), ctx.digits(di)))
            for qi, di in zip(q, decode_point(code, ctx.d, good.n))
        )
        for code in got
        if code is not BAD_BRANCH
    ][:SOLVER_VOTES]
    top = max(map(votes.count, votes))
    view = SimpleNamespace(ctx=ctx, n=good.n, effective_coeffs=lambda: q)
    cand = make_quantum_solver(sampler, random.Random(seed))(view)
    assert tuple(cand.coeff(i) for i in range(1, good.n + 1)) == min(
        v for v in votes if votes.count(v) == top
    )


@pytest.mark.parametrize(
    "desc, analysis, q",
    [
        ("7", Analysis.FIRST, (3, 5)),
        ("2^3", Analysis.SECOND, (6, 3)),
        # Unlike GF(2^3)'s point mass, this law moves q by nonzero deltas.
        ("3^2", Analysis.SECOND, (4, 7)),
    ],
)
def test_sample_outcome_replays_the_literal_draw(desc, analysis, q):
    ctx = parse_field(desc)
    sampler = _sampler(ctx, 2, analysis)
    rng = random.Random(f"replay:{desc}")
    twin = random.Random()
    twin.setstate(rng.getstate())
    got = [sample_outcome(sampler, rng) for _ in range(500)]
    assert got == [_literal_draw(sampler, twin) for _ in range(500)]
    assert rng.getstate() == twin.getstate()
    assert BAD_BRANCH in got and 0 in got
    _assert_solver_takes_the_vote(sampler, f"replay:{desc}", q, got)


@pytest.mark.parametrize(
    "desc, analysis, q",
    [("7", Analysis.FIRST, (3, 5)), ("7", Analysis.SECOND, (2, 6)), ("3^2", Analysis.FIRST, (4, 7))],
)
def test_draw_records_replay_the_searchsorted_draw(desc, analysis, q):
    ctx = parse_field(desc)
    sampler = _sampler(ctx, 2, analysis)
    empty = None
    if analysis is Analysis.SECOND:
        # No good direction of a field with d <= 27 has an empty law, so one
        # is planted on the orbit of (1, 2): mass 0 still takes one random().
        # (1, 6) is a bad direction here (x1 + x2 = 0) and takes none.
        empty = encode_point((1, 2), ctx.d)
        sampler.orbit_laws[direction_orbit(ctx, (1, 2))[0]] = (np.empty(0), 0.0)
    seed = f"records:{desc}:{analysis.value}"
    rng = random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    draws = 10**4
    want = [_literal_draw(sampler, twin) for _ in range(draws)]
    got = [sample_outcome(sampler, rng) for _ in range(draws)]
    assert got == want
    assert rng.getstate() == twin.getstate()
    assert BAD_BRANCH in got and 0 in got
    _assert_solver_takes_the_vote(sampler, seed, q, got)
    # Every direction was drawn, so every record was built and reused.
    records = sampler.draws
    assert len(records) == ctx.d**2 and None not in records
    for x in ((0, 1), (1, 6)) if empty else ((0, 1),):
        assert records[encode_point(x, ctx.d)] is _BAD_X
    if empty is not None:
        mass, cdf, last = records[empty]
        assert (mass, len(cdf), last) == (0.0, 0, 0.0)
    # A record views the one CDF built for it: the cumulative sum of its
    # direction's law.
    mass, cdf, last = records[encode_point((1, 1), ctx.d)]
    probs, law_mass = _direction_law(sampler, (1, 1))
    assert mass == law_mass and np.array_equal(cdf.obj, np.cumsum(probs))
    assert last == cdf.obj[-1]


def test_sample_outcome_returns_plain_ints(monkeypatch):
    # Drawing reads fiber sizes only: no fiber's points are listed.
    listed = []
    monkeypatch.setattr(EtaTable, "solutions", property(lambda t: listed.append(t.x)))
    sampler = _sampler(F5, 2, Analysis.FIRST)
    rng = random.Random("ints")
    outcomes = [sample_outcome(sampler, rng) for _ in range(100)]
    drawn = [o for o in outcomes if o is not BAD_BRANCH]
    assert drawn
    for code in drawn:
        assert type(code) is int and code in range(F5.d**2)
    assert sampler.orbit_laws and not listed


def _assert_pipeline_matches_law(ctx, analysis, x, qc):
    # The pipeline measures at q = qc; the law of q = 0 read at q' - qc is
    # the same law, since it depends on q only through q - q'.
    sampler = _sampler(ctx, len(x), analysis)
    mass, law = pipeline_probability(ctx, UniPoly(ctx, (0, *qc)), x, sampler.good)
    probs, law_mass = outcome_distribution(sampler, x)
    assert abs(mass - law_mass) < 1e-12
    assert law.shape == probs.shape
    for qprime in product(range(ctx.d), repeat=len(x)) if law.size else ():
        shifted = encode_point(map(ctx.sub, qprime, qc), ctx.d)
        assert abs(law[encode_point(qprime, ctx.d)] - probs[shifted]) < 1e-12, qprime


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
