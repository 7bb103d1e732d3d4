import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpp.blackbox import make_instance, sample_instance
from hpp.errors import InvariantViolationError, RecoveryError
from hpp.gf import make_field
from hpp.polyring import UniPoly, eval_multi, multi_poly, substitute, to_unipoly
from hpp.reduction import (
    SolveStats,
    UnivariateView,
    build_plan,
    faulty_solver,
    kappa,
    perfect_solver,
    slice_points,
    solve_multivariate,
    univariate_oracle_view,
)

F5 = make_field(5)
F7 = make_field(7)


def test_kappa_fixtures():
    assert kappa(2, 2) == 3
    assert kappa(2, 3) == 7
    assert kappa(3, 2) == 4
    assert kappa(1, 4) == 4
    assert kappa(5, 1) == 1


@given(st.integers(1, 6), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_kappa_recurrence(n, m):
    assert kappa(n, m) == 1 + n * kappa(n, m - 1)


def test_kappa_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kappa(0, 2)
    with pytest.raises(ValueError):
        kappa(2, 0)


def test_slice_points():
    assert slice_points(F7, 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        slice_points(make_field(3), 3)


def _two_var_instance():
    q = multi_poly(F5, 2, {(1, 0): 2, (0, 1): 3, (1, 1): 1, (0, 2): 4},
                   degree_bound=2)
    return make_instance(F5, q, 2, seed="view-test")


def test_view_query_passes_through():
    inst = _two_var_instance()
    view = univariate_oracle_view(inst, {0: 2})
    assert view.free == 1
    before = inst.query_count
    for r in range(5):
        for s in range(5):
            assert view.query(r, s) == inst.query((2, r), s)
    assert inst.query_count == before + 50


def test_view_effective_coeffs_match_substitution():
    inst = _two_var_instance()
    for val in range(5):
        view = UnivariateView(inst, {0: val}, 1)
        restricted = to_unipoly(substitute(inst.Q, {0: val}))
        assert view.effective_coeffs() == tuple(
            restricted.coeff(i) for i in (1, 2)
        )


def test_view_validation():
    inst = _two_var_instance()
    with pytest.raises(ValueError):
        UnivariateView(inst, {0: 1}, 0)  # free variable also fixed
    with pytest.raises(ValueError):
        UnivariateView(inst, {}, 1)  # coverage gap
    with pytest.raises(ValueError):
        UnivariateView(inst, {0: 1, 1: 2}, 1)
    with pytest.raises(ValueError):
        univariate_oracle_view(inst, {})  # two variables left free


def test_view_verification_accepts_shifts_rejects_wrong():
    inst = _two_var_instance()
    view = univariate_oracle_view(inst, {0: 3})
    truth = UniPoly(F5, (0, *view.effective_coeffs()))
    rng = random.Random(11)
    assert view.verify_candidate(truth, 4, rng)
    # a wrong candidate differs by a nonzero polynomial of degree <= n,
    # which cannot look constant on more than n distinct points
    wrong = UniPoly(F5, (0, F5.add(truth.coeff(1), 1), truth.coeff(2)))
    assert not view.verify_candidate(wrong, 4, rng)
    with pytest.raises(ValueError):
        view.verify_candidate(truth, 1, rng)


@pytest.mark.parametrize("d,m,n", [(5, 2, 2), (7, 2, 3), (7, 3, 2), (11, 1, 4)])
def test_perfect_solver_recovers_exactly(d, m, n):
    ctx = make_field(d)
    for trial in range(5):
        inst = sample_instance(ctx, m, n, seed=f"red:{d}:{m}:{n}:{trial}")
        stats = SolveStats()
        cand = solve_multivariate(inst, perfect_solver, stats=stats)
        assert cand == inst.Q
        assert stats.univariate_solves == kappa(n, m)
        assert stats.retries == 0
        assert stats.verify_failures == 0


def test_stats_can_be_reused_and_solve_count_is_checked(monkeypatch):
    stats = SolveStats()
    for trial in range(2):
        inst = sample_instance(F7, 2, 2, seed=f"reuse:{trial}")
        assert solve_multivariate(inst, perfect_solver, stats=stats) == inst.Q
    assert stats.univariate_solves == 2 * kappa(2, 2)
    monkeypatch.setattr("hpp.reduction.kappa", lambda n, m: 0)
    with pytest.raises(InvariantViolationError):
        solve_multivariate(sample_instance(F7, 2, 2, seed="reuse:2"), perfect_solver)


def test_recovered_polynomial_matches_oracle_graph():
    inst = sample_instance(F7, 2, 2, seed="graph-check")
    cand = solve_multivariate(inst, perfect_solver)
    rng = random.Random(3)
    for _ in range(30):
        r = tuple(rng.randrange(7) for _ in range(2))
        assert eval_multi(cand, r) == eval_multi(inst.Q, r)


def test_inconsistent_slice_data_is_a_recovery_error(monkeypatch):
    # a wrong slice solve that passes verification makes some interpolated
    # coefficient polynomial exceed its degree bound n - |alpha|
    monkeypatch.setattr(UnivariateView, "verify_candidate", lambda *args: True)
    inst = sample_instance(F7, 2, 2, seed="inconsistent")

    def skewed(view):
        good = perfect_solver(view)
        if view.fixed != {1: 1}:
            return good
        coeffs = list(good.coeffs) + [0] * (3 - len(good.coeffs))
        coeffs[2] = F7.add(coeffs[2], 1)
        return UniPoly(F7, tuple(coeffs))

    with pytest.raises(RecoveryError, match="inconsistent"):
        solve_multivariate(inst, skewed)


def test_univariate_recovery_needs_no_slice_points():
    # with one variable there is no split, so d <= n is no obstacle
    ctx = make_field(3)
    q = multi_poly(ctx, 1, {(1,): 2, (2,): 1}, degree_bound=3)
    inst = make_instance(ctx, q, 3, seed="uni")
    with pytest.raises(ValueError):
        slice_points(ctx, 3)
    assert solve_multivariate(inst, perfect_solver) == q


def test_lagrange_basis_is_built_once_per_recovery(monkeypatch):
    import hpp.reduction

    built = []
    real = hpp.reduction._lagrange_basis

    def counting(ctx, ts):
        built.append(tuple(ts))
        return real(ctx, ts)

    monkeypatch.setattr(hpp.reduction, "_lagrange_basis", counting)
    for m, splits in ((1, 0), (2, 1), (4, 1)):
        built.clear()
        inst = sample_instance(F7, m, 2, seed=f"basis:{m}")
        assert solve_multivariate(inst, perfect_solver) == inst.Q
        assert built == [(1, 2)] * splits, m


def test_retry_amplification_with_faulty_solver():
    # per-solve failure rate p^reps; verification always catches a corrupt
    # candidate because n + 3 distinct sample points exceed the degree bound
    failures = 0
    for trial in range(60):
        inst = sample_instance(F7, 2, 2, seed=f"amp:{trial}")
        solver = faulty_solver(0.3, random.Random(f"fault:{trial}"))
        stats = SolveStats()
        try:
            cand = solve_multivariate(inst, solver, repetitions=4, stats=stats)
        except RecoveryError:
            failures += 1
            continue
        assert cand == inst.Q
        assert stats.univariate_solves - stats.retries == kappa(2, 2)
        assert stats.verify_failures == stats.retries
    assert failures <= 6, failures


def test_verification_failures_are_counted():
    inst = sample_instance(F5, 1, 2, seed="count")

    def stubborn(view):
        good = perfect_solver(view)
        return UniPoly(view.ctx, (0, F5.add(good.coeff(1), 1), good.coeff(2)))

    stats = SolveStats()
    with pytest.raises(RecoveryError):
        solve_multivariate(inst, stubborn, repetitions=3, stats=stats)
    assert stats.univariate_solves == 3
    assert stats.retries == 2
    assert stats.verify_failures == 3


def test_solver_exceptions_trigger_retries():
    inst = sample_instance(F5, 1, 2, seed="raise")
    calls = []

    def flaky(view):
        calls.append(1)
        if len(calls) < 3:
            raise RecoveryError("sampler starved")
        return perfect_solver(view)

    stats = SolveStats()
    cand = solve_multivariate(inst, flaky, repetitions=5, stats=stats)
    assert cand == inst.Q
    assert stats.retries == 2


def test_nonzero_constant_term_is_a_contract_violation():
    inst = sample_instance(F5, 1, 2, seed="const")

    def bad(view):
        return UniPoly(view.ctx, (1, *view.effective_coeffs()))

    with pytest.raises(ValueError, match="constant term"):
        solve_multivariate(inst, bad)


def test_exhausted_budget_raises():
    inst = sample_instance(F5, 2, 2, seed="exhaust")

    def hopeless(view):
        raise RecoveryError("no luck")

    with pytest.raises(RecoveryError):
        solve_multivariate(inst, hopeless, repetitions=2)


def test_repetitions_validation():
    inst = sample_instance(F5, 1, 1, seed="reps")
    with pytest.raises(ValueError):
        solve_multivariate(inst, perfect_solver, repetitions=0)


def _plan_leaves(tree):
    if tree["kind"] == "univariate":
        return 1
    return 1 + sum(_plan_leaves(b["subplan"]) for b in tree["branches"])


def test_plan_leaf_count_is_kappa():
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        plan = build_plan(F7, n, m)
        assert plan["kappa"] == kappa(n, m)
        assert _plan_leaves(plan["tree"]) == plan["kappa"]


def test_plan_structure_and_json():
    import json

    plan = build_plan(F5, 2, 2)
    doc = json.loads(json.dumps(plan))
    assert doc == plan
    assert doc["kappa"] == 3
    tree = doc["tree"]
    assert tree["kind"] == "split"
    assert tree["origin"]["fixed"] == {"1": 0}
    assert [b["slice_point"] for b in tree["branches"]] == [1, 2]
    for b in tree["branches"]:
        assert b["subplan"]["kind"] == "univariate"
    with pytest.raises(ValueError):
        build_plan(F5, 2, 0)
    with pytest.raises(ValueError, match="need more than n = 5"):
        build_plan(F5, 5, 1)
