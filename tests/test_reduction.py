import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpp.reduction
from hpp.blackbox import make_instance, sample_instance
from hpp.errors import GuardExceededError, InvariantViolationError, RecoveryError
from hpp.gf import make_field
from hpp.polyring import UniPoly, eval_multi, multi_poly
from hpp.reduction import (
    MAX_ARITY,
    MAX_SOLVES,
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


def test_kappa_guards_the_schedule():
    assert kappa(1, MAX_ARITY) == MAX_ARITY
    with pytest.raises(GuardExceededError, match=f"cap of {MAX_ARITY} variables"):
        kappa(1, MAX_ARITY + 1)
    assert kappa(2, 13) == 2**13 - 1 <= MAX_SOLVES
    with pytest.raises(GuardExceededError, match=f"budget of {MAX_SOLVES} univariate"):
        kappa(2, 14)
    with pytest.raises(GuardExceededError):
        kappa(2, 10**12)


def test_schedule_guards_trip_before_any_recursion():
    with pytest.raises(GuardExceededError):
        build_plan(F7, 2, 14)
    inst = sample_instance(F7, MAX_ARITY + 1, 1, seed="deep")
    with pytest.raises(GuardExceededError):
        solve_multivariate(inst, perfect_solver)
    assert inst.query_count == 0
    # The deepest accepted schedule stays inside the recursion limit, for the
    # plan's JSON as well as for the recovery.
    import json

    json.dumps(build_plan(F7, 1, MAX_ARITY), indent=2)
    inst = sample_instance(F7, MAX_ARITY, 1, seed="deep")
    stats = SolveStats()
    assert solve_multivariate(inst, perfect_solver, stats=stats) == inst.Q
    assert stats.univariate_solves == MAX_ARITY


def test_slice_points():
    assert slice_points(F7, 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        slice_points(make_field(3), 3)


def _two_var_instance():
    q = multi_poly(F5, 2, {(1, 0): 2, (0, 1): 3, (1, 1): 1, (0, 2): 4})
    return make_instance(F5, q, 2, seed="view-test")


def test_view_verification_spends_its_trials():
    inst = _two_var_instance()
    view = univariate_oracle_view(inst, (2, 0), 1)
    assert view.point == (2, 0) and view.free == 1
    cand = UniPoly(F5, (0, *view.effective_coeffs()))
    before = inst.query_count
    assert view.verify_candidate(cand, 4, random.Random("spend"))
    assert inst.query_count == before + 4


def test_view_effective_coeffs_match_substitution():
    inst = _two_var_instance()
    for val in range(5):
        # Q = 2*X1 + 3*X2 + X1*X2 + 4*X2^2 at X1 = val: (3 + val)*X2 + 4*X2^2,
        # whatever the point holds at the free position.
        for ignored in (0, 4):
            view = UnivariateView(inst, (val, ignored), 1)
            assert view.effective_coeffs() == ((3 + val) % 5, 4)


def test_view_validation():
    inst = _two_var_instance()
    with pytest.raises(ValueError, match="coordinates"):
        UnivariateView(inst, (1,), 1)  # too short
    with pytest.raises(ValueError, match="coordinates"):
        univariate_oracle_view(inst, (1, 2, 3), 1)  # too long
    for free in (-1, 2):
        with pytest.raises(ValueError, match="free variable"):
            UnivariateView(inst, (1, 2), free)
    for bad in (5, -1, True):
        with pytest.raises(ValueError, match="not an element"):
            UnivariateView(inst, (bad, 0), 1)


def test_view_verification_accepts_shifts_rejects_wrong():
    inst = _two_var_instance()
    view = univariate_oracle_view(inst, (3, 0), 1)
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
        if view.point != (0, 1):
            return good
        coeffs = list(good.coeffs) + [0] * (3 - len(good.coeffs))
        coeffs[2] = F7.add(coeffs[2], 1)
        return UniPoly(F7, tuple(coeffs))

    with pytest.raises(RecoveryError, match="inconsistent"):
        solve_multivariate(inst, skewed)


def test_univariate_recovery_needs_no_slice_points():
    # with one variable there is no split, so d <= n is no obstacle
    ctx = make_field(3)
    q = multi_poly(ctx, 1, {(1,): 2, (2,): 1})
    inst = make_instance(ctx, q, 3, seed="uni")
    with pytest.raises(ValueError):
        slice_points(ctx, 3)
    assert solve_multivariate(inst, perfect_solver) == q


def test_lagrange_basis_is_built_once_per_recovery(monkeypatch):
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


def test_retry_amplification_with_faulty_solver(monkeypatch):
    # per-solve failure rate p^reps; verification always catches a corrupt
    # candidate because n + 3 distinct sample points exceed the degree bound
    monkeypatch.setattr(hpp.reduction, "REPETITIONS", 4)
    failures = 0
    for trial in range(60):
        inst = sample_instance(F7, 2, 2, seed=f"amp:{trial}")
        solver = faulty_solver(0.3, random.Random(f"fault:{trial}"))
        stats = SolveStats()
        try:
            cand = solve_multivariate(inst, solver, stats=stats)
        except RecoveryError:
            failures += 1
            continue
        assert cand == inst.Q
        assert stats.univariate_solves - stats.retries == kappa(2, 2)
        assert stats.verify_failures == stats.retries
    assert failures <= 6, failures


def test_verification_failures_are_counted(monkeypatch):
    monkeypatch.setattr(hpp.reduction, "REPETITIONS", 3)
    inst = sample_instance(F5, 1, 2, seed="count")

    def stubborn(view):
        good = perfect_solver(view)
        return UniPoly(view.ctx, (0, F5.add(good.coeff(1), 1), good.coeff(2)))

    stats = SolveStats()
    with pytest.raises(RecoveryError):
        solve_multivariate(inst, stubborn, stats=stats)
    assert stats.univariate_solves == 3
    assert stats.retries == 2
    assert stats.verify_failures == 3


def test_solver_exceptions_trigger_retries(monkeypatch):
    monkeypatch.setattr(hpp.reduction, "REPETITIONS", 5)
    inst = sample_instance(F5, 1, 2, seed="raise")
    calls = []

    def flaky(view):
        calls.append(1)
        if len(calls) < 3:
            raise RecoveryError("sampler starved")
        return perfect_solver(view)

    stats = SolveStats()
    cand = solve_multivariate(inst, flaky, stats=stats)
    assert cand == inst.Q
    assert stats.retries == 2


def test_nonzero_constant_term_is_a_contract_violation():
    inst = sample_instance(F5, 1, 2, seed="const")

    def bad(view):
        return UniPoly(view.ctx, (1, *view.effective_coeffs()))

    with pytest.raises(ValueError, match="constant term"):
        solve_multivariate(inst, bad)


def test_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(hpp.reduction, "REPETITIONS", 2)
    inst = sample_instance(F5, 2, 2, seed="exhaust")

    def hopeless(view):
        raise RecoveryError("no luck")

    with pytest.raises(RecoveryError):
        solve_multivariate(inst, hopeless)


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
