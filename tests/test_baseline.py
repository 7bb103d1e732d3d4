import random

import pytest

from hpp.baseline import (
    BaselineStats,
    scaling_experiment,
    solve_linear_classical,
)
from hpp.blackbox import sample_instance
from hpp.errors import InvariantViolationError, RecoveryError
from hpp.gf import make_field


@pytest.mark.parametrize("d", [11, 31, 101])
def test_collision_search_recovers_the_slope(d):
    ctx = make_field(d)
    for trial in range(10):
        inst = sample_instance(ctx, 1, 1, seed=f"base:{d}:{trial}")
        result = solve_linear_classical(inst)
        assert result.verified
        assert result.candidate.coeff(1) == inst.Q.coeff((1,))
        assert result.candidate.coeff(0) == 0
        assert 2 <= result.queries <= d + 1


def test_default_budget_never_fails():
    # pigeonhole: d + 1 distinct queries guarantee a value collision
    ctx = make_field(7)
    for trial in range(40):
        inst = sample_instance(ctx, 1, 1, seed=f"pigeon:{trial}")
        result = solve_linear_classical(inst)
        assert result.queries <= 8


def test_collision_with_equal_r_is_an_invariant_violation():
    # A stub oracle whose value depends on r alone: its first collision
    # joins two queries at one r, which a real permuted oracle never does.
    class SameValuePerR:
        ctx = make_field(7)
        m = n = 1
        seed = "stub"
        query_count = 0

        def query(self, r, s):
            self.query_count += 1
            return r[0]

    with pytest.raises(InvariantViolationError):
        solve_linear_classical(SameValuePerR(), rng=random.Random(0))


def test_search_is_deterministic_given_seeds():
    ctx = make_field(101)
    a = solve_linear_classical(sample_instance(ctx, 1, 1, seed="det"))
    b = solve_linear_classical(sample_instance(ctx, 1, 1, seed="det"))
    assert a == b
    c = solve_linear_classical(
        sample_instance(ctx, 1, 1, seed="det"), rng=random.Random(99)
    )
    assert c.candidate == a.candidate  # same instance, any rng, same slope


def test_query_accounting_excludes_verification():
    ctx = make_field(31)
    inst = sample_instance(ctx, 1, 1, seed="acct")
    result = solve_linear_classical(inst)
    # search queries + 4 verification trials land on the instance counter
    assert inst.query_count == result.queries + 4


def test_tight_budget_raises():
    ctx = make_field(1009)
    inst = sample_instance(ctx, 1, 1, seed="tight")
    with pytest.raises(RecoveryError):
        solve_linear_classical(inst, rng=random.Random(0), max_queries=2)


def test_budget_bounds_and_shape_validation():
    ctx = make_field(11)
    inst = sample_instance(ctx, 1, 1, seed="bounds")
    with pytest.raises(ValueError):
        solve_linear_classical(inst, max_queries=1)
    with pytest.raises(ValueError):
        solve_linear_classical(inst, max_queries=122)
    with pytest.raises(ValueError):
        solve_linear_classical(sample_instance(ctx, 2, 1, seed="x"))
    with pytest.raises(ValueError):
        solve_linear_classical(sample_instance(make_field(5), 1, 2, seed="x"))


def test_stats_summaries():
    s = BaselineStats(d=11, trials=4, queries=(3, 5, 4, 10),
                      verified=(True, True, False, True))
    assert s.success_rate == 0.75
    assert s.median_queries == 4.5


def test_scaling_experiment_validation():
    with pytest.raises(ValueError):
        scaling_experiment(ds=(11, 31, 101), trials=10)
    with pytest.raises(ValueError):
        scaling_experiment(ds=(11, 31), trials=30)
    with pytest.raises(ValueError):
        scaling_experiment(ds=(5, 7, 7), trials=30)


def test_scaling_experiment_small_run():
    stats, fit = scaling_experiment(ds=(31, 101, 307), trials=30, seed=1)
    assert [s.d for s in stats] == [31, 101, 307]
    assert all(s.success_rate == 1.0 for s in stats)
    # medians must grow with d and the exponent should sit near 1/2,
    # loosely bounded here because the sizes are small
    meds = [s.median_queries for s in stats]
    assert meds[0] < meds[1] < meds[2]
    assert 0.3 < fit.exponent < 0.7
    lo, hi = fit.ci95
    assert lo < fit.exponent < hi
