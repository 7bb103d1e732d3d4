"""Classical baseline for the linear case: collision search on oracle values.

For n = 1 the oracle returns pi(s - q*r), so two distinct queries share a
value exactly when s - q*r does, and any such collision solves for the slope:
q = (s - s') / (r - r').  Same-r collisions cannot occur among distinct query
pairs (equal r and equal value force equal s).  Sampling pairs uniformly
without replacement makes the first repeat a birthday event, so the query
cost grows like sqrt(d); scaling_experiment measures that exponent.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

import numpy as np

from .blackbox import HiddenInstance, sample_instance, verify_candidate
from .errors import InvariantViolationError, RecoveryError
from .gf import make_field
from .polyring import UniPoly, multi_poly


@dataclass(frozen=True)
class BaselineResult:
    candidate: UniPoly
    queries: int  # oracle calls spent on the search, verification excluded
    verified: bool


def solve_linear_classical(
    inst: HiddenInstance,
    rng: random.Random | None = None,
    max_queries: int | None = None,
) -> BaselineResult:
    """Recover a degree-1 hidden polynomial from an oracle-value collision.

    d + 1 distinct queries force a repeat by pigeonhole, so the default
    budget never fails; tighter budgets raise RecoveryError on exhaustion.
    """
    if inst.n != 1 or inst.m != 1:
        raise ValueError(
            f"collision baseline handles m = n = 1 only, got m = {inst.m}, n = {inst.n}"
        )
    ctx = inst.ctx
    d = ctx.d
    if max_queries is None:
        max_queries = d + 1
    if not 2 <= max_queries <= d * d:
        raise ValueError(f"max_queries must be in [2, {d * d}], got {max_queries}")
    if rng is None:
        rng = random.Random(f"hpp-baseline:{inst.seed}:{inst.query_count}")

    seen: set[tuple[int, int]] = set()
    first_by_value: dict[int, tuple[int, int]] = {}
    start = inst.query_count
    for _ in range(max_queries):
        while True:
            pair = (rng.randrange(d), rng.randrange(d))
            if pair not in seen:
                seen.add(pair)
                break
        r, s = pair
        v = inst.query((r,), s)
        if v in first_by_value:
            r0, s0 = first_by_value[v]
            if r0 == r:
                raise InvariantViolationError(
                    f"oracle gave the value {v} to distinct pairs {(r0, s0)} and {pair} "
                    "with equal r"
                )
            slope = ctx.div(ctx.sub(s, s0), ctx.sub(r, r0))
            queries = inst.query_count - start
            cand = UniPoly(ctx, (0, slope))
            line = multi_poly(ctx, 1, {(1,): slope})
            ok = verify_candidate(inst, line, trials=4)
            return BaselineResult(candidate=cand, queries=queries, verified=ok)
        first_by_value[v] = pair
    raise RecoveryError(f"no value collision within {max_queries} queries")


@dataclass(frozen=True)
class BaselineStats:
    """Per-field-size summary of the collision search cost."""

    d: int
    trials: int
    queries: tuple[int, ...]
    verified: tuple[bool, ...]

    @property
    def success_rate(self) -> float:
        return sum(self.verified) / self.trials

    @property
    def median_queries(self) -> float:
        return float(statistics.median(self.queries))


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log(median queries) against log(d)."""

    exponent: float
    intercept: float
    stderr: float

    @property
    def ci95(self) -> tuple[float, float]:
        # normal-approximation interval; few points, so indicative only
        return (self.exponent - 1.96 * self.stderr, self.exponent + 1.96 * self.stderr)


DEFAULT_SIZES = (101, 401, 1009, 4001)


def scaling_experiment(
    ds: tuple[int, ...] = DEFAULT_SIZES,
    trials: int = 50,
    seed: int = 0,
    max_queries: int | None = None,
) -> tuple[list[BaselineStats], ScalingFit]:
    """Measure median collision cost across field sizes and fit the exponent.

    Query counts are taken before verification so the verification overhead
    (a constant) cannot contaminate the scaling.  Medians are robust to the
    long upper tail of the collision-time distribution.
    """
    if trials < 30:
        raise ValueError(f"need at least 30 trials per size for a stable median, got {trials}")
    if len(ds) < 3:
        raise ValueError(f"need at least 3 field sizes to fit a slope, got {len(ds)}")
    if len(set(ds)) != len(ds):
        raise ValueError(f"field sizes must be distinct, got {','.join(map(str, ds))}")
    per_size: list[BaselineStats] = []
    for d in ds:
        ctx = make_field(d)
        queries = []
        verified = []
        for t in range(trials):
            inst = sample_instance(ctx, m=1, n=1, seed=f"baseline:{seed}:{d}:{t}")
            rng = random.Random(f"hpp-baseline-run:{seed}:{d}:{t}")
            result = solve_linear_classical(inst, rng=rng, max_queries=max_queries)
            queries.append(result.queries)
            verified.append(result.verified)
        per_size.append(
            BaselineStats(
                d=d, trials=trials, queries=tuple(queries), verified=tuple(verified)
            )
        )
    xs = np.log([s.d for s in per_size])
    ys = np.log([s.median_queries for s in per_size])
    (slope, intercept), cov = np.polyfit(xs, ys, 1, cov=True)
    fit = ScalingFit(
        exponent=float(slope), intercept=float(intercept), stderr=float(np.sqrt(cov[0, 0]))
    )
    return per_size, fit
