"""Reduction of multivariate identification to univariate solves.

An m-variate hidden polynomial of total degree <= n is recovered from
kappa(n, m) = 1 + n + n^2 + ... + n^(m-1) univariate identifications.  One
solve pins the coefficient polynomial of the last variable along the origin
slice (all other variables zero); n more slices at distinct nonzero points
t_1..t_n reduce to (m-1)-variate problems whose solutions evaluate every
remaining coefficient polynomial Q_alpha at the t_j, after which Lagrange
interpolation under the degree bound n - |alpha| reconstructs each one.

Restricting the oracle shifts the hidden polynomial by a constant (the value
of the discarded terms at the fixed point).  That constant is invisible to
the identification machinery by design: the oracle's own randomization
absorbs constant offsets, and candidate verification tests "constant
difference", not equality, so sub-solves return the non-constant part and
the recursion never needs the lost constants.

Each univariate solve is verified against its own restricted oracle and
retried up to a repetition budget, which drives the failure rate of an
unreliable solver down exponentially.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .blackbox import HiddenInstance
from .errors import InvariantViolationError, RecoveryError
from .gf import Felt, FieldCtx
from .polyring import (
    MultiPoly,
    UniPoly,
    eval_uni,
    from_unipoly,
    lagrange_interpolate,
    multi_poly,
    substitute,
    to_unipoly,
)


def kappa(n: int, m: int) -> int:
    """Number of univariate solves: 1 + n + ... + n^(m-1)."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n = {n}, m = {m}")
    total = 0
    power = 1
    for _ in range(m):
        total += power
        power *= n
    return total


def slice_points(ctx: FieldCtx, n: int) -> tuple[Felt, ...]:
    """The n distinct nonzero slice locations: deterministic enumeration order.

    Zero is skipped because the origin slice already has its own dedicated
    solve; keeping the two schedules disjoint makes plans easier to audit.
    """
    if ctx.d <= n:
        raise ValueError(f"need more than n = {n} field elements, got d = {ctx.d}")
    return tuple(range(1, n + 1))


class UnivariateView:
    """Oracle adapter that fixes all but one variable of an instance.

    Classical queries pass through to the parent (so query counting stays
    exact).  The view's effective hidden polynomial is the restriction of the
    parent's Q; effective_coeffs() exposes its non-constant coefficients and
    is a simulation/debug hook, not something a real solver could call.
    """

    def __init__(self, inst: HiddenInstance, fixed: dict[int, Felt], free: int):
        if free in fixed:
            raise ValueError(f"variable {free} is both free and fixed")
        expected = set(range(inst.m)) - {free}
        if set(fixed) != expected:
            raise ValueError(
                f"fixed positions {sorted(fixed)} must cover exactly {sorted(expected)}"
            )
        for v in fixed.values():
            inst.ctx.check(v)
        self.inst = inst
        self.fixed = dict(fixed)
        self.free = free
        self.ctx = inst.ctx
        self.n = inst.n

    def _lift(self, r: Felt) -> tuple[Felt, ...]:
        point = [0] * self.inst.m
        for pos, val in self.fixed.items():
            point[pos] = val
        point[self.free] = r
        return tuple(point)

    def query(self, r: Felt, s: Felt) -> Felt:
        return self.inst.query(self._lift(r), s)

    def effective_coeffs(self) -> tuple[Felt, ...]:
        restricted = (
            substitute(self.inst.Q, self.fixed) if self.fixed else self.inst.Q
        )
        uni = to_unipoly(restricted)
        return tuple(uni.coeff(i) for i in range(1, self.n + 1))

    def verify_candidate(self, cand: UniPoly, trials: int, rng) -> bool:
        """All-equal graph test through the view; constant offsets pass."""
        if trials < 2:
            raise ValueError(f"verification needs at least 2 trials, got {trials}")
        trials = min(trials, self.ctx.d)
        points = rng.sample(range(self.ctx.d), trials)
        values = {self.query(r, eval_uni(cand, r)) for r in points}
        return len(values) == 1


def univariate_oracle_view(
    inst: HiddenInstance, fixed: dict[int, Felt], free: int | None = None
) -> UnivariateView:
    if free is None:
        missing = [i for i in range(inst.m) if i not in fixed]
        if len(missing) != 1:
            raise ValueError(
                f"fixed assignment must leave exactly one variable free, leaves {missing}"
            )
        free = missing[0]
    return UnivariateView(inst, fixed, free)


@dataclass
class SolveStats:
    """Accounting for one multivariate recovery."""

    univariate_solves: int = 0
    retries: int = 0
    verify_failures: int = 0


def _solve_univariate(
    inst: HiddenInstance,
    fixed: dict[int, Felt],
    free: int,
    uni_solver,
    repetitions: int,
    verify_trials: int,
    rng: random.Random,
    stats: SolveStats,
) -> UniPoly:
    view = univariate_oracle_view(inst, fixed, free)
    last_error = None
    for attempt in range(repetitions):
        if attempt:
            stats.retries += 1
        stats.univariate_solves += 1
        try:
            cand = uni_solver(view)
        except RecoveryError as exc:
            last_error = exc
            continue
        if cand.constant_term() != 0:
            raise ValueError("univariate solvers must return zero constant term")
        if view.verify_candidate(cand, verify_trials, rng):
            return cand
        stats.verify_failures += 1
    raise RecoveryError(
        f"univariate solve failed {repetitions} times at fixed={fixed}, free={free}"
        + (f" (last error: {last_error})" if last_error else "")
    )


def _solve_recursive(
    inst: HiddenInstance,
    suffix: dict[int, Felt],
    uni_solver,
    repetitions: int,
    verify_trials: int,
    rng: random.Random,
    stats: SolveStats,
) -> MultiPoly:
    """Recover the non-constant part of Q restricted by the suffix assignment."""
    ctx = inst.ctx
    n = inst.n
    arity = inst.m - len(suffix)
    if arity == 1:
        uni = _solve_univariate(
            inst, suffix, 0, uni_solver, repetitions, verify_trials, rng, stats
        )
        return from_unipoly(uni, degree_bound=n)

    last = arity - 1  # position of the variable this level works on

    # Origin slice: all earlier variables pinned to zero leaves a univariate
    # problem in the last variable, giving the alpha = 0 coefficient polynomial.
    origin_fixed = {**suffix, **{i: 0 for i in range(last)}}
    origin = _solve_univariate(
        inst, origin_fixed, last, uni_solver, repetitions, verify_trials, rng, stats
    )

    # Slices at n distinct nonzero points drop to arity-1 subproblems.
    ts = slice_points(ctx, n)
    subs = [
        _solve_recursive(
            inst, {**suffix, last: t}, uni_solver, repetitions, verify_trials, rng, stats
        )
        for t in ts
    ]

    terms: dict[tuple[int, ...], Felt] = {}
    for i, c in enumerate(origin.coeffs):
        if i and c:
            terms[(0,) * last + (i,)] = c
    alphas = sorted({a for sub in subs for a, _ in sub.terms})
    for alpha in alphas:
        points = [(t, sub.coeff(alpha)) for t, sub in zip(ts, subs)]
        try:
            coeff_poly = lagrange_interpolate(ctx, points, n - sum(alpha))
        except ValueError as exc:
            # A sub-solve that slipped past verification poisons interpolation.
            raise RecoveryError(f"inconsistent slice data at alpha={alpha}: {exc}")
        for i, c in enumerate(coeff_poly.coeffs):
            if c:
                terms[alpha + (i,)] = c
    return multi_poly(ctx, arity, terms, degree_bound=n)


def solve_multivariate(
    inst: HiddenInstance,
    uni_solver,
    repetitions: int = 3,
    verify_trials: int | None = None,
    rng: random.Random | None = None,
    stats: SolveStats | None = None,
) -> MultiPoly:
    """Recover the hidden polynomial through kappa(n, m) univariate solves.

    uni_solver(view) -> UniPoly performs one identification attempt against a
    restricted oracle; this driver verifies each attempt and retries up to
    `repetitions` times, then verifies the assembled polynomial against the
    full instance.  Raises RecoveryError when the budget runs out rather
    than returning an unverified answer.  Pass a SolveStats to collect
    retry accounting.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if verify_trials is None:
        verify_trials = inst.n + 3
    if rng is None:
        rng = random.Random(f"hpp-reduction:{inst.seed}")
    if stats is None:
        stats = SolveStats()
    before = stats.univariate_solves - stats.retries
    result = _solve_recursive(
        inst, {}, uni_solver, repetitions, verify_trials, rng, stats
    )
    # Every univariate subproblem is solved once plus its retries; stats may
    # carry counts from earlier calls.
    first_tries = stats.univariate_solves - stats.retries - before
    if first_tries != kappa(inst.n, inst.m):
        raise InvariantViolationError(
            f"recovery solved {first_tries} univariate subproblems, expected "
            f"kappa = {kappa(inst.n, inst.m)}"
        )
    if not inst.verify_candidate(result, trials=verify_trials, rng=rng):
        raise RecoveryError("assembled polynomial failed full-instance verification")
    return result


def perfect_solver(view: UnivariateView) -> UniPoly:
    """Reads the restricted polynomial via the debug hook; for tests and demos."""
    return UniPoly(view.ctx, (0, *view.effective_coeffs()))


def faulty_solver(error_rate: float, rng: random.Random):
    """Wraps the perfect solver with seeded corruption; for amplification tests."""

    def solver(view: UnivariateView) -> UniPoly:
        good = perfect_solver(view)
        if rng.random() < error_rate:
            coeffs = list(good.coeffs) + [0] * (view.n + 1 - len(good.coeffs))
            pos = rng.randrange(1, view.n + 1)
            coeffs[pos] = (coeffs[pos] + 1 + rng.randrange(view.ctx.d - 1)) % view.ctx.d
            return UniPoly(view.ctx, tuple(coeffs))
        return good

    return solver


# -- static schedule ------------------------------------------------------------


@dataclass(frozen=True)
class ReductionPlan:
    """Static solve schedule for (n, m): a tree whose leaves are the
    univariate subproblems, each recording its fixed assignment and target."""

    n: int
    m: int
    kappa: int
    tree: dict = field(compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "m": self.m, "kappa": self.kappa, "tree": self.tree},
            sort_keys=True,
            indent=2,
        )


def _plan_node(ctx: FieldCtx, n: int, arity: int, suffix: dict[int, Felt]) -> dict:
    if arity == 1:
        return {
            "kind": "univariate",
            "free_variable": 1,
            "fixed": {str(k + 1): v for k, v in sorted(suffix.items())},
            "solves": "non-constant coefficients of the restricted polynomial",
        }
    last = arity - 1
    origin = {
        "kind": "univariate",
        "free_variable": last + 1,
        "fixed": {
            str(k + 1): v
            for k, v in sorted({**suffix, **{i: 0 for i in range(last)}}.items())
        },
        "solves": f"coefficient polynomial of X{last + 1} along the origin slice",
    }
    branches = [
        {
            "slice_point": t,
            "subplan": _plan_node(ctx, n, arity - 1, {**suffix, last: t}),
        }
        for t in slice_points(ctx, n)
    ]
    return {
        "kind": "split",
        "variable": last + 1,
        "origin": origin,
        "branches": branches,
        "interpolation_degree_bounds": {
            "|alpha| = k": "n - k, for 1 <= k <= n"
        },
    }


def build_plan(ctx: FieldCtx, n: int, m: int) -> ReductionPlan:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    tree = _plan_node(ctx, n, m, {})
    return ReductionPlan(n=n, m=m, kappa=kappa(n, m), tree=tree)


def count_plan_leaves(tree: dict) -> int:
    if tree["kind"] == "univariate":
        return 1
    return 1 + sum(count_plan_leaves(b["subplan"]) for b in tree["branches"])
