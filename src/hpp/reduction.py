"""Reduction of multivariate identification to univariate solves.

An m-variate hidden polynomial of total degree <= n is recovered from
kappa(n, m) = 1 + n + n^2 + ... + n^(m-1) univariate identifications.  One
solve pins the coefficient polynomial of the last variable along the origin
slice (all other variables zero); with one variable that solve is the whole
problem.  Otherwise n more slices at distinct nonzero points t_1..t_n reduce
to (m-1)-variate problems whose solutions evaluate every remaining
coefficient polynomial Q_alpha at the t_j.  Interpolation is
polynomial-valued: each slice's {alpha: coeff} map is weighted by its
Lagrange basis polynomial L_j over t_1..t_n, built once per recovery, and
the weighted maps are summed, which reconstructs every Q_alpha in one pass.
Each weighted term is one wide antilog (gf.FieldCtx._wide) and each
coefficient's sum is reduced once.
The degree bound deg Q_alpha <= n - |alpha| becomes "no term above total
degree n", and the assembled terms make a single MultiPoly.

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

import random
from dataclasses import dataclass
from functools import cached_property

from .blackbox import HiddenInstance, verify_candidate
from .errors import GuardExceededError, InvariantViolationError, RecoveryError
from .gf import Felt, FieldCtx
from .polyring import MultiPoly, UniPoly, _lagrange_basis, _restrict, eval_uni, multi_poly

# Schedule guards: the recursion, and the plan JSON nested under it, go m
# levels deep inside Python's recursion limit; a plan of 10^4 solves is
# already about 20 MB of JSON.
MAX_ARITY = 100
MAX_SOLVES = 10**4
# Attempts one univariate solve gets before the recovery fails.
REPETITIONS = 3


def kappa(n: int, m: int) -> int:
    """Number of univariate solves: 1 + n + ... + n^(m-1).  Raises
    GuardExceededError past MAX_ARITY variables or MAX_SOLVES solves."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n = {n}, m = {m}")
    if m > MAX_ARITY:
        raise GuardExceededError(f"m = {m} exceeds the cap of {MAX_ARITY} variables")
    total = 0
    power = 1
    for _ in range(m):
        total += power
        if total > MAX_SOLVES:
            raise GuardExceededError(
                f"kappa(n = {n}, m = {m}) exceeds the budget of {MAX_SOLVES} univariate solves"
            )
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

    The subproblem is a point of F^m and the position of its free
    variable; any element may stand at that position, and the view never
    reads it.  Verification
    queries go to the parent at the lifted point (so query counting stays
    exact).  The view's effective hidden polynomial is the restriction of
    the parent's Q; effective_coeffs() exposes its non-constant
    coefficients and is a simulation/debug hook, not something a real
    solver could call.  The restriction is computed from Q's terms once per
    view, on first use, and every retry on the view reuses it; reading it
    is not an oracle call, so query_count is untouched.
    """

    def __init__(self, inst: HiddenInstance, point: tuple[Felt, ...], free: int):
        self.point = inst.ctx.check_point(point, inst.m)
        if not 0 <= free < inst.m:
            raise ValueError(f"free variable {free} is not in [0, {inst.m})")
        self.inst = inst
        self.free = free
        self.ctx = inst.ctx
        self.n = inst.n
        self._head, self._tail = self.point[:free], self.point[free + 1 :]

    def effective_coeffs(self) -> tuple[Felt, ...]:
        return self._coeffs

    @cached_property
    def _coeffs(self) -> tuple[Felt, ...]:
        coeffs = _restrict(self.inst.Q, self.point, self.free) + [0] * self.n
        return tuple(coeffs[1 : self.n + 1])

    def verify_candidate(self, cand: UniPoly, trials: int, rng) -> bool:
        """All-equal graph test through the view; constant offsets pass.
        Each trial is one parent query at the lifted point, built inline."""
        if trials < 2:
            raise ValueError(f"verification needs at least 2 trials, got {trials}")
        if cand.ctx != self.ctx:
            raise ValueError("the candidate and the view are over different fields")
        trials = min(trials, self.ctx.d)
        points = rng.sample(range(self.ctx.d), trials)
        head, tail, query = self._head, self._tail, self.inst.query
        values = {query(head + (r,) + tail, eval_uni(cand, r)) for r in points}
        return len(values) == 1


def univariate_oracle_view(
    inst: HiddenInstance, point: tuple[Felt, ...], free: int
) -> UnivariateView:
    return UnivariateView(inst, point, free)


@dataclass
class SolveStats:
    """Accounting for one multivariate recovery."""

    univariate_solves: int = 0
    retries: int = 0
    verify_failures: int = 0


def solve_multivariate(
    inst: HiddenInstance,
    uni_solver,
    rng: random.Random | None = None,
    stats: SolveStats | None = None,
) -> MultiPoly:
    """Recover the hidden polynomial through kappa(n, m) univariate solves.

    uni_solver(view) -> UniPoly performs one identification attempt against a
    restricted oracle; this driver verifies each attempt with min(n + 3, d)
    queries (UnivariateView.verify_candidate caps its trials at d) and
    retries up to REPETITIONS times, then verifies the assembled polynomial
    against the full instance with min(n + 3, d^m) queries.  Raises
    RecoveryError when the budget runs out rather than returning an
    unverified answer.  Pass a SolveStats to collect retry accounting.
    kappa's guards run first.
    """
    if rng is None:
        rng = random.Random(f"hpp-reduction:{inst.seed}")
    if stats is None:
        stats = SolveStats()
    ctx, n = inst.ctx, inst.n
    solves = kappa(n, inst.m)
    trials = n + 3

    def solve_univariate(point: tuple[Felt, ...], free: int) -> UniPoly:
        view = univariate_oracle_view(inst, point, free)
        last_error = None
        for attempt in range(REPETITIONS):
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
            if view.verify_candidate(cand, trials, rng):
                return cand
            stats.verify_failures += 1
        raise RecoveryError(
            f"univariate solve failed {REPETITIONS} times at point={point}, free={free}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    # (t, (i, log of the nonzero coefficient of X^i in L_t) pairs), built at
    # the first split.  Each term of Q_alpha sums at most n slice products
    # and the origin coefficient, all as wide antilogs.
    slices: list[tuple[Felt, list[tuple[int, int]]]] = []
    ctx._check_wide(n + 1)
    log, wide, order = ctx._log_lists[0], ctx._wide, ctx.d - 1

    def solve_recursive(suffix: tuple[Felt, ...]) -> dict[tuple[int, ...], Felt]:
        """Non-constant terms of Q restricted by fixing its trailing
        variables to suffix."""
        last = inst.m - len(suffix) - 1  # position of the variable this level works on
        # Origin slice: all earlier variables pinned to zero leaves a univariate
        # problem in the last variable, giving the alpha = 0 coefficient polynomial.
        origin = solve_univariate((0,) * (last + 1) + suffix, last)
        terms = {(0,) * last + (i,): c for i, c in enumerate(origin.coeffs) if i and c}
        if last:
            # Slices at n nonzero points drop to arity-1 subproblems; weighting
            # each one's terms by its L_t interpolates every Q_alpha at once.
            if not slices:
                ts = slice_points(ctx, n)
                for t, basis in zip(ts, _lagrange_basis(ctx, ts)):
                    slices.append((t, [(i, log[b]) for i, b in enumerate(basis) if b]))
            sums = {key: wide[log[c]] for key, c in terms.items()}
            for t, basis in slices:
                for alpha, c in solve_recursive((t, *suffix)).items():
                    lc = log[c]
                    for i, lb in basis:
                        key = alpha + (i,)
                        sums[key] = sums.get(key, 0) + wide[(lc + lb) % order]
            terms = {alpha: c for alpha, s in sums.items() if (c := ctx._narrow(s))}
        # deg Q_alpha <= n - |alpha|: a sub-solve that slipped past
        # verification shows up as a term above total degree n.
        high = sorted(alpha for alpha in terms if sum(alpha) > n)
        if high:
            raise RecoveryError(f"inconsistent slice data: {high} exceed total degree {n}")
        return terms

    before = stats.univariate_solves - stats.retries
    result = multi_poly(ctx, inst.m, solve_recursive(()))
    # Every univariate subproblem is solved once plus its retries; stats may
    # carry counts from earlier calls.
    first_tries = stats.univariate_solves - stats.retries - before
    if first_tries != solves:
        raise InvariantViolationError(
            f"recovery solved {first_tries} univariate subproblems, expected "
            f"kappa = {solves}"
        )
    if not verify_candidate(inst, result, trials=trials, rng=rng):
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


def _plan_node(ctx: FieldCtx, n: int, arity: int, suffix: tuple[Felt, ...]) -> dict:
    last = arity - 1
    point = (0,) * arity + suffix
    origin = {
        "kind": "univariate",
        "free_variable": arity,
        "fixed": {str(k + 1): v for k, v in enumerate(point) if k != last},
        "solves": f"coefficient polynomial of X{arity} along the origin slice"
        if last
        else "non-constant coefficients of the restricted polynomial",
    }
    if not last:
        return origin
    branches = [
        {
            "slice_point": t,
            "subplan": _plan_node(ctx, n, last, (t, *suffix)),
        }
        for t in slice_points(ctx, n)
    ]
    return {
        "kind": "split",
        "variable": arity,
        "origin": origin,
        "branches": branches,
        "interpolation_degree_bounds": {
            "|alpha| = k": "n - k, for 1 <= k <= n"
        },
    }


def build_plan(ctx: FieldCtx, n: int, m: int) -> dict:
    """Static solve schedule for (n, m) as {"n", "m", "kappa", "tree"}: a tree
    whose leaves are the univariate subproblems, each recording its fixed
    assignment and target."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if ctx.d <= n:
        raise ValueError(f"need more than n = {n} field elements, got d = {ctx.d}")
    solves = kappa(n, m)  # checks both guards before the recursion
    return {"n": n, "m": m, "kappa": solves, "tree": _plan_node(ctx, n, m, ())}
