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
from .errors import InvariantViolationError, RecoveryError
from .gf import Felt, FieldCtx
from .polyring import MultiPoly, UniPoly, _lagrange_basis, _restrict, eval_uni, multi_poly


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
    is a simulation/debug hook, not something a real solver could call.  The
    restriction is computed from Q's terms once per view, on first use, and
    every retry on the view reuses it; reading it is not an oracle call, so
    query_count is untouched.
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
        point = tuple(fixed.get(i, 0) for i in range(inst.m))
        self._head, self._tail = point[:free], point[free + 1 :]

    def _lift(self, r: Felt) -> tuple[Felt, ...]:
        return self._head + (r,) + self._tail

    def query(self, r: Felt, s: Felt) -> Felt:
        return self.inst.query(self._lift(r), s)

    def effective_coeffs(self) -> tuple[Felt, ...]:
        return self._coeffs

    @cached_property
    def _coeffs(self) -> tuple[Felt, ...]:
        coeffs = _restrict(self.inst.Q, self._lift(0), self.free) + [0] * self.n
        return tuple(coeffs[1 : self.n + 1])

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


def solve_multivariate(
    inst: HiddenInstance,
    uni_solver,
    repetitions: int = 3,
    rng: random.Random | None = None,
    stats: SolveStats | None = None,
) -> MultiPoly:
    """Recover the hidden polynomial through kappa(n, m) univariate solves.

    uni_solver(view) -> UniPoly performs one identification attempt against a
    restricted oracle; this driver verifies each attempt with n + 3 queries
    and retries up to `repetitions` times, then verifies the assembled
    polynomial against the full instance.  Raises RecoveryError when the
    budget runs out rather than returning an unverified answer.  Pass a
    SolveStats to collect retry accounting.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if rng is None:
        rng = random.Random(f"hpp-reduction:{inst.seed}")
    if stats is None:
        stats = SolveStats()
    ctx, n = inst.ctx, inst.n
    trials = n + 3

    def solve_univariate(fixed: dict[int, Felt], free: int) -> UniPoly:
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
            if view.verify_candidate(cand, trials, rng):
                return cand
            stats.verify_failures += 1
        raise RecoveryError(
            f"univariate solve failed {repetitions} times at fixed={fixed}, free={free}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    slices: list[tuple[Felt, list[Felt]]] = []  # (t, L_t), built at the first split

    def solve_recursive(suffix: dict[int, Felt]) -> dict[tuple[int, ...], Felt]:
        """Non-constant terms of Q restricted by the suffix assignment."""
        last = inst.m - len(suffix) - 1  # position of the variable this level works on
        # Origin slice: all earlier variables pinned to zero leaves a univariate
        # problem in the last variable, giving the alpha = 0 coefficient polynomial.
        origin = solve_univariate({**suffix, **{i: 0 for i in range(last)}}, last)
        terms = {(0,) * last + (i,): c for i, c in enumerate(origin.coeffs) if i and c}
        if last:
            # Slices at n nonzero points drop to arity-1 subproblems; weighting
            # each one's terms by its L_t interpolates every Q_alpha at once.
            if not slices:
                ts = slice_points(ctx, n)
                slices.extend(zip(ts, _lagrange_basis(ctx, ts)))
            for t, basis in slices:
                for alpha, c in solve_recursive({**suffix, last: t}).items():
                    for i, b in enumerate(basis):
                        key = alpha + (i,)
                        terms[key] = ctx.add(terms.get(key, 0), ctx.mul(c, b))
            terms = {alpha: c for alpha, c in terms.items() if c}
        # deg Q_alpha <= n - |alpha|: a sub-solve that slipped past
        # verification shows up as a term above total degree n.
        high = sorted(alpha for alpha in terms if sum(alpha) > n)
        if high:
            raise RecoveryError(f"inconsistent slice data: {high} exceed total degree {n}")
        return terms

    before = stats.univariate_solves - stats.retries
    result = multi_poly(ctx, inst.m, solve_recursive({}), degree_bound=n)
    # Every univariate subproblem is solved once plus its retries; stats may
    # carry counts from earlier calls.
    first_tries = stats.univariate_solves - stats.retries - before
    if first_tries != kappa(inst.n, inst.m):
        raise InvariantViolationError(
            f"recovery solved {first_tries} univariate subproblems, expected "
            f"kappa = {kappa(inst.n, inst.m)}"
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


def _plan_node(ctx: FieldCtx, n: int, arity: int, suffix: dict[int, Felt]) -> dict:
    last = arity - 1
    fixed = {**suffix, **{i: 0 for i in range(last)}}
    origin = {
        "kind": "univariate",
        "free_variable": arity,
        "fixed": {str(k + 1): v for k, v in sorted(fixed.items())},
        "solves": f"coefficient polynomial of X{arity} along the origin slice"
        if last
        else "non-constant coefficients of the restricted polynomial",
    }
    if not last:
        return origin
    branches = [
        {
            "slice_point": t,
            "subplan": _plan_node(ctx, n, last, {**suffix, last: t}),
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
    return {"n": n, "m": m, "kappa": kappa(n, m), "tree": _plan_node(ctx, n, m, {})}
