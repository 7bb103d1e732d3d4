"""Success probabilities and outcome distributions of the square-root measurement.

Everything here is driven by fiber counts.  With k = n oracle copies, the
ideal measurement identifies the hidden coefficient vector q with probability

    (1/d^(3n)) * sum_x ( sum_w sqrt(eta_w^x) )^2,

and the implementable approximation restricts the outer sum to good x and the
inner sum to good w.  The conditional outcome distribution given a good x and
a passed good-subspace projection depends on q' only through delta = q - q',
with amplitude proportional to sum over good w of sqrt(eta_w^x) * chi(<delta, w>).
These closed forms let a plain classical loop sample measurement outcomes
exactly, with no state-vector simulation; the dense linear-algebra pipeline
exists separately as a cross-check at small d.

Scalar probability accumulations run through math.fsum (compensated
summation), keeping results stable to well below the 1e-9 test tolerances.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, product
from typing import Callable, Iterable, Mapping

import numpy as np

from .blackbox import HiddenInstance, sample_instance
from .errors import InvariantViolationError, RecoveryError
from .fibers import (
    Analysis,
    EtaTable,
    GoodSets,
    GoodSetSummary,
    Point,
    decode_point,
    good_sets,
    iter_eta_tables,
)
from .gf import FieldCtx, chi, dot, field_descriptor
from .polyring import UniPoly


class Branch(str, Enum):
    IDEAL = "ideal"
    GOOD = "good"
    BAD = "bad"


BAD_BRANCH = None  # sentinel returned by run_once when the run is discarded


def _sqrt_sum(etas: np.ndarray) -> float:
    return math.fsum(np.sqrt(etas).tolist())


def _success_sums(
    tables: Iterable[EtaTable], good: GoodSets | None
) -> tuple[float, float, list[int]]:
    """One pass over the tables of all d^n directions.

    Returns the ideal and the good-subspace success probabilities and
    |W_good^x| for each classified-good x; with good=None only the ideal
    value is meaningful.
    """
    ideal_terms = []
    approx_terms = []
    w_counts = []
    d = n = None
    for table in tables:
        d, n = table.d, table.n
        table.check_partition()
        inner = _sqrt_sum(table.counts)
        ideal_terms.append(inner * inner)
        if good is not None and good.x_good(table.x):
            mask = good.w_good(table.x, table.counts)
            inner = _sqrt_sum(table.counts[mask])
            approx_terms.append(inner * inner)
            w_counts.append(int(mask.sum()))
    if d is None or len(ideal_terms) != d**n:
        raise InvariantViolationError(
            f"success sums need a table for every x in F^n; saw {len(ideal_terms)}"
        )
    scale = d ** (3 * n)
    return math.fsum(ideal_terms) / scale, math.fsum(approx_terms) / scale, w_counts


def ideal_success(tables: Iterable[EtaTable]) -> float:
    """Exact identification probability of the ideal measurement, k = n."""
    return _success_sums(tables, None)[0]


def approx_success(tables: Iterable[EtaTable], good: GoodSets) -> float:
    """Identification probability of the good-subspace measurement, k = n."""
    return _success_sums(tables, good)[1]


def lemma2_bound(summary: GoodSetSummary) -> float:
    """Counting lower bound |X_good| * |W_good|^2 / d^(3n) with
    |W_good| = min over good x of |W_good^x|."""
    return (
        summary.x_good_count * summary.w_good_min**2 / summary.d ** (3 * summary.n)
    )


def corollary_bound(d: int, n: int, cap: int, curve_degree: int = 2) -> float:
    """Asymptotic form of the counting bound: roughly 1/cap^2 - O(1/d).

    (d-1)^n directions qualify; at least (d(d-1)...(d-n+1)/cap - curve_degree
    * d^(n-1)) targets survive per direction, where curve_degree bounds the
    locus of distinct-coordinate points sharing an image.  Clamped at zero
    for tiny d where the estimate goes negative.
    """
    falling = 1
    for i in range(n):
        falling *= d - i
    per_x = max(0.0, falling / cap - curve_degree * d ** (n - 1))
    return (d - 1) ** n * per_x**2 / d ** (3 * n)


@dataclass(frozen=True)
class OutcomeDist:
    """Distribution of the measured coefficient vector q' for one direction x.

    branch=IDEAL is the full measurement (good_mass 1); branch=GOOD
    conditions on passing the good-subspace projection, whose acceptance
    probability is good_mass.  probabilities is empty when the branch cannot
    be reached (bad x, or empty good target set).
    """

    x: Point
    branch: Branch
    good_mass: float
    probabilities: dict[Point, float]

    def check_normalized(self, tol: float = 1e-9) -> None:
        if not self.probabilities:
            return
        total = math.fsum(self.probabilities.values())
        if abs(total - 1.0) > tol:
            raise InvariantViolationError(
                f"outcome distribution for x={self.x} sums to {total}"
            )


def _delta_weights(table: EtaTable, good: GoodSets | None):
    """[(w, sqrt(eta))] over the participating targets plus the normalizer."""
    d, n = table.d, table.n
    counts = table.counts
    if good is None:
        mask = counts > 0
        norm = d**n * d**n
        mass = 1.0
    else:
        mask = good.w_good(table.x, counts)
        b_size = int(counts[mask].sum())
        norm = d**n * b_size
        mass = b_size / d**n
    codes = np.flatnonzero(mask)
    pairs = [
        (decode_point(code, d, n), math.sqrt(eta))
        for code, eta in zip(codes.tolist(), counts[codes].tolist())
    ]
    return pairs, norm, mass


@lru_cache(maxsize=256)
def _delta_distribution(table: EtaTable, good: GoodSets | None) -> tuple[tuple[float, ...], float]:
    """Probabilities over delta = q - q', indexed by the integer code of delta.

    Cached by table identity; EtaTable instances compare by identity, so
    reusing the same table objects across runs amortizes the transform.
    """
    ctx = table.ctx
    d, n = table.d, table.n
    pairs, norm, mass = _delta_weights(table, good)
    if not pairs:
        return (), mass
    probs = []
    for delta in product(range(d), repeat=n):
        terms = [s * chi(ctx, dot(ctx, delta, w)) for w, s in pairs]
        amp = complex(
            math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
        )
        probs.append((amp.real * amp.real + amp.imag * amp.imag) / norm)
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolationError(
            f"outcome distribution for x={table.x} sums to {total}"
        )
    return tuple(probs), mass


def outcome_distribution(
    table: EtaTable, good: GoodSets | None, q: Point
) -> OutcomeDist:
    """Distribution of q' for a fixed direction x and true coefficient vector q.

    good=None gives the ideal-measurement law; otherwise the law conditions
    on the good branch.  Probabilities depend on q only through q - q', a
    covariance the sampler exploits.
    """
    ctx = table.ctx
    d, n = table.d, table.n
    q = tuple(q)
    if len(q) != n:
        raise ValueError(f"q has {len(q)} components, expected {n}")
    if good is not None and not good.x_good(table.x):
        return OutcomeDist(x=table.x, branch=Branch.BAD, good_mass=0.0, probabilities={})
    probs, mass = _delta_distribution(table, good)
    branch = Branch.IDEAL if good is None else Branch.GOOD
    if not probs:
        return OutcomeDist(x=table.x, branch=branch, good_mass=mass, probabilities={})
    out = {}
    for code, pr in enumerate(probs):
        delta = decode_point(code, d, n)
        qprime = tuple(ctx.sub(qi, di) for qi, di in zip(q, delta))
        out[qprime] = pr
    return OutcomeDist(x=table.x, branch=branch, good_mass=mass, probabilities=out)


def sample_outcome(
    q: Point,
    tables: Mapping[Point, EtaTable],
    good: GoodSets,
    rng: random.Random,
):
    """One measurement run for true coefficient vector q: sampled q' or BAD_BRANCH."""
    ctx = good.ctx
    d, n = ctx.d, good.n
    x = tuple(rng.randrange(d) for _ in range(n))
    table = tables[x]
    if not good.x_good(x):
        return BAD_BRANCH
    probs, mass = _delta_distribution(table, good)
    if rng.random() >= mass:
        return BAD_BRANCH
    cum = list(accumulate(probs))
    u = rng.random() * cum[-1]
    delta = decode_point(bisect_left(cum, u), d, n)
    return tuple(ctx.sub(qi, di) for qi, di in zip(q, delta))


def _instance_coeff_vector(inst: HiddenInstance) -> Point:
    if inst.m != 1:
        raise ValueError("measurement sampling is defined for univariate instances")
    return tuple(inst.Q.coeff((i,)) for i in range(1, inst.n + 1))


def run_once(
    inst: HiddenInstance,
    tables: Mapping[Point, EtaTable],
    good: GoodSets,
    rng: random.Random,
):
    """One full algorithm run against a univariate instance.

    Returns the measured coefficient tuple q' or BAD_BRANCH.  The sampler
    reads the instance's secret coefficients to evaluate the closed-form
    outcome law; that is a simulation shortcut, not an oracle query, so
    query_count is untouched.
    """
    return sample_outcome(_instance_coeff_vector(inst), tables, good, rng)


@dataclass
class RunStats:
    runs: int = 0
    bad_branches: int = 0
    successes: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def stderr(self) -> float:
        if not self.runs:
            return 0.0
        p = self.success_rate
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.runs)


def run_many(
    inst: HiddenInstance,
    tables: Mapping[Point, EtaTable],
    good: GoodSets,
    rng: random.Random,
    runs: int,
) -> RunStats:
    """Monte Carlo estimate of the unconditional success probability."""
    q = _instance_coeff_vector(inst)
    stats = RunStats()
    for _ in range(runs):
        outcome = sample_outcome(q, tables, good, rng)
        stats.runs += 1
        if outcome is BAD_BRANCH:
            stats.bad_branches += 1
        elif outcome == q:
            stats.successes += 1
    return stats


def make_quantum_solver(
    tables: Mapping[Point, EtaTable],
    good: GoodSets,
    rng: random.Random,
    votes: int = 5,
    max_draws: int = 10_000,
) -> Callable:
    """Univariate solver backed by the measurement sampler.

    The returned callable takes any view exposing ctx, n, and
    effective_coeffs(), collects `votes` good-branch outcomes (discarding bad
    branches, up to max_draws total), and returns the majority vote as a
    candidate polynomial with zero constant term.  Verification and retries
    are the caller's business.
    """

    def solver(view) -> UniPoly:
        q = tuple(view.effective_coeffs())
        counts: dict[Point, int] = {}
        draws = 0
        collected = 0
        while collected < votes:
            if draws >= max_draws:
                raise RecoveryError(
                    f"good branch not reached in {max_draws} draws; "
                    "good sets are too thin for sampling"
                )
            draws += 1
            outcome = sample_outcome(q, tables, good, rng)
            if outcome is BAD_BRANCH:
                continue
            collected += 1
            counts[outcome] = counts.get(outcome, 0) + 1
        best = max(sorted(counts), key=lambda k: counts[k])
        return UniPoly(view.ctx, (0, *best))

    return solver


@dataclass(frozen=True)
class SuccessReport:
    """Everything the success analysis produces for one (field, n, analysis).

    The sandwich approx <= ideal and lemma2 <= approx is validated at
    construction; a violation means a computation bug, not a bad parameter,
    and raises accordingly.
    """

    field: str
    d: int
    n: int
    analysis: Analysis
    ideal: float
    approx: float
    lemma2: float
    corollary: float
    good_summary: GoodSetSummary
    mc_runs: int = 0
    mc_estimate: float | None = None
    mc_stderr: float | None = None

    def __post_init__(self):
        tol = 1e-9
        if self.approx > self.ideal + tol:
            raise InvariantViolationError(
                f"approx_success {self.approx} exceeds ideal_success {self.ideal}"
            )
        if self.lemma2 > self.approx + tol:
            raise InvariantViolationError(
                f"counting bound {self.lemma2} exceeds approx_success {self.approx}"
            )

    def as_dict(self) -> dict:
        doc = {
            "field": self.field,
            "d": self.d,
            "n": self.n,
            "analysis": self.analysis.value,
            "ideal_success": self.ideal,
            "approx_success": self.approx,
            "lemma2_lower_bound": self.lemma2,
            "corollary_bound": self.corollary,
            "good_sets": self.good_summary.as_dict(),
        }
        if self.mc_runs:
            doc["mc"] = {
                "runs": self.mc_runs,
                "estimate": self.mc_estimate,
                "stderr": self.mc_stderr,
            }
        else:
            doc["mc"] = None
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def success_report(
    ctx: FieldCtx,
    n: int,
    analysis: Analysis,
    mc_runs: int = 0,
    seed: int | None = None,
) -> SuccessReport:
    """Compute the full report in one pass over the fiber tables.

    mc_runs > 0 adds a Monte Carlo cross-check, which samples from the
    tables of that same pass.
    """
    if mc_runs < 0:
        raise ValueError(f"Monte Carlo run count must be >= 0, got {mc_runs}")
    if mc_runs and seed is None:
        raise ValueError("a seed is required for the Monte Carlo estimate")
    good = good_sets(ctx, n, analysis)
    tables: dict[Point, EtaTable] = {}
    stream = iter_eta_tables(ctx, n)
    if mc_runs:
        stream = (tables.setdefault(t.x, t) for t in stream)
    ideal, approx, w_counts = _success_sums(stream, good)
    summary = GoodSetSummary.from_w_counts(good, w_counts)
    mc_estimate = mc_stderr = None
    if mc_runs:
        inst = sample_instance(ctx, 1, n, seed)
        stats = run_many(inst, tables, good, random.Random(f"hpp-mc:{seed}"), mc_runs)
        mc_estimate = stats.success_rate
        mc_stderr = stats.stderr
    return SuccessReport(
        field=field_descriptor(ctx),
        d=ctx.d,
        n=n,
        analysis=analysis,
        ideal=ideal,
        approx=approx,
        lemma2=lemma2_bound(summary),
        corollary=corollary_bound(ctx.d, n, good.cap),
        good_summary=summary,
        mc_runs=mc_runs,
        mc_estimate=mc_estimate,
        mc_stderr=mc_stderr,
    )
