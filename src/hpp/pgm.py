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

The amplitude of one delta needs only the phase index Tr(<delta, w>) in
[0, p) of every term.  Those indices form an exact integer matrix, the
base-p digits of all delta times the field's trace form (block-diagonal
over the n coordinates) times the digits of the participating w, mod p.
A term is fixed by its phase index and its fiber size, so each row is an
integer count of each of the p*K distinct products sqrt(size) * cos_t (and
sin_t), K being the number of distinct fiber sizes.  Each product splits
exactly into two halves of at most 26 significant bits; halves grouped
into exponent windows narrow enough to keep every partial sum below 2^53
make one int64 matmul give each row's window totals exactly.  Rounding
each row once then gives the correctly rounded exact sum: the same floats
as summing the characters term by term with math.fsum.  Each law and its
cumulative distribution are cached on the fiber table they come from.

success_report is the one entry for the success analysis.  Every quantity
it reports depends on a direction x only through x_good(x) and the
histogram of x's fiber sizes, so the pass builds that histogram once per
direction; the good-target rule, a condition on the fiber size, masks its
size axis.  Each inner sum sum_w sqrt(eta_w) is an exact integer over the
(masked) histogram, rounded once (_sqrt_sum), and the outer sums over x run
through math.fsum, so the sums are correctly rounded as well.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

import numpy as np

from .blackbox import HiddenInstance, sample_instance
from .errors import InvariantViolationError, RecoveryError
from .fibers import (
    Analysis,
    EtaTable,
    GoodSets,
    Point,
    decode_point,
    good_sets,
    iter_eta_tables,
)
from .gf import FieldCtx, field_descriptor
from .polyring import UniPoly


class Branch(str, Enum):
    IDEAL = "ideal"
    GOOD = "good"
    BAD = "bad"


BAD_BRANCH = None  # sentinel sample_outcome returns when the run is discarded

# corollary_bound: degree of the locus of distinct-coordinate points sharing an image.
CURVE_DEGREE = 2
# Draws one quantum-solver call may spend before it gives up on the good branch.
MAX_SOLVER_DRAWS = 10_000


def _sqrt_sum(hist: np.ndarray) -> float:
    """Sum of sqrt(k) over the sizes a histogram counts (hist[k] entries of
    size k), correctly rounded.

    Each size k >= 1 has sqrt(k) >= 1 (math.sqrt rounds correctly, as
    np.sqrt does), a float that is an integer multiple of 2^-52, so the sum
    of count_k * sqrt(k) * 2^52 is an exact integer; int/int true division
    rounds it once, to the float math.fsum returns over the expanded sizes.
    """
    sizes = np.flatnonzero(hist)
    return sum(
        c * int(math.sqrt(k) * 2.0**52) for k, c in zip(sizes.tolist(), hist[sizes].tolist())
    ) / 2**52


def _success_sums(
    tables: Iterable[EtaTable], good: GoodSets
) -> tuple[float, float, list[int]]:
    """One pass over the tables of all d^n directions.

    Returns the ideal and the good-subspace success probabilities and
    |W_good^x| for each classified-good x, all read from one fiber-size
    histogram per direction.
    """
    ideal_terms = []
    approx_terms = []
    w_counts = []
    d = n = None
    for table in tables:
        d, n = table.d, table.n
        table.check_partition()
        hist = np.bincount(table.counts)
        inner = _sqrt_sum(hist)
        ideal_terms.append(inner * inner)
        if good.x_good(table.x):
            hist *= good.w_good(table.x, np.arange(len(hist)))
            inner = _sqrt_sum(hist)
            approx_terms.append(inner * inner)
            w_counts.append(int(hist.sum()))
    if d is None or len(ideal_terms) != d**n:
        raise InvariantViolationError(
            f"success sums need a table for every x in F^n; saw {len(ideal_terms)}"
        )
    scale = d ** (3 * n)
    return math.fsum(ideal_terms) / scale, math.fsum(approx_terms) / scale, w_counts


def lemma2_bound(d: int, n: int, x_good_count: int, w_good_min: int) -> float:
    """Counting lower bound |X_good| * |W_good|^2 / d^(3n) with
    |W_good| = min over good x of |W_good^x|."""
    return x_good_count * w_good_min**2 / d ** (3 * n)


def corollary_bound(d: int, n: int, cap: int) -> float:
    """Asymptotic form of the counting bound: roughly 1/cap^2 - O(1/d).

    (d-1)^n directions qualify; at least (d(d-1)...(d-n+1)/cap - CURVE_DEGREE
    * d^(n-1)) targets survive per direction.  Clamped at zero for tiny d
    where the estimate goes negative.
    """
    falling = 1
    for i in range(n):
        falling *= d - i
    per_x = max(0.0, falling / cap - CURVE_DEGREE * d ** (n - 1))
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


def _delta_weights(table: EtaTable, good: GoodSets | None):
    """Codes of the participating targets w, the normalizer and the branch mass."""
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
    return np.flatnonzero(mask), norm, mass


def _phase_matrix(ctx: FieldCtx, n: int, w_codes: np.ndarray) -> np.ndarray:
    """T[delta, i] = Tr(<delta, w_i>) for every delta in F^n (by code), exactly.

    With the base-p digits of a point as a row vector (e digits per
    coordinate), Tr(<delta, w>) = digits(delta) . blockdiag_n(M) .
    digits(w) mod p, where M is the field's trace form.  The outer product
    is accumulated one digit position at a time; every accumulated entry is
    at most n*e*(p-1)^2, so one gather from a table of residues reduces the
    matrix mod p.
    """
    p = ctx.p
    place = p ** np.arange(n * ctx.e, dtype=np.int64)

    def digits(codes: np.ndarray) -> np.ndarray:
        return codes[:, None] // place % p

    form = np.kron(np.eye(n, dtype=np.int64), np.array(ctx.trace_form, dtype=np.int64))
    left = digits(np.arange(ctx.d**n, dtype=np.int64)) @ form % p
    right = digits(w_codes)
    phases = left[:, :1] * right[:, 0]
    for j in range(1, len(place)):
        phases += left[:, j : j + 1] * right[:, j]
    return (np.arange(len(place) * (p - 1) ** 2 + 1, dtype=np.int64) % p)[phases]


def _exact_row_sums(counts: np.ndarray, values: list[list[float]]) -> np.ndarray:
    """S[r, c] = sum over j of counts[r, j] * values[j][c], correctly rounded.

    counts is a nonnegative int64 matrix (rows x J) and values holds J rows
    of C floats.  Each value's Veltkamp halves are integer mantissas below
    2^26 times powers of two.  The halves are grouped into windows of
    exponents at most `width` apart, so within a window a half is an
    integer below 2^(26 + width) times the window's base power, and one
    value puts at most two halves in a window.  With every row's counts
    summing below 2^L and width = 26 - L, each window total of a row, and
    every partial sum on the way, stays below 2^53: one int64 matmul gives
    them all exactly, and they convert to floats exactly.  Rounding each
    row once, by math.fsum over its window totals, then yields the
    correctly rounded exact sum, the same float math.fsum returns over the
    expanded terms.  Nonzero values must be far enough above the subnormal
    range that every 2^exp involved is normal.
    """
    rows = len(counts)
    width = 26 - int(counts.sum(axis=1).max()).bit_length()
    if width < 0:
        raise InvariantViolationError(
            "row counts reach 2^26; exponent windows cannot keep sums below 2^53"
        )
    halves = []
    for j, row in enumerate(values):
        for c, v in enumerate(row):
            hi = v * 134217729.0  # Veltkamp's 2^27 + 1
            hi -= hi - v
            for half in (hi, v - hi):
                if half:  # 26 significant bits: half = m * 2^exp, |m| < 2^26
                    f, e = math.frexp(half)
                    halves.append((j, c, int(math.ldexp(f, 26)), e - 26))
    starts: list[int] = []
    for exp in sorted({h[3] for h in halves}):
        if not starts or exp > starts[-1] + width:
            starts.append(exp)
    nwin = len(starts)
    ncols = len(values[0])
    mantissas = [[0] * (ncols * nwin) for _ in values]
    for j, c, m, exp in halves:
        i = bisect_right(starts, exp) - 1
        mantissas[j][c * nwin + i] += m << (exp - starts[i])
    totals = counts @ np.array(mantissas, dtype=np.int64)
    scaled = totals.astype(np.float64) * np.array([2.0**s for s in starts] * ncols)
    cells = scaled.reshape(rows * ncols, nwin)
    return np.array(list(map(math.fsum, cells.tolist()))).reshape(rows, ncols)


def _delta_distribution(table: EtaTable, good: GoodSets | None) -> tuple[np.ndarray, float]:
    """Probabilities over delta = q - q', indexed by the integer code of delta.

    amp(delta) = sum over participating w of sqrt(eta_w) * chi(<delta, w>).
    A term is fixed by its phase index t = Tr(<delta, w>), from
    _phase_matrix in exact integer arithmetic, and by its fiber size, one
    of K distinct values.  One bincount over the phase matrix counts every
    row's terms by (t, size); the p*K distinct products sqrt(size) * cos_t
    and * sin_t are the IEEE products float * complex gives.
    _exact_row_sums then rounds each row's exact sum once, so the law is
    bit-identical to evaluating the character sum term by term.
    """
    ctx = table.ctx
    codes, norm, mass = _delta_weights(table, good)
    if not codes.size:
        return np.empty(0), mass
    eta = table.counts[codes]
    sizes = np.flatnonzero(np.bincount(eta))
    k = len(sizes)
    rows, bins = ctx.d**table.n, ctx.p * k
    keys = _phase_matrix(ctx, table.n, codes)  # turned in place into bin numbers
    keys *= k
    keys += np.searchsorted(sizes, eta)
    keys += np.arange(0, rows * bins, bins)[:, None]
    terms = np.bincount(keys.ravel(), minlength=rows * bins).reshape(rows, bins)
    roots = [math.sqrt(s) for s in sizes.tolist()]
    values = [[r * z.real, r * z.imag] for z in ctx._unit_roots for r in roots]
    amps = _exact_row_sums(terms, values)
    re, im = amps[:, 0], amps[:, 1]
    probs = (re * re + im * im) / float(norm)
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolationError(
            f"outcome distribution for x={table.x} sums to {total}"
        )
    return probs, mass


def _outcome_law(table: EtaTable, good: GoodSets | None):
    """(probabilities, cumulative distribution, branch mass), cached on the table."""
    law = table._laws.get(good)
    if law is None:
        probs, mass = _delta_distribution(table, good)
        law = table._laws[good] = (probs, np.cumsum(probs), mass)
    return law


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
    probs, _, mass = _outcome_law(table, good)
    branch = Branch.IDEAL if good is None else Branch.GOOD
    out = {}
    for code, pr in enumerate(probs.tolist()):
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
    x = tuple([rng.randrange(d) for _ in range(n)])
    table = tables[x]
    if not good.x_good(x):
        return BAD_BRANCH
    _, cdf, mass = _outcome_law(table, good)
    if rng.random() >= mass:
        return BAD_BRANCH
    u = rng.random() * cdf[-1]
    delta = decode_point(int(cdf.searchsorted(u)), d, n)
    return tuple([ctx.sub(qi, di) for qi, di in zip(q, delta)])


def _instance_coeff_vector(inst: HiddenInstance) -> Point:
    if inst.m != 1:
        raise ValueError("measurement sampling is defined for univariate instances")
    return tuple(inst.Q.coeff((i,)) for i in range(1, inst.n + 1))


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
    """Monte Carlo estimate of the unconditional success probability.

    The sampler reads the instance's secret coefficients to evaluate the
    closed-form outcome law; that is a simulation shortcut, not an oracle
    query, so query_count is untouched.
    """
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
) -> Callable:
    """Univariate solver backed by the measurement sampler.

    The returned callable takes any view exposing ctx, n, and
    effective_coeffs(), collects `votes` good-branch outcomes (discarding bad
    branches, up to MAX_SOLVER_DRAWS total), and returns the majority vote as a
    candidate polynomial with zero constant term.  Verification and retries
    are the caller's business.
    """

    def solver(view) -> UniPoly:
        q = tuple(view.effective_coeffs())
        counts: dict[Point, int] = {}
        draws = 0
        collected = 0
        while collected < votes:
            if draws >= MAX_SOLVER_DRAWS:
                raise RecoveryError(
                    f"good branch not reached in {MAX_SOLVER_DRAWS} draws; "
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
    cap: int
    x_good_count: int
    w_good_min: int
    w_good_mean: float
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
            "good_sets": {
                "analysis": self.analysis.value,
                "D": self.cap,
                "x_good_count": self.x_good_count,
                "w_good_min": self.w_good_min,
                "w_good_mean": self.w_good_mean,
            },
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


def success_report(
    ctx: FieldCtx,
    n: int,
    analysis: Analysis,
    mc_runs: int = 0,
    seed: int | None = None,
    on_table: Callable[[EtaTable], None] | None = None,
) -> SuccessReport:
    """Compute the full report in one pass over the fiber tables.

    mc_runs > 0 adds a Monte Carlo cross-check, which samples from the
    tables of that same pass.  on_table, when given, is called with each
    table of the pass, in direction-code order.
    """
    if mc_runs < 0:
        raise ValueError(f"Monte Carlo run count must be >= 0, got {mc_runs}")
    if mc_runs and seed is None:
        raise ValueError("a seed is required for the Monte Carlo estimate")
    good = good_sets(ctx, n, analysis)
    tables: dict[Point, EtaTable] = {}
    stream = iter_eta_tables(ctx, n)
    if on_table is not None:
        stream = (on_table(t) or t for t in stream)
    if mc_runs:
        stream = (tables.setdefault(t.x, t) for t in stream)
    ideal, approx, w_counts = _success_sums(stream, good)
    x_good_count = len(w_counts)
    w_good_min = min(w_counts, default=0)
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
        lemma2=lemma2_bound(ctx.d, n, x_good_count, w_good_min),
        corollary=corollary_bound(ctx.d, n, good.cap),
        cap=good.cap,
        x_good_count=x_good_count,
        w_good_min=w_good_min,
        w_good_mean=sum(w_counts) / x_good_count if w_counts else 0.0,
        mc_runs=mc_runs,
        mc_estimate=mc_estimate,
        mc_stderr=mc_stderr,
    )
