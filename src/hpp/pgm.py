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
exists separately as a cross-check at small d.  Since the law is the same
for every instance, the sampler draws delta and is given no instance.

The amplitude of one delta needs only the phase index Tr(<delta, w>) in
[0, p) of every term.  Those indices form an exact integer matrix, the
base-p digits of delta times the field's trace form (block-diagonal over
the n coordinates) times the digits of the participating w, mod p.  A term
is fixed by its phase index and its fiber size, so each row is an integer
count of each of the p*K distinct products sqrt(size) * cos_t (and sin_t),
K being the number of distinct fiber sizes.  The trace is F_p-linear, so
the row of lam * delta, lam in F_p*, is the row of delta with its phase
axis permuted: only one delta per F_p-line is counted, and one gather
gives the other rows.  The rows are summed by the exact-sum rule below
(_exact_row_sums): the same floats as summing the characters term by
term with math.fsum.

A law has one form, a probability array indexed by encode_point code, and
one way to move: read at lam * delta (fibers._scaled_read, which also
reads a fiber table from its orbit's).  A law is built once per orbit of
directions under x -> lam * sigma(x) (fibers._orbits), lam in F* and sigma
a permutation of the coordinates: the fiber sizes of lam * sigma(x) are
those of x with every w scaled by lam, so its law at delta is x's law at
lam * delta.  The orbit's law is built from the table of the orbit's least
point r, the only table the law layer reads, and cached on the Sampler;
each direction's law is one move of it, and nothing is cached per
direction but its draw record.  The law over q' for a given q is the delta
law read at q - q'.

A draw reads one record per direction from the sampler's draw list,
indexed by the direction's encode_point code and filled on the direction's
first draw: a bad-direction marker, or the good-branch mass, a zero-copy
memoryview of the law's cumulative distribution, built with the record,
and its last entry.  A repeat draw then does one list index, and
bisect_left on the view finds the index numpy's searchsorted would: the
encode_point code of delta, which is the draw's outcome.  The quantum
solver votes on these codes and subtracts the winner from q once.

success_report is the one entry for the success analysis, and it computes
the exact report and nothing else.  Every quantity it reports depends on a
direction x only through x_good(x) and the histogram of x's fiber sizes,
so the pass reads that histogram once per direction, as a short list; the
good-target rule keeps the sizes 1..cap, a cut of its size axis.  Each
inner sum sum_w sqrt(eta_w) is taken once per distinct histogram
(_sqrt_sum), and so is its square; the outer sums add the squares over x.
The cross-checks drawn from the measurement, the Monte Carlo rate
(run_many) and the per-direction law (outcome_distribution), read a
Sampler built after the pass; with fibers.eta_table as its table source it
reads the representatives' tables the pass kept.

Every sum here that must be exact follows one rule: each float it adds is
an integer times one power of two (sqrt(k) >= 1 and its square are
multiples of 2^-52; a law's products sqrt(size) * cos_t are multiples of
2^low, low being their least frexp exponent less 53), so the integers
are added exactly and the total is rounded once.  The result is the
correctly rounded sum, the float math.fsum returns over the expanded
terms.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Iterable

import numpy as np

from .errors import InvariantViolationError, RecoveryError
from .fibers import (
    Analysis,
    EtaTable,
    GoodSets,
    Point,
    _orbits,
    _scaled_read,
    decode_point,
    encode_point,
    good_sets,
    iter_eta_tables,
)
from .gf import Felt, FieldCtx, field_descriptor
from .polyring import UniPoly


BAD_BRANCH = None  # sentinel sample_outcome returns when the run is discarded
_BAD_X = object()  # draw record of a bad direction

# corollary_bound: degree of the locus of distinct-coordinate points sharing an image.
CURVE_DEGREE = 2
# Draws one quantum-solver call may spend before it gives up on the good branch.
MAX_SOLVER_DRAWS = 10_000
# Good-branch outcomes one quantum-solver call collects for its majority vote.
SOLVER_VOTES = 5


def _sqrt_sum(hist: list[int]) -> float:
    """Sum of sqrt(k) over the sizes a histogram counts (hist[k] entries of
    size k), correctly rounded.

    Each size k >= 1 has sqrt(k) >= 1 (math.sqrt rounds correctly, as
    np.sqrt does), a float that is an integer multiple of 2^-52, so the sum
    of hist[k] * sqrt(k) * 2^52 is an exact integer; int/int true division
    rounds it once, to the float math.fsum returns over the expanded sizes.
    """
    return sum(c * int(math.sqrt(k) * 2.0**52) for k, c in enumerate(hist) if c) / 2**52


def _success_sums(
    tables: Iterable[EtaTable], good: GoodSets
) -> tuple[float, float, list[int]]:
    """One pass over the tables of all d^n directions.

    Returns the ideal and the good-subspace success probabilities and
    |W_good^x| for each classified-good x, all read from one fiber-size
    histogram per direction.  The two squared inner sums and |W_good^x|
    depend on the histogram alone, so each is taken once per distinct
    histogram: once per direction orbit, or less.  A square is kept as the
    integer it is times 2^52, and each sum over x is rounded once.
    """
    ideal = approx = seen = 0
    w_counts = []
    by_hist: dict[tuple[int, ...], tuple[int, int, int]] = {}
    d = n = None
    for table in tables:
        d, n = table.d, table.n
        seen += 1
        hist = np.bincount(table.counts).tolist()
        if sum(map(mul, hist, range(len(hist)))) != d**n:
            table.check_partition()  # raises: the sizes must sum to d^n
        key = tuple(hist)
        if key not in by_hist:
            # w_good keeps the sizes 1..cap: a cut of the histogram's size axis.
            cut = hist[: good.cap + 1]
            inner, good_inner = _sqrt_sum(hist), _sqrt_sum(cut)
            by_hist[key] = (
                int(inner * inner * 2.0**52),
                int(good_inner * good_inner * 2.0**52),
                sum(cut) - cut[0],
            )
        ideal_term, approx_term, w_count = by_hist[key]
        ideal += ideal_term
        if good.x_good(table.x):
            if len(hist) > good.cap + 1:
                good.w_good(table.x, len(hist) - 1)  # raises past a cap that is a theorem
            approx += approx_term
            w_counts.append(w_count)
    if d is None or seen != d**n:
        raise InvariantViolationError(
            f"success sums need a table for every x in F^n; saw {seen}"
        )
    scale = d ** (3 * n)
    return ideal / 2**52 / scale, approx / 2**52 / scale, w_counts


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


@lru_cache(maxsize=1)
def _delta_lines(ctx: FieldCtx, n: int) -> tuple[np.ndarray, ...]:
    """Constants of the line-reduced phase counts of one (field, n), as
    read-only arrays kept for the most recent (field, n).

    Scaling delta by lam in F_p* scales each base-p digit of its code, so
    every nonzero delta is lam * rho for the one rho on its F_p-line whose
    most significant nonzero digit is 1; delta = 0 is a line of its own.
    Returns the place values p^j of the digits; left, the digits of each
    line's rho times the block trace form blockdiag_n(M) mod p; the residue
    table of every sum _term_counts accumulates; and gather, which reads
    row lam * rho of the (phase, size) count matrix from row rho, since
    Tr(<lam * rho, w>) = lam * Tr(<rho, w>) mod p: gather[delta, t] =
    line(delta) * p + (lam^-1 * t mod p).
    """
    p, ndig = ctx.p, n * ctx.e
    place = p ** np.arange(ndig, dtype=np.int64)
    codes = np.arange(ctx.d**n, dtype=np.int64)
    # lam: the most significant nonzero base-p digit of each code.
    lam = codes // place[np.searchsorted(place, codes, side="right") - 1]
    lam[0] = 1  # delta = 0
    lines = np.flatnonzero(lam == 1)
    line_of = np.zeros_like(codes)
    line_of[lines] = np.arange(len(lines))
    lam_inv = np.array([0] + [ctx.inv(c) for c in range(1, p)])[lam][:, None]
    line = line_of[codes[:, None] // place % p * lam_inv % p @ place]
    form = np.kron(np.eye(n, dtype=np.int64), np.array(ctx.trace_form, dtype=np.int64))
    left = lines[:, None] // place % p @ form % p
    residues = np.arange(ndig * (p - 1) ** 2 + 1, dtype=np.int64) % p
    gather = line[:, None] * p + lam_inv * np.arange(p) % p
    for a in (place, left, residues, gather):
        a.flags.writeable = False
    return place, left, residues, gather


def _term_counts(
    ctx: FieldCtx, n: int, w_codes: np.ndarray, size_index: np.ndarray, k: int
) -> np.ndarray:
    """terms[delta, t * k + s]: how many targets w (by code, each with its
    index s among k distinct fiber sizes) have phase index Tr(<delta, w>) =
    t, for every delta by code, exactly.

    With the base-p digits of a point as a row vector (e digits per
    coordinate), Tr(<delta, w>) = digits(delta) . blockdiag_n(M) .
    digits(w) mod p, where M is the field's trace form.  Only the rows of
    the line representatives are computed (_delta_lines): the outer
    product is accumulated one digit position at a time, every entry stays
    at most n*e*(p-1)^2, one gather from the residue table reduces it mod
    p, and one bincount counts each row's terms.  One more gather derives
    the rows of the other deltas.
    """
    p = ctx.p
    place, left, residues, gather = _delta_lines(ctx, n)
    right = w_codes[:, None] // place % p
    keys = left[:, :1] * right[:, 0]
    for j in range(1, len(place)):
        keys += left[:, j : j + 1] * right[:, j]
    keys = residues[keys]  # turned in place into bin numbers
    bins = p * k
    keys *= k
    keys += size_index
    keys += np.arange(0, len(left) * bins, bins)[:, None]
    terms = np.bincount(keys.ravel(), minlength=len(left) * bins)
    return terms.reshape(-1, k)[gather].reshape(len(gather), bins)


def _exact_row_sums(counts: np.ndarray, values: list[list[float]]) -> np.ndarray:
    """S[r, c] = sum over j of counts[r, j] * values[j][c], correctly rounded.

    counts is a nonnegative int64 matrix (rows x J) and values holds J rows
    of C floats.  With low the least frexp exponent of a nonzero value less
    53, every value is an exact integer times 2^low.  With every row's
    counts summing below 2^L, each integer's magnitude is split into limbs
    of bits = 53 - L bits, each carrying the integer's sign, so one int64
    matmul gives every limb total of a row below 2^53, exactly, and they
    convert to floats exactly.  Scaling limb k by 2^(low + bits * k) and
    rounding each cell once, by math.fsum over its limbs, then yields the
    correctly rounded exact sum, the same float math.fsum returns over the
    expanded terms.  The nonzero values must sit far enough above the
    subnormal range that 2^low is normal, and span few enough binades that
    every value times 2^-low is finite.
    """
    rows, ncols = len(counts), len(values[0])
    bits = 53 - int(counts.sum(axis=1).max()).bit_length()
    if bits < 1:
        raise InvariantViolationError(
            "row counts reach 2^52; limb totals cannot stay below 2^53"
        )
    low = min((math.frexp(v)[1] for row in values for v in row if v), default=53) - 53
    ints = [[int(math.ldexp(v, -low)) for v in row] for row in values]
    top = max(abs(m).bit_length() for row in ints for m in row)
    shifts = range(0, top or 1, bits)
    mask = (1 << bits) - 1
    limbs = [
        [(-1 if m < 0 else 1) * (abs(m) >> k & mask) for m in row for k in shifts]
        for row in ints
    ]
    totals = counts @ np.array(limbs, dtype=np.int64)
    scaled = totals.astype(np.float64) * np.array([2.0 ** (low + k) for k in shifts] * ncols)
    cells = scaled.reshape(rows * ncols, len(shifts))
    return np.array(list(map(math.fsum, cells.tolist()))).reshape(rows, ncols)


def _delta_distribution(table: EtaTable, good: GoodSets) -> tuple[np.ndarray, float]:
    """Good-branch probabilities over delta = q - q', indexed by the integer
    code of delta, and the good-branch mass.

    amp(delta) = sum over good targets w of sqrt(eta_w) * chi(<delta, w>).
    A term is fixed by its phase index t = Tr(<delta, w>) and by its fiber
    size, one of K distinct values; _term_counts counts every row's terms
    by (t, size) in exact integer arithmetic.  The p*K distinct products
    sqrt(size) * cos_t and * sin_t are the IEEE products float * complex
    gives, and _exact_row_sums rounds each row's exact sum once, so the
    law is bit-identical to evaluating the character sum term by term.
    """
    ctx = table.ctx
    rows = ctx.d**table.n
    codes = np.flatnonzero(good.w_good(table.x, table.counts))
    eta = table.counts[codes]
    b_size = int(eta.sum())
    mass = b_size / rows
    if not codes.size:
        return np.empty(0), mass
    sizes = np.flatnonzero(np.bincount(eta))
    terms = _term_counts(ctx, table.n, codes, np.searchsorted(sizes, eta), len(sizes))
    roots = [math.sqrt(s) for s in sizes.tolist()]
    values = [[r * z.real, r * z.imag] for z in ctx._unit_roots for r in roots]
    amps = _exact_row_sums(terms, values)
    re, im = amps[:, 0], amps[:, 1]
    probs = (re * re + im * im) / float(rows * b_size)
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolationError(
            f"outcome distribution for x={table.x} sums to {total}"
        )
    return probs, mass


@dataclass(eq=False)
class Sampler:
    """The measurement sampler of one good set and the law state it builds:
    table_of(r) gives direction r's fiber table, called once per good
    direction orbit whose law is needed, with the orbit's representative r
    (see reads); orbit_laws one law per direction orbit, keyed by r; draws
    each direction's draw record by code (None until its first draw);
    points every point of F^n by code; labels the orbit labels of F^n
    (fibers._orbits).  All but the first two are built on first use."""

    good: GoodSets
    table_of: Callable[[Point], EtaTable]
    orbit_laws: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def draws(self) -> list:
        return [None] * self.good.ctx.d**self.good.n

    @cached_property
    def labels(self) -> tuple[np.ndarray, np.ndarray]:
        return _orbits(self.good.ctx, self.good.n)[:2]

    @cached_property
    def points(self) -> list[Point]:
        d, n = self.good.ctx.d, self.good.n
        return [decode_point(code, d, n) for code in range(d**n)]

    def reads(self, x: Point) -> bool:
        """Whether table_of may be asked for direction x: x is good and the
        representative of its orbit.  The representative is the orbit's
        least point, so a pass in code order meets it before the rest."""
        code = encode_point(x, self.good.ctx.d)
        return self.good.x_good(x) and int(self.labels[0][code]) == code


def table_sampler(good: GoodSets, tables: Iterable[EtaTable]) -> Sampler:
    """A Sampler whose table source is one pass of tables, of which it
    keeps only those it reads."""
    kept: dict[Point, EtaTable] = {}
    sampler = Sampler(good, kept.__getitem__)
    kept.update((t.x, t) for t in tables if sampler.reads(t.x))
    return sampler


def _outcome_law(sampler: Sampler, x: Point) -> tuple[np.ndarray, float, Felt]:
    """(probabilities, good-branch mass, lam) for the good direction x =
    lam * sigma(r), r being its orbit's representative (Sampler.labels):
    the probabilities are r's law, built from table_of(r) on the orbit's
    first use and cached on the sampler, and x's law is law_x[delta] =
    law_r[lam * delta].
    """
    reps, lams = sampler.labels
    code = encode_point(x, sampler.good.ctx.d)
    rep = decode_point(int(reps[code]), sampler.good.ctx.d, len(x))
    laws = sampler.orbit_laws
    if rep not in laws:
        laws[rep] = _delta_distribution(sampler.table_of(rep), sampler.good)
    return (*laws[rep], int(lams[code]))


def outcome_distribution(sampler: Sampler, x: Point) -> tuple[np.ndarray, float]:
    """(probabilities, good-branch mass) of the measured q' for direction
    x when q = 0: probs[encode_point(q', d)] is P(q').  The law depends on
    q only through delta = q - q', so this is the delta law read at -q',
    and the law for any q is this one read at q' - q.  A bad direction or
    an empty law gives (np.empty(0), 0.0)."""
    if not sampler.good.x_good(x):
        return np.empty(0), 0.0
    probs, mass, lam = _outcome_law(sampler, x)
    ctx = sampler.good.ctx
    return _scaled_read(probs, ctx, len(x), ctx.neg(lam)), mass


def _draw_record(sampler: Sampler, x: Point):
    """What sample_outcome reads for direction x: _BAD_X for a bad
    direction, else the good-branch mass, a memoryview of the law's
    cumulative distribution, which the view keeps alive, and its last entry
    (0.0 for an empty law)."""
    if not sampler.good.x_good(x):
        return _BAD_X
    probs, mass, lam = _outcome_law(sampler, x)
    cdf = np.cumsum(_scaled_read(probs, sampler.good.ctx, len(x), lam))
    return mass, memoryview(cdf), float(cdf[-1]) if cdf.size else 0.0


def sample_outcome(sampler: Sampler, rng: random.Random) -> int | None:
    """One measurement run: the encode_point code of the drawn delta = q - q',
    or BAD_BRANCH.

    The draw takes n randrange(d) for the coordinates of the direction x,
    which make its encode_point code; for a good x, one random() against
    the law's good-branch mass and one for the inverse-CDF pick of delta,
    whose code is the index bisect_left finds.  The direction's draw record
    is read from the sampler's draw list by x's code, and built on the
    first draw of x.  The law does not depend on
    q, so no instance is needed: the run identifies q exactly when it
    returns code 0.
    """
    good = sampler.good
    d = good.ctx.d
    code = 0
    for _ in range(good.n):
        code = code * d + rng.randrange(d)
    records = sampler.draws
    record = records[code]
    if record is None:
        record = records[code] = _draw_record(sampler, sampler.points[code])
    if record is _BAD_X:
        return BAD_BRANCH
    mass, cdf, last = record
    if rng.random() >= mass:
        return BAD_BRANCH
    return bisect_left(cdf, rng.random() * last)


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


def run_many(sampler: Sampler, rng: random.Random, runs: int) -> RunStats:
    """Monte Carlo estimate of the unconditional success probability, the
    same for every instance: a run succeeds when it draws delta = 0."""
    codes = Counter(sample_outcome(sampler, rng) for _ in range(runs))
    return RunStats(runs, codes[BAD_BRANCH], codes[0])


def make_quantum_solver(sampler: Sampler, rng: random.Random) -> Callable:
    """Univariate solver backed by the measurement sampler.

    The returned callable takes any view exposing ctx and
    effective_coeffs(), collects SOLVER_VOTES good-branch delta codes
    (discarding bad branches, up to MAX_SOLVER_DRAWS total), and returns
    q' = q - delta for the most-voted delta as a candidate polynomial with
    zero constant term; a tie goes to the least q'.  The view's
    coefficients q are read once, after the vote.  Verification and retries
    are the caller's business.
    """

    def solver(view) -> UniPoly:
        votes: list[int] = []
        for _ in range(MAX_SOLVER_DRAWS):
            code = sample_outcome(sampler, rng)
            if code is not BAD_BRANCH:
                votes.append(code)
                if len(votes) == SOLVER_VOTES:
                    break
        else:
            raise RecoveryError(
                f"good branch not reached in {MAX_SOLVER_DRAWS} draws; "
                "good sets are too thin for sampling"
            )
        ctx, q, top = view.ctx, view.effective_coeffs(), max(map(votes.count, votes))
        best = min(
            [ctx.sub(qi, di) for qi, di in zip(q, sampler.points[code])]
            for code in set(votes)
            if votes.count(code) == top
        )
        return UniPoly(ctx, (0, *best))

    return solver


@dataclass(frozen=True)
class SuccessReport:
    """The exact success analysis of one (field, n, analysis): the ideal
    and good-subspace success probabilities, their bounds and the good-set
    counts.  It holds no Monte Carlo estimate.

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
        return {
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


def success_report(ctx: FieldCtx, n: int, analysis: Analysis) -> SuccessReport:
    """The exact report, from one pass over the fiber tables (_success_sums).

    The pass keeps each orbit representative's table (fibers.eta_table), so
    a Sampler built afterwards with partial(eta_table, ctx) enumerates
    nothing for the Monte Carlo or the outcome law.
    """
    good = good_sets(ctx, n, analysis)
    ideal, approx, w_counts = _success_sums(iter_eta_tables(ctx, n), good)
    x_good_count = len(w_counts)
    w_good_min = min(w_counts, default=0)
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
    )
