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
directions under x -> lam * sigma(x) (fibers.Orbits), lam in F* and sigma
a permutation of the coordinates: the fiber sizes of lam * sigma(x) are
those of x with every w scaled by lam, so its law at delta is x's law at
lam * delta.  The orbit's law is built from the store's table of the
orbit's least point r (Orbits.orbit), the only table the law layer reads,
and cached on the Sampler with the line constants it reads; each law is
one move of its orbit's, nothing is cached per direction but its draw
record, and the law over q' for a given q is the delta law read at q - q'.

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
so the pass reduces to a tally: each distinct histogram maps to [directions,
good directions] (_success_sums).  One exact row sum per histogram gives
both inner sums sum_w sqrt(eta_w), over every size and over the sizes
1..cap the good-target rule keeps; one more weighs their squares by the
tally, and the good-set counts are integer sums over it.
The cross-checks drawn from the measurement, the Monte Carlo rate
(run_many) and the per-direction law (outcome_distribution), read a
Sampler built after the pass over the same orbit store, so they read the
representatives' tables the pass kept.  hpp e2e makes no pass: its
Sampler's fresh store enumerates each good orbit it draws, once.

Every sum here that must be exact goes through one routine,
_exact_row_sums: each float it adds is an integer times 2^low, low being
the least frexp exponent of the values less 53, so the integers are added
exactly and each total is rounded once.  The result is the correctly
rounded sum, the float math.fsum returns over the expanded terms.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Iterable

import numpy as np

from .errors import InvariantViolationError, RecoveryError
from .fibers import (
    Analysis,
    EtaTable,
    GoodSets,
    Orbits,
    Point,
    _check_enum_budget,
    _scaled_read,
    decode_point,
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


def _success_sums(
    tables: Iterable[EtaTable], good: GoodSets
) -> tuple[float, float, int, int, float]:
    """One pass over the tables of all d^n directions, reduced to a tally.

    Every number of the report depends on a direction x only through
    x_good(x) and the histogram of x's fiber sizes, so the pass keeps one
    entry per distinct histogram, [directions, good directions].  Returns
    the ideal and the good-subspace success probabilities, |X_good|, and the
    least and mean |W_good^x| over good x, all read from the tally.
    """
    tally: dict[tuple[int, ...], list[int]] = {}
    d = n = None
    for table in tables:
        d, n = table.d, table.n
        hist = np.bincount(table.counts).tolist()
        if sum(map(mul, hist, range(len(hist)))) != d**n:
            table.check_partition()  # raises: the sizes must sum to d^n
        x_good = good.x_good(table.x)
        if x_good and len(hist) > good.cap + 1:
            good.w_good(table.x, len(hist) - 1)  # raises past a cap that is a theorem
        entry = tally.setdefault(tuple(hist), [0, 0])
        entry[0] += 1
        entry[1] += x_good
    seen = sum(entry[0] for entry in tally.values())
    if d is None or seen != d**n:
        raise InvariantViolationError(
            f"success sums need a table for every x in F^n; saw {seen}"
        )
    # Columns: the sizes some histogram counts; w_good keeps the sizes 1..cap.
    sizes = sorted({k for hist in tally for k in range(1, len(hist)) if hist[k]})
    by_size = [[hist[k] if k < len(hist) else 0 for k in sizes] for hist in tally]
    roots = [[math.sqrt(k), math.sqrt(k) if k <= good.cap else 0.0] for k in sizes]
    inner = _exact_row_sums(np.array(by_size, dtype=np.int64), roots)
    directions = np.array(list(tally.values()), dtype=np.int64).T
    ideal, approx = _exact_row_sums(directions, (inner * inner).tolist()).diagonal().tolist()
    w_counts = [sum(row[: bisect_right(sizes, good.cap)]) for row in by_size]
    goods = [g for _, g in tally.values()]
    x_good_count = sum(goods)
    w_good_min = min((w for w, g in zip(w_counts, goods) if g), default=0)
    w_good_mean = sum(map(mul, w_counts, goods)) / x_good_count if x_good_count else 0.0
    scale = d ** (3 * n)
    return ideal / scale, approx / scale, x_good_count, w_good_min, w_good_mean


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


def _delta_lines(ctx: FieldCtx, n: int) -> tuple[np.ndarray, ...]:
    """Constants of the line-reduced phase counts of one (field, n), as
    read-only arrays; a Sampler builds them once (Sampler.lines).

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
    ctx: FieldCtx, w_codes: np.ndarray, size_index: np.ndarray, k: int, lines: tuple
) -> np.ndarray:
    """terms[delta, t * k + s]: how many targets w (by code, each with its
    index s among k distinct fiber sizes) have phase index Tr(<delta, w>) =
    t, for every delta by code, exactly.

    With the base-p digits of a point as a row vector (e digits per
    coordinate), Tr(<delta, w>) = digits(delta) . blockdiag_n(M) .
    digits(w) mod p, where M is the field's trace form.  Only the rows of
    the line representatives are computed (lines, _delta_lines): the outer
    product is accumulated one digit position at a time, every entry stays
    at most n*e*(p-1)^2, one gather from the residue table reduces it mod
    p, and one bincount counts each row's terms.  One more gather derives
    the rows of the other deltas.
    """
    p = ctx.p
    place, left, residues, gather = lines
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


def _delta_distribution(table: EtaTable, good: GoodSets, lines: tuple) -> tuple[np.ndarray, float]:
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
    terms = _term_counts(ctx, codes, np.searchsorted(sizes, eta), len(sizes), lines)
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
    orbits the run's orbit store over the same F^n, whose orbit() gives
    each direction's orbit and the table its law is built from; orbit_laws
    one law per direction orbit, keyed by its representative r; draws each
    direction's draw record by code (None until its first draw); points
    every point of F^n by code, and lines (_delta_lines), both lazy.  As
    lines holds d^n * p <= d^(2n) entries, a Sampler refuses d^(2n) above
    ENUMERATION_BUDGET before it builds any state, as a pass would: e2e has
    no pass.  The store has no such guard; past it, it still serves tables."""

    good: GoodSets
    orbits: Orbits
    orbit_laws: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if (self.orbits.ctx, self.orbits.n) != (self.good.ctx, self.good.n):
            raise ValueError("the orbit store and the good sets are over different F^n")
        _check_enum_budget(self.good.ctx.d, 2 * self.good.n)
        self.draws = [None] * self.good.ctx.d**self.good.n

    @cached_property
    def points(self) -> list[Point]:
        d, n = self.good.ctx.d, self.good.n
        return [decode_point(code, d, n) for code in range(d**n)]

    @cached_property
    def lines(self) -> tuple[np.ndarray, ...]:
        return _delta_lines(self.good.ctx, self.good.n)


def _outcome_law(sampler: Sampler, x: Point) -> tuple[np.ndarray, float, Felt]:
    """(probabilities, good-branch mass, lam) for the good direction x =
    lam * sigma(r) (Orbits.orbit): the probabilities are r's law, built on
    the orbit's first use from r's table in the store and cached on the
    sampler; x's law is law_x[delta] = law_r[lam * delta].
    """
    r, lam, counts = sampler.orbits.orbit(x)
    if r not in sampler.orbit_laws:
        table = EtaTable(sampler.orbits.ctx, r, counts)
        sampler.orbit_laws[r] = _delta_distribution(table, sampler.good, sampler.lines)
    return (*sampler.orbit_laws[r], lam)


def outcome_distribution(sampler: Sampler, x: Point) -> tuple[np.ndarray, float]:
    """(probabilities, good-branch mass) of the measured q' for direction
    x when q = 0: probs[encode_point(q', d)] is P(q').  The law depends on
    q only through delta = q - q', so this is the delta law read at -q',
    and the law for any q is this one read at q' - q.  A bad direction or
    an empty law gives (np.empty(0), 0.0); a coordinate outside the field
    raises ValueError."""
    ctx = sampler.good.ctx
    x = tuple(map(ctx.check, x))
    if not sampler.good.x_good(x):
        return np.empty(0), 0.0
    probs, mass, lam = _outcome_law(sampler, x)
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
    """The exact success analysis of one good set: the ideal and
    good-subspace success probabilities and the good-set counts, the five
    sums of _success_sums.  Field, n, analysis, cap and both bounds are
    read from the good sets.  It holds no Monte Carlo estimate.

    The sandwich approx <= ideal and lemma2 <= approx is validated at
    construction; a violation means a computation bug, not a bad parameter,
    and raises accordingly.
    """

    good: GoodSets
    ideal: float
    approx: float
    x_good_count: int
    w_good_min: int
    w_good_mean: float

    @property
    def lemma2(self) -> float:
        return lemma2_bound(self.good.ctx.d, self.good.n, self.x_good_count, self.w_good_min)

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
        good, d = self.good, self.good.ctx.d
        return {
            "field": field_descriptor(good.ctx),
            "d": d,
            "n": good.n,
            "analysis": good.analysis.value,
            "ideal_success": self.ideal,
            "approx_success": self.approx,
            "lemma2_lower_bound": self.lemma2,
            "corollary_bound": corollary_bound(d, good.n, good.cap),
            "good_sets": {
                "analysis": good.analysis.value,
                "D": good.cap,
                "x_good_count": self.x_good_count,
                "w_good_min": self.w_good_min,
                "w_good_mean": self.w_good_mean,
            },
        }


def success_report(orbits: Orbits, analysis: Analysis | str) -> SuccessReport:
    """The exact report of the analysis, named by member or by value, over
    the store's F^n, from one pass over the store's tables (_success_sums).

    The pass keeps each orbit representative's table in the store, so a
    Sampler built afterwards over the same store and the report's good sets
    enumerates nothing for the Monte Carlo or the outcome law.
    """
    good = GoodSets(orbits.ctx, orbits.n, analysis)
    return SuccessReport(good, *_success_sums(iter_eta_tables(orbits), good))
