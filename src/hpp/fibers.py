"""Fibers of the power-sum moment map and the good-set machinery built on them.

For a direction vector x in F^n, each point b in F^n is sent to

    w_i = sum_j b_j^i * x_j,   i = 1..n,

i.e. w = Phi(b) @ x where Phi(b) is the n x n matrix with entry (i, j) equal
to b_j^i.  S_w^x is the preimage of w and eta_w^x its cardinality.  The
fibers partition F^n, so counts over w always sum to d^n.  Everything the
measurement analysis needs, success probabilities, conditional outcome
distributions, block structures, reduces to these counts, so this module
computes them exactly (integer arithmetic throughout) by enumeration.  The
enumerator reads every term x_j * b^i from the field's log and antilog
tables (FieldCtx.log_tables, built once per field) through digit and
residue tables built once per (field, copies, rows): a table costs a gather
per coordinate, a broadcast sum and one gather that reduces every digit.

A direction x = lam * sigma(r), r the least point of its orbit under
scaling and permuting coordinates, has r's fiber sizes with every w scaled
by lam; a run's orbit store (Orbits) labels every point with its r and
lam, and keeps r's table.  So a pass over every direction enumerates once
per orbit: it meets r first, in code order, keeps r's table, and reads
every other table of the orbit from it at lam^-1 * w (_scaled_read).

Points of F^n are numbered by their big-endian base-d code (encode_point /
decode_point), which is also lexicographic order; fiber tables are dense
count arrays indexed by that code.

Two classifications of "good" (x, w) pairs are provided.  The first applies
whenever the characteristic exceeds n: x must have all coordinates nonzero
and the fiber must be nonempty with at most n! points (the product of the
degrees of the triangular eliminated system, which bounds any
zero-dimensional fiber).  The second is specific to n = 2: it requires
x1*x2*(x1+x2) != 0 and a nonempty fiber, with the cap 4 = 2*2.  For n = 2
the fiber over any such x can be read off two explicit quadratics, which is
what solve_n2_triangular does; brute-force enumeration stays available as
the oracle it is checked against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import GuardExceededError, InvariantViolationError
from .gf import Felt, FieldCtx, quadratic_roots

if TYPE_CHECKING:
    from fractions import Fraction

# Most points (d^n for one table, d^(2n) for a pass over every direction) an
# enumeration call will attempt.
ENUMERATION_BUDGET = 10**8

Point = tuple[Felt, ...]


def encode_point(point, d: int):
    """Big-endian base-d code of a point of F^n.

    The components may also be integer arrays of one shape, giving the codes
    elementwise.
    """
    code = 0
    for c in point:
        code = code * d + c
    return code


def decode_point(code: int, d: int, n: int) -> Point:
    """The point of F^n whose encode_point code is `code`."""
    out = []
    for _ in range(n):
        code, c = divmod(code, d)
        out.append(c)
    return tuple(reversed(out))


def apply_map(ctx: FieldCtx, x: Sequence[Felt], b: Sequence[Felt], rows: int | None = None):
    """w = Phi(b) @ x with rows power levels (defaults to len(x))."""
    if len(x) != len(b):
        raise ValueError(f"length mismatch: x has {len(x)}, b has {len(b)}")
    n = len(x) if rows is None else rows
    w = [0] * n
    for xj, bj in zip(x, b):
        ctx.check(xj)
        ctx.check(bj)
        pw = 1
        for i in range(n):
            pw = ctx.mul(pw, bj)
            w[i] = ctx.add(w[i], ctx.mul(xj, pw))
    return tuple(w)


@dataclass(eq=False)
class EtaTable:
    """All fiber sizes of one direction x.

    counts[c] is eta_w^x for the w with encode_point code c (length d^n, zero
    for empty fibers); eta_table's counts are read-only.  The fibers
    themselves are the lazy `solutions` property.
    """

    ctx: FieldCtx
    x: Point
    counts: np.ndarray

    @property
    def d(self) -> int:
        return self.ctx.d

    @property
    def n(self) -> int:
        return len(self.x)

    def eta(self, w: Sequence[Felt]) -> int:
        if len(w) != self.n:
            raise ValueError(f"w has {len(w)} components, expected {self.n}")
        return int(self.counts[encode_point(map(self.ctx.check, w), self.d)])

    def items(self) -> Iterator[tuple[Point, int]]:
        """(w, eta_w^x) for every nonempty fiber, in lexicographic order of w."""
        codes = np.flatnonzero(self.counts)
        for code, eta in zip(codes.tolist(), self.counts[codes].tolist()):
            yield decode_point(code, self.d, self.n), eta

    @cached_property
    def solutions(self) -> dict[Point, list[Point]]:
        """Each w with a nonempty fiber mapped to its points in lexicographic
        order.  Built on first use by enumerating F^n again."""
        d, n = self.d, self.n
        # A stable sort keeps each fiber in enumeration (lexicographic) order.
        order = np.argsort(_w_codes(self.ctx, self.x, n), kind="stable").tolist()
        points = [decode_point(b, d, n) for b in order]
        out = {}
        start = 0
        for w, eta in self.items():
            out[w] = points[start : start + eta]
            start += eta
        return out

    def check_partition(self) -> None:
        total = int(self.counts.sum())
        if total != self.d**self.n:
            raise InvariantViolationError(
                f"fiber sizes for x={self.x} sum to {total}, expected {self.d**self.n}"
            )


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _check_enum_budget(d: int, exponent: int) -> None:
    """Refuse an enumeration of d^exponent points above ENUMERATION_BUDGET."""
    if d**exponent > ENUMERATION_BUDGET:
        raise GuardExceededError(
            f"enumeration over {d}^{exponent} = {d**exponent} points exceeds the "
            f"budget of {ENUMERATION_BUDGET}"
        )


@lru_cache(maxsize=1)
def _enum_constants(ctx: FieldCtx, k: int, rows: int) -> tuple:
    """Constants of _w_codes for one (field, k, rows), as read-only arrays
    kept for the most recent call, the one cache that outlives a run: they
    grow with d, not d^n, and enumerations with no store share them
    (EtaTable.solutions, brute_fiber, eta_moments).  Plane P = e(rows - 1
    - i) + t holds digit t of w_i, digit P of the code.  A plane's digit
    table covers two antilog cycles and then zeros from Z = 2(d - 1), the
    log of zero, so a sum of two logs needs no mod.  Returns the logs as a
    list; index[P, b] = P * (2Z + 1) + the log of b^(i+1); the digit tables
    with (first) and without P * S added, S = k(p - 1) + 1 bounding a digit
    sum; and residues[P * S + s] = (s mod p) * p^P."""
    d, p, e = ctx.d, ctx.p, ctx.e
    log, exp = ctx.log_tables
    zero = 2 * (d - 1)
    levels = np.where(log == d - 1, zero, np.arange(rows, 0, -1)[:, None] * log % (d - 1))
    cycles = np.concatenate([exp[:-1], exp[:-1], np.zeros(zero + 1, np.int64)])
    planes = np.arange(rows * e)[:, None]
    size = k * (p - 1) + 1
    digits = np.tile(cycles // p ** np.arange(e)[:, None] % p, (rows, 1))
    index = np.repeat(levels, e, axis=0) + planes * len(cycles)
    residues = p**planes * (np.arange(size) % p)
    out = (index, (digits + planes * size).ravel(), digits.ravel(), residues.ravel())
    for a in out:
        a.flags.writeable = False
    return ([zero, *log[1:].tolist()], *out)


def _w_codes(ctx: FieldCtx, x: Point, rows: int) -> np.ndarray:
    """encode_point code of w = Phi(b) @ x, with `rows` power levels, for
    every b in F^len(x) in lexicographic order.

    Each term x_j * b^(i+1) is the antilog at log x_j + (i + 1) log b, and
    field addition adds base-p digits mod p: one gather per coordinate
    reads its terms' digit planes, a broadcast sum adds them over all b,
    and one gather reduces each digit sum mod p and places it in the code
    (_enum_constants).  Exact int64 arithmetic throughout.
    """
    logs, index, first, digits, residues = _enum_constants(ctx, len(x), rows)
    acc = first[logs[x[0]] :][index]
    for xj in x[1:]:
        acc = (acc[:, :, None] + digits[logs[xj] :][index][:, None, :]).reshape(len(index), -1)
    return residues[acc].sum(axis=0)


def _sort_rows(a: np.ndarray) -> None:
    """Sort each row of a 2-d array in place: odd-even transposition, one
    round of np.minimum/np.maximum over adjacent column pairs per column.
    Unlike ndarray.sort, it maps none of numpy's sort kernels."""
    cols = a.shape[1]
    for r in range(cols):
        lo, hi = a[:, r % 2 : cols - 1 : 2], a[:, r % 2 + 1 : cols : 2]
        least = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = least


class Orbits:
    """The orbit store of one run over F^n, read only through orbit().
    labels, built on first use: read-only int64 arrays rep and lam by code,
    with x = lam[c] * sigma(r) for the r coded rep[c] (direction_orbit);
    each nonzero x_c divides x in the log domain, and the least sorted code
    wins, then lam.  kept: each asked-for representative's read-only counts, by code."""

    def __init__(self, ctx: FieldCtx, n: int):
        _check_n(n)
        self.ctx, self.n, self.kept = ctx, n, {}

    @cached_property
    def labels(self) -> tuple[np.ndarray, np.ndarray]:
        d, n, (log, exp) = self.ctx.d, self.n, self.ctx.log_tables
        place = d ** np.arange(n - 1, -1, -1)
        points = np.arange(d**n)[:, None] // place % d
        logs = log[points]
        best = np.full(d**n, d ** (n + 1))
        best[0] = 1  # x = 0 is its own orbit, with lam = 1
        for c in range(n):
            divided = np.where(points == 0, 0, exp[(logs - logs[:, c : c + 1]) % (d - 1)])
            _sort_rows(divided)
            key = np.where(points[:, c] == 0, best, divided @ place * d + points[:, c])
            np.minimum(best, key, out=best)
        rep, lam = np.divmod(best, d)
        rep.flags.writeable = lam.flags.writeable = False
        return rep, lam

    def orbit(self, x: Sequence[Felt]) -> tuple[Point, Felt, np.ndarray]:
        """(r, lam, counts) with x = lam * sigma(r), counts being r's read-only
        table: enumerated and kept on the orbit's first use, then shared.

        x must be a point of the store's F^n (ValueError otherwise), and one
        table must fit ENUMERATION_BUDGET.  When a pass over F^n, d^(2n)
        points, exceeds it, x is its own r with lam 1, enumerated, and
        nothing is labelled or kept."""
        ctx, n = self.ctx, self.n
        x = tuple(map(ctx.check, x))
        if len(x) != n:
            raise ValueError(f"x has {len(x)} coordinates, expected {n}")
        _check_enum_budget(ctx.d, n)
        if ctx.d ** (2 * n) > ENUMERATION_BUDGET:
            return x, 1, _enumerate(ctx, x)
        (reps, lams), code = self.labels, encode_point(x, ctx.d)
        rep = int(reps[code])
        r = decode_point(rep, ctx.d, n)
        if rep not in self.kept:
            self.kept[rep] = _enumerate(ctx, r)
        return r, int(lams[code]), self.kept[rep]


def _enumerate(ctx: FieldCtx, x: Point) -> np.ndarray:
    """x's fiber sizes by code of w, enumerated, as a read-only array."""
    counts = np.bincount(_w_codes(ctx, x, len(x)), minlength=ctx.d ** len(x))
    counts.flags.writeable = False
    return counts


def _scaled_read(values: np.ndarray, ctx: FieldCtx, n: int, lam: Felt) -> np.ndarray:
    """values over F^n, by code, read at lam * a, lam nonzero: out[code(a)] =
    values[code(lam * a)], one row of d products from the log tables taken
    along each axis of values as a (d,) * n array.  An empty law stays empty."""
    if not values.size:
        return values
    log, exp = ctx.log_tables
    row = exp[(log + log[lam]) % (ctx.d - 1)]
    row[0] = 0
    out = values.reshape((ctx.d,) * n)
    for axis in range(n):
        out = out.take(row, axis=axis, mode="clip")  # row is in range: no bounds check
    return out.ravel()


def eta_table(orbits: Orbits, x: Sequence[Felt]) -> EtaTable:
    """Exact fiber sizes for one x of the store's F^n, as a read-only table.

    With x = lam * sigma(r) (Orbits.orbit, which checks x), x's counts at w
    are r's at lam^-1 * w: r's array itself when lam = 1, else read from
    it.  The counts are never writable: r's are shared.
    """
    x = tuple(x)
    _, lam, counts = orbits.orbit(x)
    if lam != 1:
        counts = _scaled_read(counts, orbits.ctx, orbits.n, orbits.ctx.inv(lam))
        counts.flags.writeable = False
    return EtaTable(ctx=orbits.ctx, x=x, counts=counts)


def brute_fiber(ctx: FieldCtx, x: Sequence[Felt], w: Sequence[Felt]) -> list[Point]:
    """S_w^x by brute force, in lexicographic order; the oracle for the solver."""
    x = tuple(x)
    w = tuple(w)
    n = len(x)
    d = ctx.d
    if len(w) != n:
        raise ValueError(f"w has {len(w)} components, expected {n}")
    for v in (*x, *w):
        ctx.check(v)
    _check_enum_budget(d, n)
    hits = np.flatnonzero(_w_codes(ctx, x, n) == encode_point(w, d))
    return [decode_point(b, d, n) for b in hits.tolist()]


def direction_orbit(ctx: FieldCtx, x: Sequence[Felt]) -> tuple[Point, Felt]:
    """(r, lam) with x = lam * sigma(r) for a permutation sigma of the
    coordinates, r being the least point of x's orbit under scaling by F*
    and permuting coordinates: the least sorted(x_i^-1 * x) over the
    nonzero x_i, zeros first, a tie going to the least lam = x_i.  x = 0 is
    its own orbit, with lam = 1; Orbits.labels is its array form.

    Permuting coordinates leaves the fiber sizes alone and scaling by lam
    scales every w, so the table of x is that of r with w scaled by lam.
    """
    return min(
        ((tuple(sorted(ctx.mul(ctx.inv(c), a) for a in x)), c) for c in x if c),
        default=(tuple(x), 1),
    )


def iter_eta_tables(orbits: Orbits) -> Iterator[EtaTable]:
    """One table per x in the store's F^n, lazily, in code order of x."""
    _check_enum_budget(orbits.ctx.d, 2 * orbits.n)
    return (eta_table(orbits, x) for x in product(range(orbits.ctx.d), repeat=orbits.n))


def eta_moments(ctx: FieldCtx, n: int, k: int | None = None) -> tuple[Fraction, Fraction]:
    """Exact first and second moments of eta over uniform (x, w).

    k is the number of oracle copies (columns of Phi); the default k = n is
    the regime everything else runs in, smaller k is a diagnostic.  The
    first moment is d^(k-n) exactly, which doubles as a self-check here.
    """
    from fractions import Fraction  # only this reads it; it loads decimal

    _check_n(n)
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"copy count k must be in 1..{n}, got {k}")
    d = ctx.d
    _check_enum_budget(d, k + n)
    total_eta = 0
    total_eta_sq = 0
    for x in product(range(d), repeat=k):
        # Only the d^k codes that occur are counted, never all d^n targets.
        _, sizes = np.unique(_w_codes(ctx, x, n), return_counts=True)
        total_eta += int(sizes.sum())
        total_eta_sq += int(sizes @ sizes)
    pairs = d ** (k + n)
    first = Fraction(total_eta, pairs)
    second = Fraction(total_eta_sq, pairs)
    if first != Fraction(d ** k, d ** n):
        raise InvariantViolationError(
            f"first moment came out {first}, expected d^(k-n) = {Fraction(d**k, d**n)}"
        )
    return first, second


# -- the explicit n = 2 solver ------------------------------------------------


def n2_constraint(ctx: FieldCtx, x: Sequence[Felt]) -> Felt:
    """x1*x2*(x1+x2): nonzero exactly when the n = 2 elimination is sound."""
    if len(x) != 2:
        raise ValueError(f"constraint is defined for n = 2, got {len(x)} coordinates")
    x1, x2 = x
    return ctx.mul(ctx.mul(x1, x2), ctx.add(x1, x2))


def elimination_quadratic(
    ctx: FieldCtx, x: Sequence[Felt], w: Sequence[Felt], var: int
) -> tuple[Felt, Felt, Felt]:
    """Coefficients (a2, a1, a0) of the quadratic whose roots contain every
    feasible value of coordinate `var` (0 or 1) of a fiber point at n = 2.

    Eliminating the other coordinate from  b1*x1 + b2*x2 = w1,
    b1^2*x1 + b2^2*x2 = w2  gives, for b1,

        -(x1*x2 + x1^2) T^2 + 2*w1*x1 T + (w2*x2 - w1^2) = 0,

    and symmetrically for b2 with x1 and x2 exchanged.  The leading
    coefficient is -x1*(x1+x2), nonzero whenever n2_constraint(x) != 0.
    """
    if var not in (0, 1):
        raise ValueError("var selects coordinate 0 or 1")
    x1, x2 = (x[0], x[1]) if var == 0 else (x[1], x[0])
    w1, w2 = w
    two = 2 % ctx.p
    a2 = ctx.neg(ctx.mul(x1, ctx.add(x1, x2)))
    a1 = ctx.mul(two, ctx.mul(w1, x1))
    a0 = ctx.sub(ctx.mul(w2, x2), ctx.mul(w1, w1))
    return a2, a1, a0


SECOND_ANALYSIS_CAP = 4


def solve_n2_triangular(ctx: FieldCtx, x: Sequence[Felt], w: Sequence[Felt]) -> list[Point]:
    """S_w^x at n = 2 without enumeration: root-find two quadratics, filter.

    Requires x1*x2*(x1+x2) != 0 so both quadratics are honest (nonzero
    leading coefficient, at most two roots each).  Candidate coordinates are
    combined and checked against the defining equations, so at most
    4 = 2*2 solutions survive; the final filter makes the answer immune to
    any labeling convention in the eliminated quadratics.
    """
    x = tuple(x)
    w = tuple(w)
    if len(x) != 2 or len(w) != 2:
        raise ValueError("triangular solver is specific to n = 2")
    for v in (*x, *w):
        ctx.check(v)
    if n2_constraint(ctx, x) == 0:
        raise ValueError(
            f"x = {x} is outside the solvable set: x1*x2*(x1+x2) must be nonzero"
        )
    roots1 = quadratic_roots(ctx, *elimination_quadratic(ctx, x, w, 0))
    roots2 = quadratic_roots(ctx, *elimination_quadratic(ctx, x, w, 1))
    out = sorted(
        {
            (b1, b2)
            for b1 in roots1
            for b2 in roots2
            if apply_map(ctx, x, (b1, b2)) == w
        }
    )
    if len(out) > SECOND_ANALYSIS_CAP:
        raise InvariantViolationError(
            f"triangular solve found {len(out)} points at x={x}, w={w}; cap is "
            f"{SECOND_ANALYSIS_CAP}"
        )
    return out


# -- good-set classification ---------------------------------------------------


class Analysis(str, Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class GoodSets:
    """Membership predicates for good directions x and good targets w.

    First analysis (characteristic > n): x in (F*)^n, 1 <= eta <= n!.
    Second analysis (n = 2 only): x1*x2*(x1+x2) != 0, eta >= 1, cap 4.
    The second-analysis cap is a theorem rather than part of the predicate,
    so violating it raises instead of classifying the pair as bad.

    The analysis may be named by member or by value ("first"); one that
    does not apply to (field, n) raises ValueError.  A plain value,
    compared and hashed by its three fields, the cap derived from them.
    Both predicates are invariant under the orbit maps of Orbits.labels,
    which is what lets pgm.Sampler keep one outcome law per direction orbit.
    """

    ctx: FieldCtx
    n: int
    analysis: Analysis

    def __post_init__(self):
        _check_n(self.n)
        # A plain name must be coerced before any identity test (ValueError
        # for an unknown one): "first" == Analysis.FIRST but is not it.
        object.__setattr__(self, "analysis", Analysis(self.analysis))
        p, n = self.ctx.p, self.n
        if self.analysis is Analysis.FIRST:
            if p <= n:
                raise ValueError(f"first analysis needs characteristic > n; got p = {p}, n = {n}")
        elif n != 2:
            raise ValueError(f"second analysis is specific to n = 2, got n = {n}")
        elif self.ctx.d < 3:
            raise ValueError("second analysis needs at least 3 field elements")

    @property
    def cap(self) -> int:
        # The product of the triangular degrees, n!, bounds a zero-dimensional fiber.
        return math.factorial(self.n) if self.analysis is Analysis.FIRST else SECOND_ANALYSIS_CAP

    def x_good(self, x: Sequence[Felt]) -> bool:
        if len(x) != self.n:
            raise ValueError(f"x has {len(x)} coordinates, expected {self.n}")
        if self.analysis is Analysis.FIRST:
            return 0 not in x
        return n2_constraint(self.ctx, x) != 0

    def w_good(self, x: Sequence[Felt], eta):
        """Good-target test at direction x, elementwise: eta is one fiber
        size or an array of them, and the result has the same shape."""
        eta = np.asarray(eta)
        x_good = self.x_good(x)
        if self.analysis is Analysis.SECOND and x_good and (eta > self.cap).any():
            raise InvariantViolationError(
                f"fiber size {eta.max()} exceeds the cap {self.cap} over the "
                f"classified-good direction x={tuple(x)}"
            )
        return x_good & (eta >= 1) & (eta <= self.cap)


def pick_analysis(ctx: FieldCtx, n: int) -> Analysis:
    """Default rule: first analysis when the characteristic allows it."""
    if ctx.p > n:
        return Analysis.FIRST
    if n == 2:
        return Analysis.SECOND
    raise ValueError(
        f"no applicable analysis for p = {ctx.p}, n = {n} "
        "(first needs p > n, second needs n = 2)"
    )


def write_eta_csv(
    tables: Iterable[EtaTable], fh: TextIO, include_solutions: bool = False
) -> None:
    """CSV export to the text stream fh: columns x, w, eta (semicolon-joined
    digit codes), lex order in w.

    Only w with nonempty fibers get rows.
    """
    writer = csv.writer(fh, lineterminator="\n")
    header = ["x", "w", "eta"] + (["solutions"] if include_solutions else [])
    writer.writerow(header)
    for table in tables:
        x_label = ";".join(str(c) for c in table.x)
        for w, eta in table.items():
            row = [x_label, ";".join(str(c) for c in w), eta]
            if include_solutions:
                row.append(
                    "|".join(",".join(str(c) for c in b) for b in table.solutions[w])
                )
            writer.writerow(row)
