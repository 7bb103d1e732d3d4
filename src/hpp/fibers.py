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
tables (FieldCtx.log_tables), so one table costs a few numpy calls and no
field multiplication; the tables are built once per field, in about
log2(d) numpy steps.

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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import GuardExceededError, InvariantViolationError
from .gf import Felt, FieldCtx, quadratic_roots

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
    for empty fibers).  The fibers themselves are the lazy `solutions`
    property.
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


def _w_codes(ctx: FieldCtx, x: Point, rows: int) -> np.ndarray:
    """encode_point code of w = Phi(b) @ x, with `rows` power levels, for
    every b in F^len(x) in lexicographic order.

    Each term x_j * b^(i+1) is one lookup in the field's antilog table, at
    (log x_j + (i+1) * log b) mod (d - 1), or at the zero index when x_j or b
    is zero.  Field addition is digit-wise addition mod p, so the terms are
    split into base-p digits, each coordinate's digits are summed over one
    broadcast grid of all b and reduced mod p in place, and one product with
    the place weights p^t * d^(rows-1-i) of digit t of w_i gives the codes.
    A prime field is the one-digit case.  Exact int64 arithmetic throughout.
    """
    d, p, e, k = ctx.d, ctx.p, ctx.e, len(x)
    log, exp = ctx.log_tables
    xs = np.asarray(x, dtype=np.int64)
    levels = np.arange(1, rows + 1, dtype=np.int64)[:, None]
    # idx[j, i, b] indexes x_j * b^(i+1) in exp; d - 1 is the zero element.
    idx = (log[xs][:, None, None] + levels * log) % (d - 1)
    idx[:, :, 0] = d - 1  # b = 0
    for j, xj in enumerate(x):
        if xj == 0:
            idx[j] = d - 1
    place = p ** np.arange(e, dtype=np.int64)
    digits = (exp[idx][:, :, None, :] // place[:, None] % p).reshape(k, rows * e, d)
    acc = 0
    for j in range(k):
        acc = acc + digits[j].reshape((-1,) + (1,) * j + (d,) + (1,) * (k - 1 - j))
    acc %= p
    weights = d ** (rows - levels) * place
    return weights.ravel() @ acc.reshape(rows * e, -1)


def eta_table(ctx: FieldCtx, x: Sequence[Felt]) -> EtaTable:
    """Exact fiber sizes for one x by full enumeration of F^n."""
    x = tuple(x)
    n = len(x)
    d = ctx.d
    _check_n(n)
    for xi in x:
        ctx.check(xi)
    _check_enum_budget(d, n)
    codes = _w_codes(ctx, x, n)
    return EtaTable(ctx=ctx, x=x, counts=np.bincount(codes, minlength=d**n))


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
    nonzero x_i, zeros first.  x = 0 is its own orbit, with lam = 1.

    Permuting coordinates leaves the fiber sizes alone and scaling by lam
    scales every w, so the table of x is that of r with w scaled by lam.
    """
    return min(
        ((tuple(sorted(ctx.div(xi, c) for xi in x)), c) for c in x if c),
        default=(tuple(x), 1),
    )


def iter_eta_tables(ctx: FieldCtx, n: int) -> Iterator[EtaTable]:
    """One table per x in F^n, lazily, in lexicographic order of x."""
    _check_n(n)
    _check_enum_budget(ctx.d, 2 * n)
    return (eta_table(ctx, x) for x in product(range(ctx.d), repeat=n))


def eta_tables(ctx: FieldCtx, n: int) -> dict[Point, EtaTable]:
    """iter_eta_tables collected into a dict keyed by direction."""
    return {t.x: t for t in iter_eta_tables(ctx, n)}


def eta_moments(ctx: FieldCtx, n: int, k: int | None = None) -> tuple[Fraction, Fraction]:
    """Exact first and second moments of eta over uniform (x, w).

    k is the number of oracle copies (columns of Phi); the default k = n is
    the regime everything else runs in, smaller k is a diagnostic.  The
    first moment is d^(k-n) exactly, which doubles as a self-check here.
    """
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


@dataclass(frozen=True, eq=False)
class GoodSets:
    """Membership predicates for good directions x and good targets w.

    First analysis (characteristic > n): x in (F*)^n, 1 <= eta <= n!.
    Second analysis (n = 2 only): x1*x2*(x1+x2) != 0, eta >= 1, cap 4.
    The second-analysis cap is a theorem rather than part of the predicate,
    so violating it raises instead of classifying the pair as bad.

    Compared and hashed by identity, since it holds all of pgm's outcome
    law state.  Both predicates are invariant under direction_orbit's
    maps, so pgm caches one outcome law per direction orbit here, keyed by
    the orbit's representative, and one draw record per direction in
    _draws, indexed by the direction's encode_point code.
    """

    ctx: FieldCtx
    n: int
    analysis: Analysis
    cap: int
    _orbit_laws: dict = field(default_factory=dict, init=False, repr=False)

    def x_good(self, x: Sequence[Felt]) -> bool:
        if len(x) != self.n:
            raise ValueError(f"x has {len(x)} coordinates, expected {self.n}")
        if self.analysis is Analysis.FIRST:
            return 0 not in x
        return n2_constraint(self.ctx, x) != 0

    @cached_property
    def _draws(self) -> list:
        """pgm's draw record of each direction, by code; None until the
        direction's first draw."""
        return [None] * self.ctx.d**self.n

    @cached_property
    def points(self) -> list[Point]:
        """Every point of F^n, indexed by its encode_point code; decoded once,
        it turns a sampled code into an outcome."""
        d, n = self.ctx.d, self.n
        return [decode_point(code, d, n) for code in range(d**n)]

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


def good_sets(ctx: FieldCtx, n: int, analysis: Analysis) -> GoodSets:
    _check_n(n)
    if analysis is Analysis.FIRST:
        if ctx.p <= n:
            raise ValueError(
                f"first analysis needs characteristic > n; got p = {ctx.p}, n = {n}"
            )
        # The product of the triangular degrees, n!, bounds a zero-dimensional fiber.
        return GoodSets(ctx=ctx, n=n, analysis=analysis, cap=math.factorial(n))
    if n != 2:
        raise ValueError(f"second analysis is specific to n = 2, got n = {n}")
    if ctx.d < 3:
        raise ValueError("second analysis needs at least 3 field elements")
    return GoodSets(ctx=ctx, n=n, analysis=analysis, cap=SECOND_ANALYSIS_CAP)


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
