"""Polynomials over a finite field: univariate and sparse multivariate forms.

Univariate polynomials are dense coefficient tuples indexed by exponent with
trailing zeros trimmed.  Multivariate polynomials are sparse maps from
exponent vectors to nonzero coefficients, kept in graded-lexicographic order
so that serialization and iteration are deterministic.  Evaluation,
restriction and the Lagrange basis are all exact field arithmetic; nothing
here ever touches floating point.

Evaluation and restriction read the field's discrete-log/antilog tables
(FieldCtx._log_lists) on every GF(p^e): one antilog per term, one reduction
per sum.  A term c * prod v_i^a_i is the wide antilog (FieldCtx._wide) at
(log c + sum a_i*log v_i) mod (d - 1), dropped when a zero coordinate
carries a nonzero exponent; the terms add as plain integers and
FieldCtx._narrow turns each sum into an element.  Each polynomial caches its
terms' coefficient logs and nonzero (position, exponent) pairs, and checks
its term count against the wide-sum bound when it builds them.

The Lagrange basis L_i = prod_{j != i} (X - t_j) / (t_i - t_j) over a set of
abscissae is built in one place, _lagrange_basis.  The reduction weights
whole coefficient maps by it, so it interpolates every coefficient
polynomial from one basis per recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .gf import Felt, FieldCtx


def monomials(arity: int, max_total_degree: int):
    """All nonconstant exponent vectors with total degree <= bound, in
    graded-lex order, built degree by degree from multisets of variables."""
    out = []
    for degree in range(1, max_total_degree + 1):
        group = []
        for variables in combinations_with_replacement(range(arity), degree):
            alpha = [0] * arity
            for i in variables:
                alpha[i] += 1
            group.append(tuple(alpha))
        out.extend(sorted(group))
    return out


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies X^i."""

    ctx: FieldCtx
    coeffs: tuple[Felt, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        for c in trimmed:
            self.ctx.check(c)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    def coeff(self, i: int) -> Felt:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def constant_term(self) -> Felt:
        return self.coeff(0)


def eval_uni(q: UniPoly, r: Felt) -> Felt:
    """q(r), one antilog per nonzero term; r = 0 keeps only the constant."""
    ctx = q.ctx
    ctx.check(r)
    ctx._check_wide(len(q.coeffs))
    log, wide = ctx._log_lists[0], ctx._wide
    order, lr, acc = ctx.d - 1, log[r], 0
    for i, c in enumerate(q.coeffs):
        if c and (r or not i):
            acc += wide[(log[c] + i * lr) % order]
    return ctx._narrow(acc)


def _lagrange_basis(ctx: FieldCtx, ts: Sequence[Felt]) -> list[list[Felt]]:
    """Coefficient lists of L_i = prod_{j != i} (X - t_j) / (t_i - t_j) over
    pairwise distinct abscissae ts; each has len(ts) entries."""
    out = []
    for i, ti in enumerate(ts):
        # Numerator polynomial prod_{j != i} (X - t_j), built incrementally.
        basis = [1]
        denom = 1
        for j, tj in enumerate(ts):
            if j == i:
                continue
            neg_tj = ctx.neg(tj)
            nxt = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] = ctx.add(nxt[k], ctx.mul(c, neg_tj))
                nxt[k + 1] = ctx.add(nxt[k + 1], c)
            basis = nxt
            denom = ctx.mul(denom, ctx.sub(ti, tj))
        scale = ctx.inv(denom)
        out.append([ctx.mul(scale, c) for c in basis])
    return out


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial over a fixed field.

    terms maps exponent vectors (length == arity) to nonzero coefficients and
    is stored as a graded-lex-sorted tuple of pairs so instances hash and
    compare by mathematical content.
    """

    ctx: FieldCtx
    arity: int
    terms: tuple[tuple[tuple[int, ...], Felt], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        cleaned = {}
        for alpha, c in self.terms:
            alpha = tuple(alpha)
            if len(alpha) != self.arity:
                raise ValueError(f"exponent vector {alpha} does not match arity {self.arity}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            self.ctx.check(c)
            if c != 0:
                if alpha in cleaned:
                    raise ValueError(f"duplicate exponent vector {alpha}")
                cleaned[alpha] = c
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(cleaned.items(), key=lambda kv: (sum(kv[0]), kv[0]))),
        )

    @property
    def total_degree(self) -> int:
        return max((sum(a) for a, _ in self.terms), default=-1)

    def coeff(self, alpha: Sequence[int]) -> Felt:
        key = tuple(alpha)
        for a, c in self.terms:
            if a == key:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Felt:
        return self.coeff((0,) * self.arity)

    @cached_property
    def _factors(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """(log c, nonzero (position, exponent) pairs) per term; cached
        outside the dataclass fields, so == and hash ignore it.  Every sum
        over the terms is a wide sum, so their count is checked here."""
        self.ctx._check_wide(len(self.terms))
        log = self.ctx._log_lists[0]
        return tuple(
            (log[c], tuple((i, a) for i, a in enumerate(alpha) if a)) for alpha, c in self.terms
        )

    @cached_property
    def _tops(self) -> tuple[int, ...]:
        """The largest exponent of each variable."""
        return tuple(max((a[i] for a, _ in self.terms), default=0) for i in range(self.arity))


def multi_poly(
    ctx: FieldCtx,
    arity: int,
    terms: Mapping[Sequence[int], Felt] | Iterable[tuple[Sequence[int], Felt]],
) -> MultiPoly:
    items = terms.items() if isinstance(terms, Mapping) else terms
    return MultiPoly(ctx, arity, tuple((tuple(a), c) for a, c in items))


def eval_multi(q: MultiPoly, point: Sequence[Felt]) -> Felt:
    """Evaluate at a point of F^arity."""
    ctx = q.ctx
    point = ctx.check_point(point, q.arity)
    log, wide = ctx._log_lists[0], ctx._wide
    order, acc = ctx.d - 1, 0
    for k, factors in q._factors:
        for i, a in factors:
            if not point[i]:
                break
            k += a * log[point[i]]
        else:
            acc += wide[k % order]
    return ctx._narrow(acc)


def _restrict(q: MultiPoly, point: Sequence[Felt], free: int) -> list[Felt]:
    """Coefficients, by power of variable `free`, of q with every other
    variable fixed to its coordinate in point (point[free] is not read)."""
    ctx = q.ctx
    log, wide = ctx._log_lists[0], ctx._wide
    order = ctx.d - 1
    sums = [0] * (q._tops[free] + 1)
    for k, factors in q._factors:
        power = 0
        for i, a in factors:
            if i == free:
                power = a
            elif not point[i]:
                break
            else:
                k += a * log[point[i]]
        else:
            sums[power] += wide[k % order]
    return list(map(ctx._narrow, sums))


def format_multipoly(q: MultiPoly) -> str:
    if q.is_zero():
        return "0"
    parts = []
    for alpha, c in q.terms:
        factors = [str(c)]
        factors += [f"X{i + 1}^{a}" for i, a in enumerate(alpha) if a != 0]
        parts.append("*".join(factors) if len(factors) > 1 or sum(alpha) == 0 else str(c))
    return "+".join(parts)
