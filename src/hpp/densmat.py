"""Dense linear-algebra model of the measurement pipeline, used as an oracle.

This module rebuilds the states and operators from first principles with
numpy matrices so the closed-form fiber arithmetic elsewhere can be checked
against an independent computation.  Registers over F are d-dimensional with
basis vectors indexed by the integer element codes; multi-register spaces
use row-major (big-endian) composite indexing, so |u> tensor |v> sits at
index u*d + v.

The single-copy query state for a hidden univariate polynomial Q is

    rho_Q = (1/d) sum_z |phi_z><phi_z|,   |phi_z> = (1/sqrt d) sum_r |r>|Q(r)+z>,

equivalently (1/d^2) sum_{b,c} |b><c| (x) S_{Q(b)-Q(c)} with S the cyclic
shift by a field element.  Conjugating the second register by the character
transform diagonalizes the shifts and makes the state block-diagonal over
the measured direction x.  The n-copy state is the n-th tensor power of that
state, so its block at measured directions (x_1..x_n) is the Kronecker
product of the single-copy blocks at each x_j; its entries are characters
of fiber data.  The good-subspace isometry V_x is assembled from the fibers
as a relabeling of points (an index map), followed by an embedded
uniform-to-point Fourier transform of size eta controlled on a fiber-size
register (one small kernel per fiber label), followed by uncomputation of
that register (a row permutation).  Dimension guards keep every matrix at
desk scale: d <= 31 for one copy, d^n <= 625 for the n-copy pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import GuardExceededError, InvariantViolationError
from .fibers import EtaTable, GoodSets, Orbits, Point, decode_point, encode_point, eta_table
from .gf import FieldCtx, chi
from .polyring import UniPoly, eval_uni

# Single-copy density matrices are (d^2)^2 complex entries; cap d.
MAX_SINGLE_COPY_D = 31

# The n-copy pipeline works on d^n-dimensional point registers, and V_x has
# d^n * (cap^2 + 1) rows; cap d^n, which admits n = 2 up to GF(5^2).
MAX_PIPELINE_DIM = 625


def dft_matrix(ctx: FieldCtx) -> np.ndarray:
    """Character transform F[x, y] = chi(x*y) / sqrt(d); unitary."""
    d = ctx.d
    m = np.empty((d, d), dtype=np.complex128)
    for x in range(d):
        for y in range(d):
            m[x, y] = chi(ctx, ctx.mul(x, y))
    return m / math.sqrt(d)


def shift_operator(ctx: FieldCtx, delta: int) -> np.ndarray:
    """Permutation matrix S_delta |y> = |y + delta>."""
    ctx.check(delta)
    d = ctx.d
    m = np.zeros((d, d), dtype=np.complex128)
    for y in range(d):
        m[ctx.add(y, delta), y] = 1.0
    return m


def build_rho_q(ctx: FieldCtx, q: UniPoly) -> np.ndarray:
    """Single-copy query state on registers (point, value); d^2 x d^2.

    Built twice, once as a mixture of the pure states |phi_z> and once from
    shift operators, and the two are required to agree; disagreement would
    mean the state preparation and the shift decomposition drifted apart.
    """
    d = ctx.d
    if d > MAX_SINGLE_COPY_D:
        raise GuardExceededError(
            f"single-copy state needs d <= {MAX_SINGLE_COPY_D}, got {d}"
        )
    values = [eval_uni(q, r) for r in range(d)]

    rho_pure = np.zeros((d * d, d * d), dtype=np.complex128)
    for z in range(d):
        vec = np.zeros(d * d, dtype=np.complex128)
        for r in range(d):
            vec[r * d + ctx.add(values[r], z)] = 1.0
        vec /= math.sqrt(d)
        rho_pure += np.outer(vec, vec.conj())
    rho_pure /= d

    rho_shift = np.zeros_like(rho_pure)
    shifts = [shift_operator(ctx, delta) for delta in range(d)]
    for b in range(d):
        for c in range(d):
            delta = ctx.sub(values[b], values[c])
            rho_shift[b * d : b * d + d, c * d : c * d + d] = shifts[delta]
    rho_shift /= d * d

    if not np.allclose(rho_pure, rho_shift, atol=1e-12):
        raise InvariantViolationError(
            "pure-state and shift-operator constructions of the query state disagree"
        )
    return rho_pure


def conjugate_fourier(ctx: FieldCtx, rho: np.ndarray) -> np.ndarray:
    """Apply the character transform to the value register: (I (x) F) rho (I (x) F)^dag."""
    d = ctx.d
    if rho.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d} x {d * d} matrix, got {rho.shape}")
    u = np.kron(np.eye(d, dtype=np.complex128), dft_matrix(ctx))
    return u @ rho @ u.conj().T


def _check_pipeline_dim(d: int, n: int) -> None:
    if d**n > MAX_PIPELINE_DIM:
        raise GuardExceededError(
            f"{n}-copy pipeline dimension d^n = {d**n} exceeds {MAX_PIPELINE_DIM}"
        )


def direction_block(ctx: FieldCtx, q: UniPoly, x: Point) -> np.ndarray:
    """Unnormalized block of the n-copy state at measured directions x.

    The n-copy state is the n-th tensor power of the Fourier-conjugated
    single-copy state, so its block at x is the Kronecker product over the
    copies of the single-copy blocks at x_1..x_n.  The returned d^n x d^n
    matrix, indexed by point codes, carries the factor 1/d^(2n); its trace
    is the probability 1/d^n of measuring x.
    """
    d = ctx.d
    _check_pipeline_dim(d, len(x))
    single = conjugate_fourier(ctx, build_rho_q(ctx, q)).reshape(d, d, d, d)
    block = np.ones((1, 1), dtype=np.complex128)
    for xj in map(ctx.check, x):
        block = np.kron(block, single[:, xj, :, xj])
    return block


def x_marginals(ctx: FieldCtx, q: UniPoly, n: int) -> dict[Point, float]:
    """Probability of each measured direction tuple; uniform by symmetry.

    The trace of a Kronecker product is the product of the traces, so each
    marginal is the product of the single-copy block traces at x_1..x_n, and
    the single-copy state is built once for all d^n directions.
    """
    d = ctx.d
    _check_pipeline_dim(d, n)
    single = conjugate_fourier(ctx, build_rho_q(ctx, q)).reshape(d, d, d, d)
    traces = np.einsum("bxbx->x", single).real.tolist()
    return {x: math.prod(traces[xj] for xj in x) for x in product(range(d), repeat=n)}


@dataclass
class VxIsometry:
    """The good-subspace relabeling isometry for one direction x.

    matrix maps the d^n input space into a direct sum: a good sector indexed
    by (w, j, eta) with rank j in {0..cap-1} and fiber size eta stored mod
    cap (sizes run 1..cap, so slot 0 doubles as eta = cap), followed by a
    flagged sector holding the input basis vectors outside the good set.  On
    a normalized fiber state |S_w> with good w the action is |S_w> -> |w, 0, 0>.
    """

    ctx: FieldCtx
    x: Point
    cap: int
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def good_dim(self) -> int:
        return self.ctx.d**self.n * self.cap * self.cap

    def good_index(self, w: Point, j: int = 0, eta: int = 0) -> int:
        return (encode_point(w, self.ctx.d) * self.cap + j) * self.cap + eta

    def w_state(self, w: Point) -> np.ndarray:
        vec = np.zeros(self.matrix.shape[0], dtype=np.complex128)
        vec[self.good_index(w)] = 1.0
        return vec


def build_vx(ctx: FieldCtx, table: EtaTable, good: GoodSets) -> VxIsometry:
    """Assemble V_x = (uncompute eta) o (embedded Fourier) o (relabel).

    Step one sends a good-set point b to |w(b), rank of b in its fiber,
    eta_w mod cap>; points outside the good set go to the flagged sector.
    Step two applies the size-eta uniform Fourier transform on the rank
    register, controlled on the eta register, sending uniform fiber
    superpositions to rank 0.  Step three subtracts eta_w from the eta
    register (mod cap, a permutation) to disentangle it.  Each step is
    applied to the images of the input basis: the relabel is an index map,
    the Fourier step is one cap^2 x cap^2 kernel per w block, and the
    uncompute is a permutation of rows.
    """
    d = ctx.d
    n = table.n
    _check_pipeline_dim(d, n)
    cap = good.cap
    x = table.x
    dim_in = d**n
    good_dim = dim_in * cap * cap
    dim_out = good_dim + dim_in

    # Step 1: relabel points by (fiber label, rank within fiber, fiber size);
    # dest[b] is the output index of input point b, flagged by default.
    dest = good_dim + np.arange(dim_in)
    for wcode in np.flatnonzero(good.w_good(x, table.counts)).tolist():
        eta = int(table.counts[wcode])
        for j, b in enumerate(table.solutions[decode_point(wcode, d, n)]):
            dest[encode_point(b, d)] = (wcode * cap + j) * cap + eta % cap

    # Step 2: embedded Fourier on the rank register, controlled on fiber size.
    # Register slot 0 stands for eta = cap; good fibers never have eta = 0.
    kernel = np.zeros((cap * cap, cap * cap), dtype=np.complex128)
    for slot in range(cap):
        eta = cap if slot == 0 else slot
        f = np.eye(cap, dtype=np.complex128)
        omega = np.exp(2j * np.pi / eta)
        for a in range(eta):
            for b in range(eta):
                f[a, b] = omega ** (a * b) / math.sqrt(eta)
        for a in range(cap):
            for b in range(cap):
                kernel[a * cap + slot, b * cap + slot] = f[a, b]
    # A flagged point keeps its unit vector; a good point relabeled to
    # (w, j, slot) becomes kernel column j*cap + slot within w's cap^2 rows.
    relabeled = np.zeros((dim_out, dim_in), dtype=np.complex128)
    flagged = dest >= good_dim
    relabeled[dest[flagged], np.flatnonzero(flagged)] = 1.0
    bs = np.flatnonzero(~flagged)
    w_block, local = np.divmod(dest[bs], cap * cap)
    rows = w_block * cap * cap + np.arange(cap * cap)[:, None]
    relabeled[rows, bs] = kernel[:, local]

    # Step 3: uncompute the fiber-size register, conditioned on w: row
    # (w, j, eta) moves to (w, j, eta - eta_w mod cap).
    w, j, eta = np.unravel_index(np.arange(good_dim), (dim_in, cap, cap))
    target = np.arange(dim_out)
    target[:good_dim] = (w * cap + j) * cap + (eta - table.counts[w]) % cap
    matrix = np.empty_like(relabeled)
    matrix[target] = relabeled

    if not np.allclose(matrix.conj().T @ matrix, np.eye(dim_in), atol=1e-10):
        raise InvariantViolationError(f"V_x for x={x} failed the isometry check")
    return VxIsometry(ctx=ctx, x=x, cap=cap, matrix=matrix)


def fourier_point_basis(ctx: FieldCtx, n: int) -> np.ndarray:
    """Column c is |psi_q'> = (1/sqrt(d^n)) sum_w chi(<q', w>) |w> for the
    q' with code c: the n-fold Kronecker power of the character transform,
    because chi(<q', w>) is the product of the chi(q'_j * w_j)."""
    f = dft_matrix(ctx)
    basis = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        basis = np.kron(basis, f)
    return basis


def pipeline_probability(
    ctx: FieldCtx, q: UniPoly, x: Point, good: GoodSets
) -> tuple[float, np.ndarray]:
    """(good-branch mass, probs) for one direction x, computed end to end
    through explicit matrices: probs[encode_point(q', d)] is P[outcome = q'
    | good branch], pgm.outcome_distribution's q = 0 law read at q' - q.

    Builds the n-copy state's block at the measured directions, projects
    onto the good-set points, applies V_x, and reads every outcome's
    probability off the diagonal of the resulting state in the Fourier point
    basis.  Returns (0.0, np.empty(0)) when the good branch is unreachable
    at this x.
    """
    d = ctx.d
    n = len(x)
    if n != good.n:
        raise ValueError(f"x has {n} coordinates but the good sets expect {good.n}")
    block = direction_block(ctx, q, x)
    tr = np.trace(block).real
    if abs(tr - 1.0 / d**n) > 1e-10:
        raise InvariantViolationError(
            f"direction block at x={x} has trace {tr}, expected 1/d^n"
        )
    rho_x = block / tr

    table = eta_table(Orbits(ctx, n), x)
    keep = np.zeros(d**n)
    for wcode in np.flatnonzero(good.w_good(x, table.counts)).tolist():
        for b in table.solutions[decode_point(wcode, d, n)]:
            keep[encode_point(b, d)] = 1.0
    mass = float(np.real(np.sum(keep * np.diag(rho_x).real)))
    if not keep.any():
        return 0.0, np.empty(0)

    projected = rho_x * np.outer(keep, keep)
    rho_good = projected / mass

    vx = build_vx(ctx, table, good)

    # The Fourier point states live on the |w, 0, 0> slots of the output, so
    # only those rows of V_x rho V_x^dag are formed.
    points = [decode_point(code, d, n) for code in range(d**n)]
    w_rows = vx.matrix[[vx.good_index(w) for w in points]]
    on_w = w_rows @ rho_good @ w_rows.conj().T
    psi = fourier_point_basis(ctx, n)
    return mass, np.einsum("wc,wc->c", psi.conj(), on_w @ psi).real
