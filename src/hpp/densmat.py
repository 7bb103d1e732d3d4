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
the measured direction x; n copies then collapse, given measured directions
(x_1..x_n), to a block whose entries are characters of fiber data.  The
good-subspace isometry V_x is assembled from the fibers as a relabeling,
followed by an embedded uniform-to-point Fourier transform of size eta
controlled on a fiber-size register, followed by uncomputation of that
register.  Dimension guards keep every matrix at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GuardExceededError, InvariantViolationError
from .fibers import EtaTable, GoodSets, Point, decode_point, encode_point, eta_table
from .gf import FieldCtx, chi, dot
from .polyring import UniPoly, eval_uni

# Single-copy density matrices are (d^2)^2 complex entries; cap d.
MAX_SINGLE_COPY_D = 31

# The n-copy pipeline handles d^(2n) total dimension; cap at n = 2, d <= 7.
MAX_PIPELINE_D = 7


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


@lru_cache(maxsize=2)
def copies_state(ctx: FieldCtx, q: UniPoly, n: int) -> np.ndarray:
    """n-fold tensor power of the Fourier-conjugated single-copy state,
    with registers reordered to (points..., directions...).

    Cached because direction sweeps slice the same state d^n times; callers
    must treat the returned array as read-only.
    """
    d = ctx.d
    if d**(2 * n) > (MAX_PIPELINE_D**4):
        raise GuardExceededError(
            f"{n}-copy state dimension d^(2n) = {d ** (2 * n)} exceeds the guard"
        )
    single = conjugate_fourier(ctx, build_rho_q(ctx, q))
    full = single
    for _ in range(n - 1):
        full = np.kron(full, single)
    # Axes are (b_1, x_1, b_2, x_2, ...); bring all b's forward.
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    tensor = full.reshape((d,) * (4 * n))
    tensor = tensor.transpose(perm + [2 * n + i for i in perm])
    return tensor.reshape(d ** (2 * n), d ** (2 * n))


def direction_block(ctx: FieldCtx, q: UniPoly, x: Point) -> np.ndarray:
    """Unnormalized block of the n-copy state at measured directions x.

    The returned d^n x d^n matrix carries the factor 1/d^(2n); its trace is
    the probability 1/d^n of measuring x.
    """
    d = ctx.d
    n = len(x)
    full = copies_state(ctx, q, n)
    xcode = encode_point(map(ctx.check, x), d)
    view = full.reshape(d**n, d**n, d**n, d**n)
    return np.ascontiguousarray(view[:, xcode, :, xcode])


def x_marginals(ctx: FieldCtx, q: UniPoly, n: int) -> dict[Point, float]:
    """Probability of each measured direction tuple; uniform by symmetry."""
    from itertools import product as _product

    d = ctx.d
    out = {}
    for x in _product(range(d), repeat=n):
        block = direction_block(ctx, q, x)
        out[x] = float(np.trace(block).real)
    return out


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

    Needs a table with stored solutions.  Step one sends a good-set point b
    to |w(b), rank of b in its fiber, eta_w mod cap>; points outside the good
    set go to the flagged sector.  Step two applies the size-eta uniform
    Fourier transform on the rank register, controlled on the eta register,
    sending uniform fiber superpositions to rank 0.  Step three subtracts
    eta_w from the eta register (mod cap, a permutation) to disentangle it.
    """
    if table.solutions is None:
        raise ValueError("build_vx needs an eta table built with store_solutions=True")
    d = ctx.d
    n = table.n
    if d > MAX_PIPELINE_D or n != 2:
        raise GuardExceededError(
            f"V_x construction is guarded to n = 2, d <= {MAX_PIPELINE_D}"
        )
    cap = good.cap
    x = table.x
    dim_in = d**n
    good_dim = dim_in * cap * cap
    dim_out = good_dim + dim_in

    def gidx(wcode: int, j: int, eta: int) -> int:
        return (wcode * cap + j) * cap + eta

    # Step 1: relabel points by (fiber label, rank within fiber, fiber size).
    relabel = np.zeros((dim_out, dim_in), dtype=np.complex128)
    for wcode in np.flatnonzero(good.w_good(x, table.counts)).tolist():
        eta = int(table.counts[wcode])
        for j, b in enumerate(table.solutions[decode_point(wcode, d, n)]):
            relabel[gidx(wcode, j, eta % cap), encode_point(b, d)] = 1.0
    flagged = np.flatnonzero(~relabel.any(axis=0))
    for bcode in flagged:
        relabel[good_dim + bcode, bcode] = 1.0

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
    embedded = np.kron(np.eye(dim_in, dtype=np.complex128), kernel)
    fourier = np.eye(dim_out, dtype=np.complex128)
    fourier[:good_dim, :good_dim] = embedded

    # Step 3: uncompute the fiber-size register, conditioned on w.
    uncompute = np.zeros_like(fourier)
    uncompute[good_dim:, good_dim:] = np.eye(dim_in)
    for wcode in range(dim_in):
        eta_w = int(table.counts[wcode]) % cap
        for j in range(cap):
            for eta in range(cap):
                uncompute[gidx(wcode, j, (eta - eta_w) % cap), gidx(wcode, j, eta)] = 1.0

    matrix = uncompute @ fourier @ relabel
    if not np.allclose(matrix.conj().T @ matrix, np.eye(dim_in), atol=1e-10):
        raise InvariantViolationError(f"V_x for x={x} failed the isometry check")
    return VxIsometry(ctx=ctx, x=x, cap=cap, matrix=matrix)


def fourier_point_state(ctx: FieldCtx, qprime: Point, n: int) -> np.ndarray:
    """|psi_q'> = (1/sqrt(d^n)) sum_w chi(<q', w>) |w> on the w register."""
    from itertools import product as _product

    d = ctx.d
    vec = np.empty(d**n, dtype=np.complex128)
    for idx, w in enumerate(_product(range(d), repeat=n)):
        vec[idx] = chi(ctx, dot(ctx, qprime, w))
    return vec / math.sqrt(d**n)


def pipeline_probability(
    ctx: FieldCtx, q: UniPoly, x: Point, good: GoodSets
) -> tuple[float, float]:
    """(good-branch mass, P[q' = q | good branch]) for one direction x,
    computed end to end through explicit matrices.

    Builds the n-copy state, collapses on the measured directions, projects
    onto the good-set points, applies V_x, and measures in the Fourier point
    basis.  Returns (0, 0) when the good branch is unreachable at this x.
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

    table = eta_table(ctx, x, store_solutions=True)
    keep = np.zeros(d**n)
    for wcode in np.flatnonzero(good.w_good(x, table.counts)).tolist():
        for b in table.solutions[decode_point(wcode, d, n)]:
            keep[encode_point(b, d)] = 1.0
    mass = float(np.real(np.sum(keep * np.diag(rho_x).real)))
    if not keep.any():
        return 0.0, 0.0

    projected = rho_x * np.outer(keep, keep)
    rho_good = projected / mass

    vx = build_vx(ctx, table, good)
    sigma = vx.matrix @ rho_good @ vx.matrix.conj().T

    coeffs = tuple(q.coeff(i) for i in range(1, n + 1))
    psi = np.zeros(sigma.shape[0], dtype=np.complex128)
    w_basis = fourier_point_state(ctx, coeffs, n)
    for wcode in range(d**n):
        psi[vx.good_index(decode_point(wcode, d, n))] = w_basis[wcode]
    prob = float(np.real(psi.conj() @ sigma @ psi))
    return mass, prob
