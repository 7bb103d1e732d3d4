import math
from itertools import product

import numpy as np
import pytest

from hpp.densmat import (
    MAX_PIPELINE_DIM,
    build_rho_q,
    build_vx,
    conjugate_fourier,
    dft_matrix,
    direction_block,
    fourier_point_basis,
    pipeline_probability,
    shift_operator,
    x_marginals,
)
from hpp.errors import GuardExceededError
from hpp.fibers import Analysis, GoodSets, Orbits, decode_point, encode_point, eta_table
from hpp.gf import chi, dot, make_field, parse_field
from hpp.polyring import UniPoly, eval_uni

F3 = make_field(3)
F5 = make_field(5)
F4 = parse_field("2^2")


def _copies_state(ctx, q, n):
    """The whole d^(2n)-square n-copy state: the n-th tensor power of the
    Fourier-conjugated single-copy state, registers reordered to
    (points..., directions...).  The reference direction_block's Kronecker
    factorization is checked against."""
    d = ctx.d
    single = conjugate_fourier(ctx, build_rho_q(ctx, q))
    full = single
    for _ in range(n - 1):
        full = np.kron(full, single)
    # Axes are (b_1, x_1, b_2, x_2, ...); bring all b's forward.
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    tensor = full.reshape((d,) * (4 * n))
    tensor = tensor.transpose(perm + [2 * n + i for i in perm])
    return tensor.reshape(d ** (2 * n), d ** (2 * n))


def _dense_vx(ctx, table, good):
    """V_x as the product of its three factors, each a dense dim_out-square
    matrix: the reference build_vx's index-map construction is checked
    against."""
    d, n, cap, x = ctx.d, table.n, good.cap, table.x
    dim_in = d**n
    good_dim = dim_in * cap * cap
    dim_out = good_dim + dim_in

    def gidx(wcode, j, eta):
        return (wcode * cap + j) * cap + eta

    relabel = np.zeros((dim_out, dim_in), dtype=np.complex128)
    for wcode in np.flatnonzero(good.w_good(x, table.counts)).tolist():
        eta = int(table.counts[wcode])
        for j, b in enumerate(table.solutions[decode_point(wcode, d, n)]):
            relabel[gidx(wcode, j, eta % cap), encode_point(b, d)] = 1.0
    for bcode in np.flatnonzero(~relabel.any(axis=0)):
        relabel[good_dim + bcode, bcode] = 1.0

    kernel = np.zeros((cap * cap, cap * cap), dtype=np.complex128)
    for slot in range(cap):
        eta = cap if slot == 0 else slot
        f = np.eye(cap, dtype=np.complex128)
        for a in range(eta):
            for b in range(eta):
                f[a, b] = np.exp(2j * np.pi * a * b / eta) / math.sqrt(eta)
        for a in range(cap):
            for b in range(cap):
                kernel[a * cap + slot, b * cap + slot] = f[a, b]
    fourier = np.eye(dim_out, dtype=np.complex128)
    fourier[:good_dim, :good_dim] = np.kron(np.eye(dim_in), kernel)

    uncompute = np.zeros_like(fourier)
    uncompute[good_dim:, good_dim:] = np.eye(dim_in)
    for wcode in range(dim_in):
        eta_w = int(table.counts[wcode]) % cap
        for j in range(cap):
            for eta in range(cap):
                uncompute[gidx(wcode, j, (eta - eta_w) % cap), gidx(wcode, j, eta)] = 1.0
    return uncompute @ (fourier @ relabel)


def _density_checks(rho):
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.allclose(rho, rho.conj().T, atol=1e-10)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() > -1e-10


def test_dft_unitary():
    for ctx in (F3, F5, F4, parse_field("2^3")):
        f = dft_matrix(ctx)
        assert np.allclose(f @ f.conj().T, np.eye(ctx.d), atol=1e-12)


def test_shift_operators_compose():
    for a in range(5):
        for b in range(5):
            lhs = shift_operator(F5, a) @ shift_operator(F5, b)
            rhs = shift_operator(F5, F5.add(a, b))
            assert np.allclose(lhs, rhs)


def test_rho_q_is_a_density_operator():
    for ctx, coeffs in ((F3, (0, 1, 2)), (F5, (0, 2, 0, 1)), (F4, (0, 3))):
        rho = build_rho_q(ctx, UniPoly(ctx, coeffs))
        _density_checks(rho)


def test_rho_q_zero_polynomial_structure():
    # Q = 0: entry ((b,s),(c,s')) = 1/d^2 exactly when s = s'
    d = 3
    rho = build_rho_q(F3, UniPoly(F3, ()))
    for b in range(d):
        for s in range(d):
            for c in range(d):
                for s2 in range(d):
                    want = 1 / d**2 if s == s2 else 0.0
                    assert abs(rho[b * d + s, c * d + s2] - want) < 1e-12


def test_rho_q_guard():
    big = make_field(37)
    with pytest.raises(GuardExceededError):
        build_rho_q(big, UniPoly(big, (0, 1)))


def test_block_diagonal_after_fourier():
    # entries mixing different second-register values must vanish
    for ctx, coeffs in ((F3, (0, 2, 1)), (F5, (0, 1, 3)), (F4, (0, 2))):
        d = ctx.d
        rho = conjugate_fourier(ctx, build_rho_q(ctx, UniPoly(ctx, coeffs)))
        off = 0.0
        for b in range(d):
            for x1 in range(d):
                for c in range(d):
                    for x2 in range(d):
                        if x1 != x2:
                            off += abs(rho[b * d + x1, c * d + x2])
        assert off < 1e-10
        # block x=0 is flat
        block0 = rho.reshape(d, d, d, d)[:, 0, :, 0]
        assert np.allclose(block0, np.full((d, d), 1 / d**2), atol=1e-12)


def test_single_copy_block_entries():
    # block x: entry (b, c) = chi(x * (Q(b) - Q(c))) / d^2
    ctx = F5
    q = UniPoly(ctx, (0, 3, 2))
    rho = conjugate_fourier(ctx, build_rho_q(ctx, q))
    d = ctx.d
    view = rho.reshape(d, d, d, d)
    for x in range(d):
        for b in range(d):
            for c in range(d):
                delta = ctx.sub(eval_uni(q, b), eval_uni(q, c))
                want = chi(ctx, ctx.mul(x, delta)) / d**2
                assert abs(view[b, x, c, x] - want) < 1e-12


def test_direction_block_trace_and_marginals():
    q = UniPoly(F3, (0, 1, 2))
    marg = x_marginals(F3, q, 2)
    for x, p in marg.items():
        assert abs(p - 1 / 9) < 1e-10
    assert abs(sum(marg.values()) - 1.0) < 1e-10
    for x in ((0, 0), (1, 2), (2, 1)):
        assert abs(np.trace(direction_block(F3, q, x)).real - marg[x]) < 1e-12, x


def test_marginals_reach_the_pipeline_guard():
    # one single-copy state serves all 625 directions of GF(5^2), n = 2
    ctx = parse_field("5^2")
    q = UniPoly(ctx, (0, 7, 3))
    marg = x_marginals(ctx, q, 2)
    assert len(marg) == 625
    assert max(abs(p - 1 / 625) for p in marg.values()) < 1e-12
    assert abs(np.trace(direction_block(ctx, q, (3, 17))).real - marg[3, 17]) < 1e-12
    with pytest.raises(GuardExceededError):
        x_marginals(ctx, q, 3)


def test_two_copy_block_matches_fiber_reconstruction():
    # inside block x the matrix is sum_{w,v} chi(<q,w>-<q,v>) sqrt(eta_w eta_v)
    # |S_w><S_v| / d^(2n), rebuilt here from the fiber lists
    ctx = F3
    qc = (2, 1)
    q = UniPoly(ctx, (0, *qc))
    d, n = 3, 2
    orbits = Orbits(ctx, n)
    for x in product(range(d), repeat=n):
        block = direction_block(ctx, q, x)
        table = eta_table(orbits, x)
        want = np.zeros((d**n, d**n), dtype=np.complex128)
        for w, bs in table.solutions.items():
            for v, cs in table.solutions.items():
                phase = chi(ctx, ctx.sub(dot(ctx, qc, w), dot(ctx, qc, v)))
                for b in bs:
                    for c in cs:
                        want[b[0] * d + b[1], c[0] * d + c[1]] += phase
        want /= d ** (2 * n)
        assert np.allclose(block, want, atol=1e-10), x


def test_copies_state_is_density_operator():
    full = _copies_state(F3, UniPoly(F3, (0, 1, 1)), 2)
    _density_checks(full)


@pytest.mark.parametrize(
    "desc,analyses", [("3", "first second"), ("2^2", "second"), ("5", "first second"),
                      ("7", "first second")]
)
def test_factored_block_and_vx_equal_full_constructions(desc, analyses):
    ctx = parse_field(desc)
    d, n = ctx.d, 2
    q = UniPoly(ctx, (0, 2 % d, 1))
    full = _copies_state(ctx, q, n).reshape(d**n, d**n, d**n, d**n)
    for x in product(range(d), repeat=n):
        want = full[:, encode_point(x, d), :, encode_point(x, d)]
        assert np.abs(direction_block(ctx, q, x) - want).max() <= 1e-12, x
    for analysis in analyses.split():
        good = GoodSets(ctx, n, Analysis(analysis))
        orbits = Orbits(ctx, n)
        for x in product(range(d), repeat=n):
            table = eta_table(orbits, x)
            got = build_vx(ctx, table, good).matrix
            assert np.abs(got - _dense_vx(ctx, table, good)).max() <= 1e-12, (analysis, x)


def test_vx_isometry_and_fiber_contract():
    for ctx, analysis in ((F3, Analysis.FIRST), (F5, Analysis.FIRST),
                          (F4, Analysis.SECOND), (F5, Analysis.SECOND)):
        good = GoodSets(ctx, 2, analysis)
        d = ctx.d
        orbits = Orbits(ctx, 2)
        for x in product(range(d), repeat=2):
            if not good.x_good(x):
                continue
            table = eta_table(orbits, x)
            vx = build_vx(ctx, table, good)
            v = vx.matrix
            assert np.allclose(v.conj().T @ v, np.eye(d**2), atol=1e-10)
            for w, eta in table.items():
                if not good.w_good(x, eta):
                    continue
                state = np.zeros(d**2, dtype=np.complex128)
                for b in table.solutions[w]:
                    state[b[0] * d + b[1]] = 1 / math.sqrt(eta)
                out = v @ state
                assert np.linalg.norm(out - vx.w_state(w)) < 1e-10, (ctx.d, x, w)


def test_vx_flags_bad_points_orthogonally():
    ctx = F5
    good = GoodSets(ctx, 2, Analysis.FIRST)
    x = (1, 4)  # degenerate direction: x1 + x2 = 0, fiber of size d at w = 0
    table = eta_table(Orbits(ctx, 2), x)
    assert good.x_good(x)
    vx = build_vx(ctx, table, good)
    for b in table.solutions[(0, 0)]:
        e_b = np.zeros(25, dtype=np.complex128)
        e_b[b[0] * 5 + b[1]] = 1.0
        out = vx.matrix @ e_b
        assert np.linalg.norm(out[: vx.good_dim]) < 1e-10
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_pipeline_guards_point_register_dimension():
    for desc, n in (("3^3", 2), ("7", 4)):
        big = parse_field(desc)
        assert big.d**n > MAX_PIPELINE_DIM
        x = (1,) * n
        with pytest.raises(GuardExceededError):
            build_vx(big, eta_table(Orbits(big, n), x), GoodSets(big, n, Analysis.FIRST))
        with pytest.raises(GuardExceededError):
            direction_block(big, UniPoly(big, (0, 1)), x)


def test_fourier_point_states_orthonormal():
    for ctx, n in ((F3, 2), (F4, 2), (F3, 3)):
        d = ctx.d
        basis = fourier_point_basis(ctx, n)
        points = list(product(range(d), repeat=n))
        # column c is the literal character sum for the q' with code c
        for c, qp in enumerate(points):
            want = [chi(ctx, dot(ctx, qp, w)) / math.sqrt(d**n) for w in points]
            assert np.abs(basis[:, c] - want).max() < 1e-12, (d, qp)
        assert np.allclose(basis.conj().T @ basis, np.eye(d**n), atol=1e-10)


def test_pipeline_matches_analytic_law():
    # The pipeline measures at q = qc; the analytic law is the q = 0 one,
    # read at q' - qc.
    from hpp.pgm import Sampler, outcome_distribution

    cases = [
        ("3", Analysis.FIRST, (1, 2)),
        ("2^2", Analysis.SECOND, (3, 1)),
        ("5", Analysis.FIRST, (2, 3)),
        ("5", Analysis.SECOND, (2, 3)),
    ]
    for desc, analysis, qc in cases:
        ctx = parse_field(desc)
        good = GoodSets(ctx, 2, analysis)
        sampler = Sampler(good, Orbits(ctx, 2))
        q = UniPoly(ctx, (0, *qc))
        for x in product(range(ctx.d), repeat=2):
            mass, law = pipeline_probability(ctx, q, x, good)
            probs, law_mass = outcome_distribution(sampler, x)
            assert abs(mass - law_mass) < 1e-9, (desc, x)
            assert law.shape == probs.shape, (desc, x)
            for qprime in product(range(ctx.d), repeat=2) if law.size else ():
                code = encode_point(qprime, ctx.d)
                shifted = encode_point(map(ctx.sub, qprime, qc), ctx.d)
                assert abs(law[code] - probs[shifted]) < 1e-9, (desc, x, qprime)


def test_pipeline_bad_direction_returns_zero():
    good = GoodSets(F5, 2, Analysis.SECOND)
    mass, law = pipeline_probability(F5, UniPoly(F5, (0, 1, 1)), (0, 3), good)
    assert mass == 0.0 and law.shape == (0,)


def test_good_mass_is_good_point_fraction():
    ctx = F5
    good = GoodSets(ctx, 2, Analysis.FIRST)
    q = UniPoly(ctx, (0, 2, 1))
    orbits = Orbits(ctx, 2)
    for x in ((1, 2), (3, 3), (2, 4)):
        table = eta_table(orbits, x)
        n_good = sum(
            eta for w, eta in table.items() if good.w_good(x, eta)
        )
        mass, _ = pipeline_probability(ctx, q, x, good)
        assert abs(mass - n_good / 25) < 1e-12
