import cmath
import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpp.errors import GuardExceededError
from hpp.gf import (
    FieldCtx,
    chi,
    dot,
    field_descriptor,
    make_field,
    parse_field,
    quadratic_roots,
    sqrt_elem,
    trace,
)

FIELDS = [make_field(3), make_field(5), make_field(7), parse_field("2^2"),
          parse_field("2^3"), parse_field("3^2")]


def test_parse_and_describe_roundtrip():
    for desc in ("3", "5", "2^2", "2^3", "3^2", "13"):
        ctx = parse_field(desc)
        assert parse_field(field_descriptor(ctx)) == ctx
    assert field_descriptor(make_field(7)) == "7"
    assert field_descriptor(parse_field("2^2")) == "2^2"


def test_rejects_non_prime_and_oversize():
    with pytest.raises(ValueError):
        parse_field("4")
    with pytest.raises(ValueError):
        parse_field("6^2")
    with pytest.raises(GuardExceededError):
        parse_field("2^21")
    # Both are refused by the size cap before a primality test or p**e runs.
    # Each is parsed in a child process with a timeout, so a regression that
    # runs either fails the test instead of hanging the suite.
    probe = (
        "import sys\n"
        "from hpp.errors import GuardExceededError\n"
        "from hpp.gf import parse_field\n"
        "try:\n"
        "    parse_field(sys.argv[1])\n"
        "except GuardExceededError:\n"
        "    sys.exit(0)\n"
        "sys.exit('parse_field accepted ' + sys.argv[1])\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for desc in ("1000000000000000003", "3^99999999999"):
        proc = subprocess.run(
            [sys.executable, "-c", probe, desc],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == 0, (desc, proc.stderr)


def test_deterministic_moduli():
    # lowest integer encoding among monic irreducibles
    assert parse_field("2^2").modulus == (1, 1, 1)      # t^2+t+1
    assert parse_field("2^3").modulus == (1, 1, 0, 1)   # t^3+t+1
    assert parse_field("3^2").modulus == (1, 0, 1)      # t^2+1


def test_field_axioms_seeded_samples():
    rng = random.Random("gf-axioms")
    for ctx in FIELDS:
        d = ctx.d
        for _ in range(1000):
            a, b, c = (rng.randrange(d) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, ctx.neg(a)) == 0
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
                assert ctx.div(b, a) == ctx.mul(b, ctx.inv(a))


@given(
    ctx=st.sampled_from(FIELDS),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_field_axioms_property(ctx, data):
    elt = st.integers(min_value=0, max_value=ctx.d - 1)
    a, b, c = data.draw(elt), data.draw(elt), data.draw(elt)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.pow(a, ctx.d) == a  # x^d = x in GF(d)
    if a:
        assert ctx.pow(a, ctx.d - 1) == 1


def test_gf4_trace_and_character():
    ctx = parse_field("2^2")
    assert trace(ctx, 0) == 0
    assert trace(ctx, 1) == 0  # 1 + 1^2 = 0 in char 2
    assert trace(ctx, 2) == 1  # t + t^2 = t + t + 1 = 1
    assert trace(ctx, 3) == 1
    assert chi(ctx, 0) == pytest.approx(1.0)
    assert chi(ctx, 2) == pytest.approx(-1.0)


@given(ctx=st.sampled_from(FIELDS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_trace_additive_and_chi_multiplicative(ctx, data):
    elt = st.integers(min_value=0, max_value=ctx.d - 1)
    a, b = data.draw(elt), data.draw(elt)
    s = ctx.add(a, b)
    assert trace(ctx, s) == (trace(ctx, a) + trace(ctx, b)) % ctx.p
    assert chi(ctx, s) == pytest.approx(chi(ctx, a) * chi(ctx, b))
    # trace is Frobenius-invariant
    assert trace(ctx, ctx.pow(a, ctx.p)) == trace(ctx, a)


def test_character_orthogonality():
    for desc in ("3", "2^2", "5", "2^3", "3^2"):
        ctx = parse_field(desc)
        for u in range(ctx.d):
            total = sum(chi(ctx, ctx.mul(u, a)) for a in range(ctx.d))
            expect = ctx.d if u == 0 else 0.0
            assert abs(total - expect) < 1e-9, (desc, u)


def _frobenius_trace(ctx, a):
    acc = frob = a
    for _ in range(ctx.e - 1):
        frob = ctx.pow(frob, ctx.p)
        acc = ctx.add(acc, frob)
    return acc


@pytest.mark.parametrize("desc", ["7", "2^2", "2^3", "2^4", "3^2", "3^3", "5^2"])
def test_trace_matches_literal_frobenius_sum(desc):
    ctx = parse_field(desc)
    for a in range(ctx.d):
        assert trace(ctx, a) == _frobenius_trace(ctx, a), (desc, a)
    # the trace form gives Tr(a*b) from the digits of a and b
    form = ctx.trace_form
    rng = random.Random(f"trace-form:{desc}")
    for _ in range(200):
        a, b = rng.randrange(ctx.d), rng.randrange(ctx.d)
        da, db = ctx.digits(a), ctx.digits(b)
        bilinear = sum(
            da[j] * form[j][k] * db[k] for j in range(ctx.e) for k in range(ctx.e)
        )
        assert bilinear % ctx.p == _frobenius_trace(ctx, ctx.mul(a, b)), (desc, a, b)


def test_trace_surjective_onto_prime_field():
    for ctx in FIELDS:
        values = {trace(ctx, a) for a in range(ctx.d)}
        assert values == set(range(ctx.p))


def test_dot_product():
    ctx = make_field(5)
    assert dot(ctx, (1, 2), (3, 4)) == (3 + 8) % 5
    assert dot(ctx, (), ()) == 0


def test_sqrt_vs_brute_force():
    for desc in ("3", "5", "7", "13", "2^2", "2^3", "3^2", "2^4", "3^3", "5^2", "7^2"):
        ctx = parse_field(desc)
        for a in range(ctx.d):
            want = sorted(t for t in range(ctx.d) if ctx._mul_poly(t, t) == a)
            assert sqrt_elem(ctx, a) == want, (desc, a)


def _pow_poly(ctx, a, k):
    """a^k by square-and-multiply over the polynomial product, k >= 0."""
    out = 1
    while k:
        if k & 1:
            out = ctx._mul_poly(out, a)
        a = ctx._mul_poly(a, a)
        k >>= 1
    return out


@pytest.mark.parametrize("desc", ["2^4", "3^3", "5^2", "2^9"])
def test_table_arithmetic_matches_square_and_multiply(desc):
    ctx = parse_field(desc)
    d = ctx.d
    rng = random.Random(f"table-arithmetic:{desc}")
    elements = range(d) if d <= 32 else [0, 1, d - 1, *rng.sample(range(2, d - 1), 40)]
    exponents = [0, 1, 2, 3, d - 2, d - 1, d, d + 1, 2 * d + 5, rng.randrange(d**2)]
    for a in elements:
        for k in exponents:
            assert ctx.pow(a, k) == _pow_poly(ctx, a, k), (desc, a, k)
        squares = sorted({t for t in range(d) if ctx._mul_poly(t, t) == a})
        assert sqrt_elem(ctx, a) == squares, (desc, a)
        if a == 0:
            continue
        a_inv = _pow_poly(ctx, a, d - 2)
        assert ctx._mul_poly(a, a_inv) == 1
        assert ctx.inv(a) == a_inv, (desc, a)
        for k in (1, 2, d, rng.randrange(1, d**2)):
            assert ctx.pow(a, -k) == _pow_poly(ctx, a_inv, k), (desc, a, -k)
        b = rng.randrange(d)
        assert ctx.div(b, a) == ctx._mul_poly(b, a_inv), (desc, b, a)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, d) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


def test_first_extension_multiplication_builds_only_the_log_tables(monkeypatch):
    # A fresh GF(2^9) spends its polynomial products on the log tables alone:
    # one walk over the powers of each candidate generator.
    calls = []
    real = FieldCtx._mul_poly

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(FieldCtx, "_mul_poly", counting)
    ctx = parse_field("2^9")
    assert ctx.mul(3, 5) == real(ctx, 3, 5)
    assert len(calls) <= 3 * ctx.d, len(calls)


def test_char2_squaring_is_bijective():
    for desc in ("2^2", "2^3"):
        ctx = parse_field(desc)
        images = {ctx.mul(a, a) for a in range(ctx.d)}
        assert len(images) == ctx.d
        for a in range(ctx.d):
            assert len(sqrt_elem(ctx, a)) == 1


def test_quadratic_roots_vs_brute_force():
    for desc in ("3", "5", "7", "2^2", "2^3", "2^4", "3^2"):
        ctx = parse_field(desc)
        for a2, a1, a0 in product(range(ctx.d), repeat=3):
            if a2 == 0 and a1 == 0:
                continue
            want = sorted(
                t
                for t in range(ctx.d)
                if ctx.add(ctx.add(ctx.mul(a2, ctx.mul(t, t)), ctx.mul(a1, t)), a0) == 0
            )
            assert quadratic_roots(ctx, a2, a1, a0) == want, (desc, a2, a1, a0)


def test_quadratic_roots_degenerate_rejected():
    ctx = make_field(5)
    with pytest.raises(ValueError):
        quadratic_roots(ctx, 0, 0, 3)


def test_chi_values_are_unit_modulus():
    for ctx in FIELDS:
        for a in range(ctx.d):
            assert abs(abs(chi(ctx, a)) - 1.0) < 1e-12
        # chi lands in p-th roots of unity
        root = cmath.exp(2j * math.pi / ctx.p)
        for a in range(ctx.d):
            assert min(
                abs(chi(ctx, a) - root**k) for k in range(ctx.p)
            ) < 1e-9
