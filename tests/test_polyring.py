import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpp.blackbox import make_instance
from hpp.gf import make_field, parse_field
from hpp.polyring import (
    MultiPoly,
    UniPoly,
    eval_multi,
    eval_uni,
    format_multipoly,
    from_unipoly,
    lagrange_interpolate,
    monomials,
    multi_poly,
    substitute,
    to_unipoly,
)
from hpp.reduction import univariate_oracle_view

F5 = make_field(5)
F7 = make_field(7)
F4 = parse_field("2^2")


def test_monomials_graded_lex():
    assert monomials(2, 2) == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert monomials(1, 3) == [(1,), (2,), (3,)]
    # The bounding-box filter, sorted by (total degree, vector), is the reference.
    for arity in range(6):
        for bound in range(5):
            box = product(range(bound + 1), repeat=arity)
            want = sorted((a for a in box if 0 < sum(a) <= bound), key=lambda a: (sum(a), a))
            assert monomials(arity, bound) == want, (arity, bound)
    # Many variables cost as much as the output, not (bound + 1)^arity.
    assert monomials(1000, 1) == [
        tuple(int(j == i) for j in range(1000)) for i in reversed(range(1000))
    ]


def test_unipoly_degree_and_trim():
    assert UniPoly(F5, (0, 0, 0)).degree == -1
    assert UniPoly(F5, (3, 0, 0)).degree == 0
    assert UniPoly(F5, (0, 1, 2, 0)).degree == 2
    assert UniPoly(F5, (0, 1)).coeff(7) == 0


def test_eval_uni_horner():
    q = UniPoly(F7, (1, 2, 3))  # 1 + 2X + 3X^2
    for r in range(7):
        assert eval_uni(q, r) == (1 + 2 * r + 3 * r * r) % 7


def test_interpolate_fixture():
    # three points on X^2 over GF(7)
    q = lagrange_interpolate(F7, [(1, 1), (2, 4), (3, 2)], degree_bound=2)
    assert q.coeffs == (0, 0, 1)


def test_interpolate_degree_bound_violation():
    # points of a cubic cannot fit a quadratic
    pts = [(r, pow(r, 3, 7)) for r in range(4)]
    with pytest.raises(ValueError):
        lagrange_interpolate(F7, pts, degree_bound=2)


def test_interpolate_rejects_duplicates():
    with pytest.raises(ValueError):
        lagrange_interpolate(F5, [(1, 1), (1, 2)], degree_bound=1)


def test_eval_interpolate_roundtrip_random():
    rng = random.Random("roundtrip")
    for _ in range(500):
        ctx = rng.choice([F5, F7, F4])
        deg = rng.randrange(0, min(4, ctx.d - 1))
        coeffs = tuple(rng.randrange(ctx.d) for _ in range(deg + 1))
        q = UniPoly(ctx, coeffs)
        pts = rng.sample(range(ctx.d), deg + 1)
        viewed = [(r, eval_uni(q, r)) for r in pts]
        back = lagrange_interpolate(ctx, viewed, degree_bound=deg)
        assert back == q


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_interpolation_matches_everywhere(data):
    ctx = data.draw(st.sampled_from([F5, F7, F4]))
    deg = data.draw(st.integers(min_value=0, max_value=2))
    coeffs = tuple(
        data.draw(st.integers(min_value=0, max_value=ctx.d - 1)) for _ in range(deg + 1)
    )
    q = UniPoly(ctx, coeffs)
    pts = [(r, eval_uni(q, r)) for r in range(deg + 1)]
    back = lagrange_interpolate(ctx, pts, degree_bound=deg)
    for r in range(ctx.d):
        assert eval_uni(back, r) == eval_uni(q, r)


def test_multi_poly_canonicalization():
    q = multi_poly(F5, 2, {(1, 0): 2, (0, 1): 0, (1, 1): 3})
    assert q.terms == (((1, 0), 2), ((1, 1), 3))
    with pytest.raises(ValueError):
        multi_poly(F5, 2, {(1,): 2})  # wrong arity
    with pytest.raises(ValueError):
        multi_poly(F5, 2, {(1, 0): 5})  # out-of-range coefficient


def test_eval_multi():
    # X1*X2 + 2*X1^2 over GF(5)
    q = multi_poly(F5, 2, {(1, 1): 1, (2, 0): 2})
    for x1 in range(5):
        for x2 in range(5):
            assert eval_multi(q, (x1, x2)) == (x1 * x2 + 2 * x1 * x1) % 5


def test_substitute_matches_eval():
    rng = random.Random("subst")
    for _ in range(200):
        ctx = rng.choice([F5, F7])
        terms = {}
        for mono in monomials(3, 2):
            terms[mono] = rng.randrange(ctx.d)
        q = multi_poly(ctx, 3, terms)
        fixed = {0: rng.randrange(ctx.d), 2: rng.randrange(ctx.d)}
        restricted = substitute(q, fixed)
        assert restricted.arity == 1
        for t in range(ctx.d):
            full_point = (fixed[0], t, fixed[2])
            assert eval_multi(restricted, (t,)) == eval_multi(q, full_point)


def test_substitute_requires_free_variable():
    q = multi_poly(F5, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        substitute(q, {0: 1, 1: 2})


def test_slice_fixture():
    # X1*X2 + X2^2 at X2=2 over GF(5): 2*X1 + 4
    q = multi_poly(F5, 2, {(1, 1): 1, (0, 2): 1})
    s = substitute(q, {1: 2})
    assert s.arity == 1
    assert dict(s.terms) == {(1,): 2, (0,): 4}


def test_uni_multi_conversions():
    q = UniPoly(F7, (0, 3, 0, 5))
    m = from_unipoly(q, degree_bound=3)
    assert m.arity == 1
    assert to_unipoly(m) == q
    with pytest.raises(ValueError):
        to_unipoly(multi_poly(F7, 2, {(1, 1): 1}))


def test_formatting():
    m = multi_poly(F5, 2, {(1, 0): 3, (1, 1): 1})
    assert format_multipoly(m) == "3*X1^1+1*X1^1*X2^1"


POWER_ROW_FIELDS = [parse_field(f) for f in ("7", "13", "2^3", "3^2")]


def _literal_term(ctx, c, values, alpha):
    for v, a in zip(values, alpha):
        c = ctx.mul(c, ctx.pow(v, a))
    return c


def _literal_eval(q, point):
    """Sum over terms of c * prod v_i^a_i, each power by ctx.pow."""
    acc = 0
    for alpha, c in q.terms:
        acc = q.ctx.add(acc, _literal_term(q.ctx, c, point, alpha))
    return acc


def _literal_substitute(q, fixed):
    """Kept exponent vector -> coefficient, zero sums dropped."""
    acc = {}
    for alpha, c in q.terms:
        term = _literal_term(q.ctx, c, fixed.values(), [alpha[i] for i in fixed])
        key = tuple(a for i, a in enumerate(alpha) if i not in fixed)
        acc[key] = q.ctx.add(acc.get(key, 0), term)
    return {key: c for key, c in acc.items() if c}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_power_row_evaluation_matches_literal_powers(data):
    ctx = data.draw(st.sampled_from(POWER_ROW_FIELDS))
    arity = data.draw(st.integers(1, 4))
    bound = data.draw(st.integers(0, 3))
    alphas = [a for a in product(range(bound + 1), repeat=arity) if sum(a) <= bound]
    elt = st.integers(0, ctx.d - 1)
    coeffs = data.draw(st.lists(elt, min_size=len(alphas), max_size=len(alphas)))
    point = tuple(data.draw(st.lists(elt, min_size=arity, max_size=arity)))
    fixed_at = data.draw(st.sets(st.integers(0, arity - 1), max_size=arity - 1))
    free = data.draw(st.integers(0, arity - 1))
    for q in (
        multi_poly(ctx, arity, zip(alphas, coeffs), degree_bound=bound),
        multi_poly(ctx, arity, {}, degree_bound=bound),
    ):
        twin = multi_poly(ctx, arity, q.terms)
        key = hash(q)
        assert eval_multi(q, point) == _literal_eval(q, point)
        fixed = {i: point[i] for i in sorted(fixed_at)}
        assert dict(substitute(q, fixed).terms) == _literal_substitute(q, fixed)
        # The cached factor lists are not fields: == and hash ignore them.
        assert "_factors" in vars(q) and "_factors" not in vars(twin)
        assert q == twin and hash(q) == hash(twin) == key

        # A view's restriction, against the literal substitute-and-flatten.
        hidden = multi_poly(ctx, arity, [(a, c) for a, c in q.terms if any(a)])
        inst = make_instance(ctx, hidden, n=max(bound, 1))
        view_fixed = {i: point[i] for i in range(arity) if i != free}
        view = univariate_oracle_view(inst, view_fixed, free)
        uni = to_unipoly(substitute(hidden, view_fixed))
        expected = tuple(uni.coeff(i) for i in range(1, inst.n + 1))
        assert view.effective_coeffs() == expected
        assert view.effective_coeffs() is view.effective_coeffs()
        assert inst.query_count == 0
