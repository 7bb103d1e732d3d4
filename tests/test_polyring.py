import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpp import gf
from hpp.blackbox import make_instance, sample_instance
from hpp.errors import InvariantViolationError
from hpp.gf import MAX_FIELD_SIZE, WIDE_TERMS, make_field, parse_field
from hpp.polyring import (
    MultiPoly,
    UniPoly,
    _lagrange_basis,
    _restrict,
    eval_multi,
    eval_uni,
    format_multipoly,
    monomials,
    multi_poly,
)
from hpp.reduction import perfect_solver, solve_multivariate, univariate_oracle_view

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
    assert UniPoly(F5, (0, 0, 0)).coeffs == ()
    assert UniPoly(F5, (3, 0, 0)).coeffs == (3,)
    assert UniPoly(F5, (0, 1, 2, 0)).coeffs == (0, 1, 2)
    assert UniPoly(F5, (0, 1)).coeff(7) == 0


def test_eval_uni_horner():
    q = UniPoly(F7, (1, 2, 3))  # 1 + 2X + 3X^2
    for r in range(7):
        assert eval_uni(q, r) == (1 + 2 * r + 3 * r * r) % 7


def _interpolate(ctx, points):
    """sum y_i * L_i, after checking the basis: each L_i has degree < k and
    L_i(t_j) = [i == j], which fixes it uniquely."""
    ts = [t for t, _ in points]
    basis = _lagrange_basis(ctx, ts)
    coeffs = [0] * len(ts)
    for i, ((_, y), row) in enumerate(zip(points, basis)):
        assert len(row) == len(ts)
        assert [eval_uni(UniPoly(ctx, tuple(row)), t) for t in ts] == [
            int(i == j) for j in range(len(ts))
        ]
        for k, c in enumerate(row):
            coeffs[k] = ctx.add(coeffs[k], ctx.mul(y, c))
    return UniPoly(ctx, tuple(coeffs))


def test_interpolate_fixture():
    # The basis over 1, 2, 3 in GF(7), by hand: (X-2)(X-3)/2, -(X-1)(X-3), (X-1)(X-2)/2.
    assert _lagrange_basis(F7, [1, 2, 3]) == [[3, 1, 4], [4, 4, 6], [1, 2, 4]]
    # three points on X^2 over GF(7)
    assert _interpolate(F7, [(1, 1), (2, 4), (3, 2)]).coeffs == (0, 0, 1)


def test_eval_interpolate_roundtrip_random():
    rng = random.Random("roundtrip")
    for _ in range(500):
        ctx = rng.choice([F5, F7, F4])
        deg = rng.randrange(0, min(4, ctx.d - 1))
        coeffs = tuple(rng.randrange(ctx.d) for _ in range(deg + 1))
        q = UniPoly(ctx, coeffs)
        pts = rng.sample(range(ctx.d), deg + 1)
        assert _interpolate(ctx, [(r, eval_uni(q, r)) for r in pts]) == q


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_interpolation_matches_everywhere(data):
    ctx = data.draw(st.sampled_from([F5, F7, F4]))
    deg = data.draw(st.integers(min_value=0, max_value=2))
    coeffs = tuple(
        data.draw(st.integers(min_value=0, max_value=ctx.d - 1)) for _ in range(deg + 1)
    )
    q = UniPoly(ctx, coeffs)
    back = _interpolate(ctx, [(r, eval_uni(q, r)) for r in range(deg + 1)])
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
    # Any iterable of coordinates is a point, a generator included.
    assert eval_multi(q, (v for v in (2, 3))) == eval_multi(q, (2, 3)) == 4


def test_substitute_matches_eval():
    rng = random.Random("subst")
    for _ in range(200):
        ctx = rng.choice([F5, F7])
        terms = {}
        for mono in monomials(3, 2):
            terms[mono] = rng.randrange(ctx.d)
        q = multi_poly(ctx, 3, terms)
        fixed = (rng.randrange(ctx.d), rng.randrange(ctx.d))
        restricted = UniPoly(ctx, tuple(_restrict(q, (fixed[0], 0, fixed[1]), 1)))
        for t in range(ctx.d):
            full_point = (fixed[0], t, fixed[1])
            assert eval_uni(restricted, t) == eval_multi(q, full_point)


def test_slice_fixture():
    # X1*X2 + X2^2 at X2=2 over GF(5): 2*X1 + 4; the free coordinate is not read
    q = multi_poly(F5, 2, {(1, 1): 1, (0, 2): 1})
    for x1 in range(5):
        assert _restrict(q, (x1, 2), 0) == [4, 2]


def test_formatting():
    m = multi_poly(F5, 2, {(1, 0): 3, (1, 1): 1})
    assert format_multipoly(m) == "3*X1^1+1*X1^1*X2^1"


# GF(2) has d - 1 = 1, so every nonzero term is the antilog exp[0] = 1.
LOG_DOMAIN_FIELDS = [parse_field(f) for f in ("2", "7", "13", "2^3", "3^2")]


def _literal_term(ctx, c, values, alpha):
    """c * prod v^a by repeated polynomial products: no log tables, no pow."""
    for v, a in zip(values, alpha):
        for _ in range(a):
            c = ctx._mul_poly(c, v)
    return c


def _literal_eval(q, point):
    """Sum over the terms of q (a MultiPoly, or a UniPoly at the point (r,))
    of c * prod v_i^a_i, each product taken literally."""
    terms = q.terms if isinstance(q, MultiPoly) else [((i,), c) for i, c in enumerate(q.coeffs)]
    acc = 0
    for alpha, c in terms:
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


@pytest.mark.parametrize("desc", ["2", "7", "2^3", "3^2"])
def test_log_domain_terms_match_literal_products_at_every_point(desc):
    # Every monomial of total degree <= 4 in two variables, and a univariate
    # polynomial of degree 4 with zero and nonzero coefficients, at every
    # point: zero coordinates, free or fixed, are all visited.
    ctx = parse_field(desc)
    bound = 4
    rng = random.Random(desc)
    alphas = [a for a in product(range(bound + 1), repeat=2) if sum(a) <= bound]
    q = multi_poly(ctx, 2, {a: rng.randrange(1, ctx.d) for a in alphas})
    assert len(q.terms) == len(alphas)
    uni = UniPoly(ctx, tuple(rng.randrange(ctx.d) for _ in range(bound)) + (1,))
    for point in product(range(ctx.d), repeat=2):
        assert eval_multi(q, point) == _literal_eval(q, point), point
        for free in (0, 1):
            fixed = {1 - free: point[1 - free]}
            coeffs = _restrict(q, point, free)
            assert len(coeffs) == bound + 1
            literal = _literal_substitute(q, fixed)
            assert {(k,): c for k, c in enumerate(coeffs) if c} == literal, (point, free)
    for r in range(ctx.d):
        assert eval_uni(uni, r) == _literal_eval(uni, (r,)), r


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_log_domain_evaluation_matches_literal_powers(data):
    ctx = data.draw(st.sampled_from(LOG_DOMAIN_FIELDS))
    arity = data.draw(st.integers(1, 4))
    bound = data.draw(st.integers(0, 3))
    alphas = [a for a in product(range(bound + 1), repeat=arity) if sum(a) <= bound]
    elt = st.integers(0, ctx.d - 1)
    coeffs = data.draw(st.lists(elt, min_size=len(alphas), max_size=len(alphas)))
    point = tuple(data.draw(st.lists(elt, min_size=arity, max_size=arity)))
    for q in (
        multi_poly(ctx, arity, zip(alphas, coeffs)),
        multi_poly(ctx, arity, {}),
    ):
        twin = multi_poly(ctx, arity, q.terms)
        key = hash(q)
        assert eval_multi(q, point) == _literal_eval(q, point)
        # The cached factor lists are not fields: == and hash ignore them.
        assert "_factors" in vars(q) and "_factors" not in vars(twin)
        assert q == twin and hash(q) == hash(twin) == key

        # Restriction to each free position, alone and through a view of the
        # instance hiding q without its constant term, against the literal.
        hidden = multi_poly(ctx, arity, [(a, c) for a, c in q.terms if any(a)])
        inst = make_instance(ctx, hidden, n=max(bound, 1))
        for free in range(arity):
            fixed = {i: point[i] for i in range(arity) if i != free}
            literal = _literal_substitute(q, fixed)
            coeffs = _restrict(q, point, free)
            assert {(k,): c for k, c in enumerate(coeffs) if c} == literal
            view = univariate_oracle_view(inst, point, free)
            expected = tuple(literal.get((k,), 0) for k in range(1, inst.n + 1))
            assert view.effective_coeffs() == expected
            assert view.effective_coeffs() is view.effective_coeffs()
        assert inst.query_count == 0


def _repeated_sum(ctx, a, count):
    """a added to itself count times by ctx.add, by doubling."""
    acc, power = 0, a
    while count:
        if count & 1:
            acc = ctx.add(acc, power)
        power = ctx.add(power, power)
        count >>= 1
    return acc


def test_wide_sum_at_the_term_bound_narrows_exactly():
    # GF(1021^2) is the extension field with the largest p under the size
    # cap, so its digit slots fill the most: WIDE_TERMS terms whose digits
    # are all p - 1 (the element d - 1).  At r = 1 each term is its
    # coefficient.  One more term is refused instead of carrying.
    assert 1021**2 <= MAX_FIELD_SIZE < 1031**2
    ctx = make_field(1021, 2)
    top = ctx.d - 1
    want = _repeated_sum(ctx, top, WIDE_TERMS)
    assert want == ctx.from_digits([-WIDE_TERMS] * 2)
    assert eval_uni(UniPoly(ctx, (top,) * WIDE_TERMS), 1) == want
    with pytest.raises(InvariantViolationError, match=f"sum of {WIDE_TERMS + 1} terms"):
        eval_uni(UniPoly(ctx, (top,) * (WIDE_TERMS + 1)), 1)


def test_every_wide_sum_checks_its_term_count(monkeypatch):
    # A fresh GF(3^2) sizes its slots by the patched bound: 7 terms of
    # digit 2 sum to 14 < 2^4, and an eighth could carry.
    monkeypatch.setattr(gf, "WIDE_TERMS", 7)
    ctx = parse_field("3^2")
    top = ctx.d - 1
    full = multi_poly(ctx, 2, {(0, k): top for k in range(1, 8)})
    want = _repeated_sum(ctx, top, 7)
    assert want == _literal_eval(full, (1, 1)) != 0
    assert eval_multi(full, (1, 1)) == want
    assert _restrict(full, (0, 1), 0) == [want]
    assert eval_uni(UniPoly(ctx, (top,) * 7), 1) == want
    over = multi_poly(ctx, 2, {(0, k): top for k in range(1, 9)})
    for call in (
        lambda: eval_multi(over, (1, 1)),
        lambda: _restrict(over, (0, 1), 0),
        lambda: eval_uni(UniPoly(ctx, (top,) * 8), 1),
    ):
        with pytest.raises(InvariantViolationError, match="sum of 8 terms"):
            call()
    # The reduction sums n slice products and the origin term per coefficient.
    inst = sample_instance(ctx, 2, 7, "wide")
    with pytest.raises(InvariantViolationError, match="sum of 8 terms"):
        solve_multivariate(inst, perfect_solver)
