import io
import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpp.errors import GuardExceededError, InvariantViolationError
import hpp.fibers
from hpp.fibers import (
    Analysis,
    EtaTable,
    GoodSets,
    Orbits,
    _enum_constants,
    _scaled_read,
    _w_codes,
    apply_map,
    brute_fiber,
    decode_point,
    direction_orbit,
    elimination_quadratic,
    encode_point,
    eta_moments,
    eta_table,
    iter_eta_tables,
    n2_constraint,
    pick_analysis,
    solve_n2_triangular,
    write_eta_csv,
)
from hpp.gf import FieldCtx, make_field, parse_field
from hpp.pgm import success_report

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F4 = parse_field("2^2")


def test_apply_map_fixture():
    # x=(1,1), b=(1,2) over GF(3): w1 = 1+2 = 0, w2 = 1+4 = 2
    assert apply_map(F3, (1, 1), (1, 2)) == (0, 2)
    assert apply_map(F3, (1, 1), (0, 0)) == (0, 0)
    assert apply_map(F5, (2,), (3,)) == (1,)  # 2*3 = 6 = 1


def test_apply_map_rows_extension():
    # rows beyond len(x): higher power sums
    assert apply_map(F5, (1, 1), (2, 3), rows=3) == (
        (2 + 3) % 5,
        (4 + 9) % 5,
        (8 + 27) % 5,
    )


def test_eta_table_fixture_gf3():
    table = eta_table(Orbits(F3, 2), (1, 1))
    assert dict(table.items()) == {
        (0, 0): 1,
        (0, 2): 2,
        (1, 1): 2,
        (1, 2): 1,
        (2, 1): 2,
        (2, 2): 1,
    }
    assert table.eta((0, 2)) == 2
    assert table.eta((1, 0)) == 0


def test_eta_table_solutions_consistent():
    for ctx in (F3, F5, F4):
        table = eta_table(Orbits(ctx, 2), (1, 2))
        for w, bs in table.solutions.items():
            assert len(bs) == table.eta(w)
            for b in bs:
                assert apply_map(ctx, (1, 2), b) == w


def test_enumerator_matches_literal_apply_map():
    # The literal oracle: evaluate Phi(b) @ x point by point, for every x,
    # zero coordinates included.  GF(2) is the d - 1 = 1 edge of the log
    # table; at GF(2) and GF(3) with n = 3 a digit sum reaches k(p - 1), the
    # residue table's last entry.
    for desc, n in (
        ("2", 2), ("3", 2), ("5", 2), ("7", 2), ("2^2", 2), ("2^3", 2), ("2^4", 2),
        ("3^2", 2), ("5^2", 2), ("2", 3), ("3", 3), ("5", 3),
    ):
        ctx = parse_field(desc)
        orbits = Orbits(ctx, n)
        for x in product(range(ctx.d), repeat=n):
            fibers = {}
            for b in product(range(ctx.d), repeat=n):
                fibers.setdefault(apply_map(ctx, x, b), []).append(b)
            table = eta_table(orbits, x)
            assert dict(table.items()) == {w: len(bs) for w, bs in fibers.items()}, (desc, x)
            assert table.solutions == fibers, (desc, x)


def test_enumerator_with_fewer_copies_than_power_rows():
    # eta_moments(k < n) enumerates k copies against n power rows; rows >
    # len(x) is that case.  The constants cached for it are read-only.
    for desc, k, rows in (
        ("7", 1, 3), ("13", 1, 2), ("3^2", 2, 3), ("2^3", 2, 4), ("2", 1, 3),
        ("2", 3, 5), ("3", 3, 4), ("7", 2, 3), ("2^4", 2, 3), ("5^2", 1, 3),
    ):
        ctx = parse_field(desc)
        for x in product(range(ctx.d), repeat=k):
            expected = [
                encode_point(apply_map(ctx, x, b, rows=rows), ctx.d)
                for b in product(range(ctx.d), repeat=k)
            ]
            assert _w_codes(ctx, x, rows).tolist() == expected, (desc, x, rows)
        for table in _enum_constants(ctx, k, rows)[1:]:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0


def test_log_tables_reproduce_field_multiplication():
    # Against the polynomial product: mul itself reads these tables.
    for desc in ("2", "13", "2^4", "3^3", "7^2", "3^5", "2^9", "2^10"):
        ctx = parse_field(desc)
        log, exp = ctx.log_tables
        d = ctx.d
        # exp runs through every nonzero element once, then zero at d - 1.
        assert sorted(exp[:-1].tolist()) == list(range(1, d)) and exp[-1] == 0
        assert exp[log].tolist() == list(range(d))
        # The generator exp[1] is the first element of order d - 1.
        for a in range(1, int(exp[1]) if d > 2 else 1):
            x, order = a, 1
            while x != 1:
                x, order = ctx._mul_poly(x, a), order + 1
            assert order < d - 1, (desc, a)
        if d <= 64:
            pairs = list(product(range(d), repeat=2))
        else:
            rng = random.Random(f"log-tables:{desc}")
            pairs = [(rng.randrange(d), rng.randrange(d)) for _ in range(3000)]
            pairs += [(0, 5), (7, 0), (1, d - 1)]
        for a, b in pairs:
            via_logs = int(exp[(log[a] + log[b]) % (d - 1)]) if a and b else 0
            assert via_logs == ctx._mul_poly(a, b), (desc, a, b)


def test_enumeration_pass_multiplies_only_to_build_the_log_tables(monkeypatch):
    calls = []
    for name in ("mul", "_mul_poly"):
        real = getattr(FieldCtx, name)

        def counting(self, a, b, real=real):
            calls.append(1)
            return real(self, a, b)

        monkeypatch.setattr(FieldCtx, name, counting)
    for desc in ("13", "3^2", "2^3"):
        ctx = parse_field(desc)  # a fresh context, so the tables are built here
        calls.clear()
        tables = list(iter_eta_tables(Orbits(ctx, 2)))
        assert len(tables) == ctx.d**2
        assert len(calls) <= 3 * ctx.d, (desc, len(calls))
        calls.clear()
        list(iter_eta_tables(Orbits(ctx, 2)))
        assert not calls, desc


@pytest.mark.parametrize("desc,n", [("7", 3), ("3^2", 2), ("2^2", 3)])
def test_direction_orbit_is_the_least_point_with_the_scaled_table(desc, n):
    ctx = parse_field(desc)
    d = ctx.d
    orbits = Orbits(ctx, n)
    points = list(product(range(d), repeat=n))
    for x in points:
        orbit = {
            tuple(ctx.mul(lam, c) for c in perm)
            for lam in range(1, d)
            for perm in permutations(x)
        }
        rep, lam = direction_orbit(ctx, x)
        assert rep == min(orbit), x
        assert sorted(x) == sorted(ctx.mul(lam, c) for c in rep), x
        # x = lam * sigma(rep): the fiber of x over lam * w is rep's over w.
        counts = eta_table(orbits, x).counts
        scaled = [encode_point([ctx.mul(lam, c) for c in w], d) for w in points]
        assert counts[scaled].tolist() == eta_table(orbits, rep).counts.tolist(), x


def _enumerated(ctx, x):
    return np.bincount(_w_codes(ctx, x, len(x)), minlength=ctx.d ** len(x))


@pytest.fixture
def enumerated(monkeypatch):
    """The points whose fibers fibers._w_codes enumerates, in call order."""
    calls = []
    real = hpp.fibers._w_codes

    def counting(ctx, x, rows):
        calls.append(x)
        return real(ctx, x, rows)

    monkeypatch.setattr(hpp.fibers, "_w_codes", counting)
    return calls


LABEL_CASES = [
    ("37", 2), ("97", 2), ("13", 3), ("5^2", 3), ("2^5", 2), ("2^3", 3), ("7", 4),
    ("101", 1), ("2^4", 1),
]


@pytest.mark.parametrize("desc,n", LABEL_CASES)
def test_orbit_labels_equal_the_literal_direction_orbit(desc, n):
    ctx = parse_field(desc)
    d = ctx.d
    orbits = Orbits(ctx, n)
    reps, lams = orbits.labels
    assert reps.shape == lams.shape == (d**n,) and not orbits.kept
    assert not reps.flags.writeable and not lams.flags.writeable
    got = list(zip(reps.tolist(), lams.tolist()))
    for code, x in enumerate(product(range(d), repeat=n)):
        rep, lam = direction_orbit(ctx, x)
        assert got[code] == (encode_point(rep, d), lam), (desc, x)
    # x = 0 is its own orbit with lam = 1; a tie such as (1, ..., 1), where
    # every coordinate divides to the same point, goes to the least lam.
    assert got[0] == (0, 1)
    ones = encode_point((1,) * n, d)
    assert got[ones] == (ones, 1)
    twos = encode_point((2,) * n, d)
    assert got[twos] == (ones, 2)
    if n >= 2 and ctx.p >= 5:
        # (0, ..., 2, -2) divides by 2 and by -2 to the same point; lam = 2 wins.
        zeros = (0,) * (n - 2)
        pair = encode_point(zeros + (2, ctx.neg(2)), d)
        assert got[pair] == (encode_point(zeros + (1, ctx.neg(1)), d), 2)


PASS_CASES = [("7", 2), ("13", 2), ("2^3", 2), ("3^2", 2), ("5", 3), ("2^2", 3)]


@pytest.mark.parametrize("desc,n", PASS_CASES)
def test_pass_tables_equal_their_enumeration_and_enumerate_once_per_orbit(
    desc, n, enumerated
):
    ctx = parse_field(desc)
    points = list(product(range(ctx.d), repeat=n))
    tables = list(iter_eta_tables(Orbits(ctx, n)))
    assert [t.x for t in tables] == points
    reps = {direction_orbit(ctx, x)[0] for x in points}
    assert enumerated == sorted(reps)
    for table in tables:
        assert np.array_equal(table.counts, _enumerated(ctx, table.x)), (desc, table.x)


@pytest.mark.parametrize("desc,n", [("7", 2), ("3^2", 2), ("2^2", 3)])
def test_one_off_tables_in_reverse_code_order_equal_their_enumeration(
    desc, n, enumerated
):
    # Every non-representative comes before its representative: the first
    # call of each orbit enumerates the representative, once, and keeps it,
    # and every call reads x from the kept table.
    ctx = parse_field(desc)
    orbits = Orbits(ctx, n)
    reps = set()
    for x in reversed(list(product(range(ctx.d), repeat=n))):
        rep = direction_orbit(ctx, x)[0]
        calls = len(enumerated)
        assert np.array_equal(eta_table(orbits, x).counts, _enumerated(ctx, x)), (desc, x)
        assert enumerated[calls:] == ([] if rep in reps else [rep]), (desc, x)
        reps.add(rep)
    assert set(orbits.kept) == {encode_point(r, ctx.d) for r in reps}


def test_every_table_is_read_only_and_kept_tables_are_shared():
    ctx, n = parse_field("3^2"), 2
    orbits = Orbits(ctx, n)
    tables = list(iter_eta_tables(orbits))
    kept = orbits.kept
    assert kept
    for rep, counts in kept.items():
        assert eta_table(orbits, decode_point(rep, ctx.d, n)).counts is counts
    # Gathered tables are read-only too, like the kept ones they are read from.
    assert any(direction_orbit(ctx, t.x)[0] != t.x for t in tables)
    for table in tables:
        with pytest.raises(ValueError):
            table.counts[0] = 0


@pytest.mark.parametrize("desc,n", [("13", 2), ("7", 3), ("3^2", 2), ("2^3", 2)])
def test_a_permuted_direction_shares_its_representatives_table(desc, n):
    # x = sigma(r) with sigma not the identity has exactly r's fiber sizes:
    # its table is r's kept array itself, not a gathered copy.
    ctx = parse_field(desc)
    orbits = Orbits(ctx, n)
    permuted = 0
    for x in product(range(ctx.d), repeat=n):
        r, lam = direction_orbit(ctx, x)
        if lam != 1 or x == r:
            continue
        counts = eta_table(orbits, x).counts
        assert counts is orbits.kept[encode_point(r, ctx.d)], (desc, x)
        assert np.array_equal(counts, _enumerated(ctx, x)), (desc, x)
        permuted += 1
    assert permuted


SCALE_CASES = [("7", 1), ("7", 2), ("5", 3), ("3^2", 1), ("3^2", 2), ("3^2", 3), ("2^3", 1), ("2^3", 2), ("2^2", 3)]


@pytest.mark.parametrize("desc,n", SCALE_CASES)
def test_scaled_read_reads_lam_times_each_point(desc, n):
    ctx = parse_field(desc)
    d = ctx.d
    points = list(product(range(d), repeat=n))
    values = np.arange(d**n) * 0.5
    for lam in range(1, d):
        literal = [values[encode_point([ctx.mul(lam, c) for c in a], d)] for a in points]
        assert _scaled_read(values, ctx, n, lam).tolist() == literal, (desc, lam)


def test_scaled_read_keeps_an_empty_law_empty():
    empty = np.empty(0)
    assert _scaled_read(empty, F7, 2, 3).size == 0


@pytest.mark.parametrize("desc,n", [("1009", 1), ("13", 2), ("5", 3)])
def test_a_pass_keeps_the_labels_and_one_table_per_representative(desc, n):
    # At n = 1 every nonzero direction is a scaling of (1,): the pass keeps
    # two tables of d entries.  Nothing is kept per lam.
    ctx = parse_field(desc)
    orbits = Orbits(ctx, n)
    list(iter_eta_tables(orbits))
    assert "labels" in vars(orbits)  # the pass built them
    reps, lams = orbits.labels
    kept = orbits.kept
    assert set(kept) == set(reps.tolist())
    for counts in kept.values():
        assert counts.size == ctx.d**n and not counts.flags.writeable
    if n == 1:
        assert set(kept) == {0, 1}


def test_a_pass_hashes_the_field_once_per_enumeration(enumerated, monkeypatch):
    ctx, n = parse_field("13"), 2
    hashes = []
    real_hash = FieldCtx.__hash__

    def counting_hash(self):
        hashes.append(self)
        return real_hash(self)

    monkeypatch.setattr(FieldCtx, "__hash__", counting_hash)
    success_report(Orbits(ctx, n), Analysis.FIRST)
    monkeypatch.undo()
    assert enumerated
    # Only _enum_constants' cache hashes the field: the store is the run's.
    assert len(hashes) <= len(enumerated)


def test_a_store_reads_only_points_of_its_own_n():
    # orbit() is the store's one gate: at GF(7)^2, (1, 8) is not read as the
    # code of (2, 1), nor (3,) as that of (0, 3).
    orbits = Orbits(F7, 2)
    refused = {(3,): "expected 2", (1, 2, 3): "expected 2", (1, 8): "not an element",
               (1, 99): "not an element", (1.0, 2): "not an element"}
    for x, message in refused.items():
        for read in (orbits.orbit, lambda x: eta_table(orbits, x)):
            with pytest.raises(ValueError, match=message):
                read(x)
    assert not orbits.kept and "labels" not in vars(orbits)
    with pytest.raises(ValueError, match="at least 1"):
        Orbits(F5, 0)


def test_nothing_is_kept_when_a_pass_exceeds_the_budget(monkeypatch):
    ctx, n = F7, 2
    monkeypatch.setattr(hpp.fibers, "ENUMERATION_BUDGET", ctx.d ** (2 * n) - 1)
    orbits = Orbits(ctx, n)
    for x in product(range(ctx.d), repeat=n):
        table = eta_table(orbits, x)
        assert not table.counts.flags.writeable
        assert np.array_equal(table.counts, _enumerated(ctx, x)), x
    # Past the gate eta_table builds no labels and keeps nothing.
    assert not orbits.kept and "labels" not in vars(orbits)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_point_codec_round_trip(data):
    d = data.draw(st.integers(min_value=2, max_value=1 << 20))
    n = data.draw(st.integers(min_value=1, max_value=6))
    point = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    code = encode_point(point, d)
    assert 0 <= code < d**n
    assert decode_point(code, d, n) == point
    other = data.draw(st.integers(min_value=0, max_value=d**n - 1))
    assert encode_point(decode_point(other, d, n), d) == other


def test_partition_identity_exhaustive():
    for ctx in (F3, F4, F5, F7):
        for table in iter_eta_tables(Orbits(ctx, 2)):
            table.check_partition()
            assert int(table.counts.sum()) == ctx.d**2


def test_partition_check_raises_on_corruption():
    # A writable copy: eta_table's counts are read-only.
    table = EtaTable(F3, (1, 1), eta_table(Orbits(F3, 2), (1, 1)).counts.copy())
    table.counts[encode_point((0, 0), 3)] += 1
    with pytest.raises(InvariantViolationError):
        table.check_partition()


def test_enumeration_budget_guard():
    # The message names the exponent that was checked: 2n for a full pass,
    # k + n for the moments.
    big = make_field(1021)
    with pytest.raises(GuardExceededError, match=rf"1021\^8 = {1021**8} points"):
        next(iter_eta_tables(Orbits(big, 4)))
    with pytest.raises(GuardExceededError, match=rf"1021\^5 = {1021**5} points"):
        eta_moments(big, 3, k=2)


def test_brute_fiber_matches_table():
    table = eta_table(Orbits(F5, 2), (2, 3))
    for w, bs in table.solutions.items():
        assert brute_fiber(F5, (2, 3), w) == sorted(bs)


def test_moments_first_is_exactly_one_at_k_equals_n():
    for d, n in ((3, 2), (5, 2), (7, 2), (3, 3)):
        first, second = eta_moments(make_field(d), n)
        assert first == 1
        assert isinstance(second, Fraction)


def test_moments_n1_second_closed_form():
    # eta over (x, w) in the n=1 map b -> x*b: x=0 contributes d, else 1
    for d in (3, 5, 7, 11):
        first, second = eta_moments(make_field(d), 1)
        assert first == 1
        assert second == Fraction(2 * d - 1, d)


def test_moments_partial_copies():
    first, _ = eta_moments(F5, 2, k=1)
    assert first == Fraction(1, 5)
    with pytest.raises(ValueError):
        eta_moments(F5, 2, k=3)


def test_n2_constraint():
    assert n2_constraint(F5, (1, 4)) == 0  # x1 + x2 = 0
    assert n2_constraint(F5, (0, 3)) == 0
    assert n2_constraint(F5, (1, 2)) != 0
    assert n2_constraint(F4, (1, 1)) == 0  # char 2: x + x = 0


def test_elimination_quadratic_annihilates_fiber():
    # the eliminated variable's quadratic vanishes on actual solutions
    for ctx in (F5, F7, F4):
        orbits = Orbits(ctx, 2)
        for x in product(range(ctx.d), repeat=2):
            if n2_constraint(ctx, x) == 0:
                continue
            table = eta_table(orbits, x)
            for w, bs in table.solutions.items():
                for var in (0, 1):
                    a2, a1, a0 = elimination_quadratic(ctx, x, w, var)
                    for b in bs:
                        t = b[var]
                        val = ctx.add(
                            ctx.add(ctx.mul(a2, ctx.mul(t, t)), ctx.mul(a1, t)), a0
                        )
                        assert val == 0, (ctx.d, x, w, var, b)


def test_triangular_vs_brute_exhaustive_small():
    for ctx in (F4, F5):
        checked = 0
        for x in product(range(ctx.d), repeat=2):
            if n2_constraint(ctx, x) == 0:
                continue
            for w in product(range(ctx.d), repeat=2):
                assert solve_n2_triangular(ctx, x, w) == sorted(brute_fiber(ctx, x, w))
                checked += 1
        assert checked > 0


def test_triangular_random_large_field():
    ctx = make_field(101)
    rng = random.Random("triangular-101")
    done = 0
    while done < 200:
        x = (rng.randrange(101), rng.randrange(101))
        if n2_constraint(ctx, x) == 0:
            continue
        w = (rng.randrange(101), rng.randrange(101))
        assert solve_n2_triangular(ctx, x, w) == sorted(brute_fiber(ctx, x, w))
        done += 1


def test_triangular_requires_nonzero_constraint():
    with pytest.raises(ValueError):
        solve_n2_triangular(F5, (1, 4), (0, 0))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_triangular_property(data):
    ctx = data.draw(st.sampled_from([F4, F5, F7]))
    elt = st.integers(min_value=0, max_value=ctx.d - 1)
    x = (data.draw(elt), data.draw(elt))
    w = (data.draw(elt), data.draw(elt))
    if n2_constraint(ctx, x) == 0:
        return
    assert solve_n2_triangular(ctx, x, w) == sorted(brute_fiber(ctx, x, w))


def test_first_cap_is_factorial():
    for n in range(1, 5):
        assert GoodSets(make_field(5), n, Analysis.FIRST).cap == math.factorial(n)


def test_good_sets_are_plain_values():
    first, again = GoodSets(F7, 2, Analysis.FIRST), GoodSets(F7, 2, Analysis.FIRST)
    assert first == again and hash(first) == hash(again)
    assert first != GoodSets(F7, 2, Analysis.SECOND)
    assert len(vars(first)) == 3  # ctx, n and analysis; the cap is derived, nothing cached


def test_an_analysis_named_by_value_is_that_analysis():
    # Analysis is a str enum: "first" == Analysis.FIRST but is not it, so a
    # plain name must be coerced before any identity test.
    first = GoodSets(F7, 2, "first")
    assert first == GoodSets(F7, 2, Analysis.FIRST) and first.cap == 2
    assert first.analysis is Analysis.FIRST
    assert GoodSets(F7, 3, "first").cap == 6
    report = success_report(Orbits(F7, 2), "first")
    assert report == success_report(Orbits(F7, 2), Analysis.FIRST)
    assert report.approx == 0.4333854399113525
    assert report.as_dict()["analysis"] == "first"
    # Built directly, good sets are the analysis they name, with its cap.
    assert GoodSets(F7, 2, "first").x_good((1, 6))
    assert GoodSets(F7, 2, "first").cap == 2
    refused = [
        (F7, 2, "third", "'third' is not a valid Analysis"),
        (F7, 3, "second", "second analysis is specific to n = 2, got n = 3"),
        (make_field(2), 2, "second", "second analysis needs at least 3 field elements"),
        (F3, 3, "first", "first analysis needs characteristic > n; got p = 3, n = 3"),
        (F7, 0, "third", "n must be at least 1, got 0"),
    ]
    for ctx, n, analysis, message in refused:
        with pytest.raises(ValueError) as exc:
            GoodSets(ctx, n, analysis)
        assert str(exc.value) == message


def test_first_analysis_fiber_structure():
    # x with all coordinates nonzero: fibers obey eta <= 2 except the
    # degenerate pairs x1 + x2 = 0, which put everything with w = 0 in one
    # fiber of size d
    for d in (5, 7):
        ctx = make_field(d)
        orbits = Orbits(ctx, 2)
        for x in product(range(1, d), repeat=2):
            table = eta_table(orbits, x)
            degenerate = ctx.add(x[0], x[1]) == 0
            for w, eta in table.items():
                if degenerate and w == (0, 0):
                    assert eta == d
                else:
                    assert 1 <= eta <= 2


def test_w_good_is_elementwise_and_keeps_the_second_cap():
    first = GoodSets(F5, 2, Analysis.FIRST)
    etas = [0, 1, 2, 3]
    assert first.w_good((1, 2), np.array(etas)).tolist() == [False, True, True, False]
    assert [bool(first.w_good((1, 2), eta)) for eta in etas] == [False, True, True, False]
    assert not first.w_good((0, 2), np.array(etas)).any()
    second = GoodSets(F5, 2, Analysis.SECOND)
    with pytest.raises(InvariantViolationError):
        second.w_good((1, 2), np.array([1, 5]))
    with pytest.raises(InvariantViolationError):
        second.w_good((1, 2), 5)
    assert not second.w_good((1, 4), 5)  # x1 + x2 = 0: bad x, no cap applies


def test_good_set_counts():
    # Second analysis: x1, x2, x1+x2 all nonzero
    for ctx in (F4, F5, F7):
        good = GoodSets(ctx, 2, Analysis.SECOND)
        count = sum(
            good.x_good(x) for x in product(range(ctx.d), repeat=2)
        )
        assert count == (ctx.d - 1) * (ctx.d - 2)
    # First analysis: all coordinates nonzero
    for ctx in (F5, F7):
        good = GoodSets(ctx, 2, Analysis.FIRST)
        count = sum(
            good.x_good(x) for x in product(range(ctx.d), repeat=2)
        )
        assert count == (ctx.d - 1) ** 2


def test_second_analysis_cap_is_theorem():
    # no fiber over a good x may exceed 4
    for ctx in (F4, F5, F7):
        good = GoodSets(ctx, 2, Analysis.SECOND)
        for table in iter_eta_tables(Orbits(ctx, 2)):
            if not good.x_good(table.x):
                continue
            assert table.counts.max() <= good.cap


def test_analysis_selection():
    assert pick_analysis(F5, 2) is Analysis.FIRST
    assert pick_analysis(F4, 2) is Analysis.SECOND
    assert pick_analysis(parse_field("2^3"), 2) is Analysis.SECOND
    with pytest.raises(ValueError):
        pick_analysis(F4, 3)  # no certificate applies
    with pytest.raises(ValueError):
        GoodSets(F4, 2, Analysis.FIRST)  # needs p > n


def test_summary_scan():
    report = success_report(Orbits(F4, 2), Analysis.SECOND)
    assert report.x_good_count == 6
    assert report.w_good_min == 16
    assert report.as_dict()["good_sets"]["D"] == 4


def test_csv_export():
    out = io.StringIO()
    write_eta_csv([eta_table(Orbits(F3, 2), (1, 1))], out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "x,w,eta"
    assert "1;1,0;0,1" in lines
    out = io.StringIO()
    write_eta_csv([eta_table(Orbits(F3, 2), (1, 1))], out, include_solutions=True)
    text = out.getvalue()
    assert "solutions" in text.splitlines()[0]
    assert "0,2|2,0" in text
