import random
from collections import Counter
from itertools import product

import pytest

from hpp.blackbox import (
    HiddenInstance,
    instance_from_json,
    instance_to_json,
    make_instance,
    sample_instance,
    verify_candidate,
)
from hpp.gf import make_field, parse_field
from hpp.polyring import eval_multi, multi_poly

F5 = make_field(5)
F7 = make_field(7)


def _quadratic(ctx):
    return multi_poly(ctx, 1, {(2,): 1})  # X^2


def test_query_fixture_identity_pi():
    inst = make_instance(F5, _quadratic(F5), n=2)
    # B(2, 1) = 1 - Q(2) = 1 - 4 = 2
    assert inst.query((2,), 1) == 2
    assert inst.query((0,), 3) == 3  # Q(0) = 0


def test_query_law_matches_definition():
    rng = random.Random("law")
    for desc in ("5", "7", "2^2"):
        ctx = parse_field(desc)
        inst = sample_instance(ctx, m=2, n=2, seed="law")
        for _ in range(200):
            r = tuple(rng.randrange(ctx.d) for _ in range(2))
            s = rng.randrange(ctx.d)
            assert inst.query(r, s) == inst.pi[ctx.sub(s, eval_multi(inst.Q, r))]


def test_collision_law_exhaustive():
    # two queries collide exactly when s - Q(r) agrees, for any permutation
    for d in (3, 5, 7):
        ctx = make_field(d)
        inst = sample_instance(ctx, m=1, n=2, seed="collide")
        val = {}
        for r in range(d):
            for s in range(d):
                val[(r, s)] = inst.query((r,), s)
        for (r1, s1), (r2, s2) in product(val, repeat=2):
            lhs = val[(r1, s1)] == val[(r2, s2)]
            rhs = ctx.sub(s1, eval_multi(inst.Q, (r1,))) == ctx.sub(
                s2, eval_multi(inst.Q, (r2,))
            )
            assert lhs == rhs


def test_value_balance():
    # for every fixed r the map s -> B(r, s) is a bijection
    inst = sample_instance(F7, m=1, n=2, seed="balance")
    counts = Counter(inst.query((r,), s) for r in range(7) for s in range(7))
    assert counts == {v: 7 for v in range(7)}


def test_sampling_determinism():
    a = sample_instance(F7, m=2, n=2, seed="same")
    b = sample_instance(F7, m=2, n=2, seed="same")
    c = sample_instance(F7, m=2, n=2, seed="other")
    assert a.Q == b.Q and a.pi == b.pi
    assert (a.Q, a.pi) != (c.Q, c.pi)


def test_sampled_q_has_zero_constant_and_degree_bound():
    for seed in range(20):
        inst = sample_instance(F5, m=2, n=2, seed=seed)
        assert inst.Q.constant_term() == 0
        assert inst.Q.total_degree <= 2
        assert sorted(inst.pi) == list(range(5))


def test_query_accounting():
    inst = sample_instance(F5, m=1, n=1, seed="count")
    assert inst.query_count == 0
    inst.query((1,), 2)
    inst.query((3,), 0)
    assert inst.query_count == 2
    verify_candidate(inst, inst.Q, trials=3)
    assert inst.query_count == 5


def test_query_validates_inputs():
    inst = sample_instance(F5, m=2, n=2, seed="valid")
    with pytest.raises(ValueError):
        inst.query((1,), 0)  # wrong arity
    with pytest.raises(ValueError):
        inst.query((1, 7), 0)  # out of range


def test_verify_accepts_truth_and_constant_offsets():
    inst = sample_instance(F7, m=2, n=2, seed="v1")
    assert verify_candidate(inst, inst.Q, trials=6)
    # shifting by a constant is invisible to the all-equal test
    shifted_terms = dict(inst.Q.terms)
    shifted_terms[(0, 0)] = 3
    shifted = multi_poly(F7, 2, shifted_terms)
    assert verify_candidate(inst, shifted, trials=6)


def test_verify_rejects_wrong_candidates():
    inst = sample_instance(F7, m=2, n=2, seed="v2")
    wrong_terms = dict(inst.Q.terms)
    wrong_terms[(1, 0)] = (wrong_terms.get((1, 0), 0) + 1) % 7
    wrong = multi_poly(F7, 2, wrong_terms)
    rejected = 0
    for t in range(50):
        if not verify_candidate(inst, wrong, trials=5, rng=random.Random(t)):
            rejected += 1
    assert rejected >= 45  # false pass needs all sampled points to agree


def test_verify_trials_floor():
    inst = sample_instance(F5, m=1, n=1, seed="floor")
    with pytest.raises(ValueError):
        verify_candidate(inst, inst.Q, trials=1)


def test_sample_requires_room_for_degree():
    with pytest.raises(ValueError):
        sample_instance(make_field(2), m=1, n=2, seed=0)


def test_json_roundtrip_revealed():
    inst = sample_instance(F7, m=2, n=2, seed="json")
    inst.query((1, 2), 3)
    doc = instance_to_json(inst, reveal=True)
    back = instance_from_json(doc)
    assert back.Q == inst.Q and back.pi == inst.pi
    assert back.query_count == 1


def test_json_roundtrip_by_seed():
    inst = sample_instance(F7, m=2, n=2, seed=41)
    doc = instance_to_json(inst)
    assert "pi" not in doc
    back = instance_from_json(doc)
    assert back.Q == inst.Q and back.pi == inst.pi


def test_json_requires_seed_or_secrets():
    with pytest.raises(ValueError):
        instance_from_json('{"field": "5", "m": 1, "n": 1, "seed": null}')
    # One revealed secret without the other is an error, not a reseed.
    head = '{"field": "5", "m": 1, "n": 2, "seed": "s", '
    for secret, missing in (('"Q": [[[1], 1]]}', "'pi'"), ('"pi": [0, 1, 2, 3, 4]}', "'Q'")):
        with pytest.raises(ValueError, match=missing):
            instance_from_json(head + secret)


def test_json_rejects_a_revealed_q_above_degree_n():
    # X^3 in a document that promises n = 2: the instance refuses it.
    doc = '{"field": "5", "m": 1, "n": 2, "Q": [[[3], 1]], "pi": [0, 1, 2, 3, 4]}'
    with pytest.raises(ValueError, match="exceeds n = 2"):
        instance_from_json(doc)


def test_json_query_count_must_be_a_non_negative_int():
    inst = sample_instance(F5, m=2, n=2, seed="s")
    for count in (0, 7):
        doc = instance_to_json(inst).replace('"query_count": 0', f'"query_count": {count}')
        back = instance_from_json(doc)
        assert back.query_count == count
        back.query((1, 2), 3)
        assert back.query_count == count + 1
    for bad in ("-7", "true", "false", "2.5", '"3"', "null", "[1]"):
        doc = instance_to_json(inst).replace('"query_count": 0', f'"query_count": {bad}')
        with pytest.raises(ValueError, match="query_count"):
            instance_from_json(doc)
