"""The black-box oracle hiding a polynomial behind a secret permutation.

An instance holds a secret m-variate polynomial Q of total degree at most n
with zero constant term, plus a secret permutation pi of the field.  A query
at (r, s) returns pi(s - Q(r)).  Querying the graph of the correct
polynomial therefore returns the same value at every point, which is what
both the verifier and the classical collision baseline exploit; any wrong
candidate of degree <= n disagrees somewhere because polynomials of
per-variable degree below the field size are determined by their values.

Instances are deterministic functions of (field, m, n, seed): the same seed
always yields the same Q and the same pi.  Secrets never appear in repr()
or serialized output unless a caller explicitly asks for them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .gf import Felt, FieldCtx, field_descriptor, parse_field
from .polyring import MultiPoly, eval_multi, monomials, multi_poly


@dataclass(eq=False)
class HiddenInstance:
    """One identification problem; Q and pi are the secrets.

    query_count increments by exactly one per oracle call and is never
    touched by anything else, so experiments can meter query complexity by
    taking differences.
    """

    ctx: FieldCtx
    m: int
    n: int
    Q: MultiPoly = field(repr=False)
    pi: tuple[int, ...] = field(repr=False)
    seed: int | None = None
    query_count: int = 0

    def __post_init__(self):
        d = self.ctx.d
        if self.Q.ctx != self.ctx:
            raise ValueError("the hidden polynomial and the instance are over different fields")
        if self.Q.arity != self.m:
            raise ValueError(f"hidden polynomial arity {self.Q.arity} != m = {self.m}")
        if self.Q.total_degree > self.n:
            raise ValueError(
                f"hidden polynomial degree {self.Q.total_degree} exceeds n = {self.n}"
            )
        if self.Q.constant_term() != 0:
            raise ValueError("hidden polynomial must have zero constant term")
        if sorted(self.pi) != list(range(d)):
            raise ValueError("pi must be a permutation of all field elements")

    def query(self, r, s: Felt) -> Felt:
        """Oracle call: pi(s - Q(r)).  r is a point of F^m, s a field element."""
        self.ctx.check(s)
        value = self.pi[self.ctx.sub(s, eval_multi(self.Q, r))]
        self.query_count += 1
        return value


def sample_instance(ctx: FieldCtx, m: int, n: int, seed: int) -> HiddenInstance:
    """Draw Q uniformly (total degree <= n, zero constant term) and pi uniformly."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if ctx.d <= n:
        raise ValueError(
            f"need field size > n for degree-{n} identification, got d = {ctx.d}"
        )
    rng = random.Random(f"hpp-instance:{field_descriptor(ctx)}:{m}:{n}:{seed}")
    terms = {}
    for alpha in monomials(m, n):
        c = rng.randrange(ctx.d)
        if c:
            terms[alpha] = c
    q = multi_poly(ctx, m, terms)
    perm = list(range(ctx.d))
    rng.shuffle(perm)
    return HiddenInstance(ctx=ctx, m=m, n=n, Q=q, pi=tuple(perm), seed=seed)


def make_instance(
    ctx: FieldCtx, Q: MultiPoly, n: int, pi=None, seed: int | None = None
) -> HiddenInstance:
    """Assemble an instance from explicit parts.

    Intended for tests and diagnostics that need a known Q or a fixed
    permutation (pi=None means the identity).  Experiments measuring the
    advertised hardness should use sample_instance instead.
    """
    if pi is None:
        pi = tuple(range(ctx.d))
    return HiddenInstance(ctx=ctx, m=Q.arity, n=n, Q=Q, pi=tuple(pi), seed=seed)


def _sample_distinct_points(ctx: FieldCtx, m: int, count: int, rng) -> list[tuple]:
    space = ctx.d**m
    if count > space:
        raise ValueError(f"cannot draw {count} distinct points from a space of {space}")
    seen = set()
    out = []
    while len(out) < count:
        point = tuple(rng.randrange(ctx.d) for _ in range(m))
        if point in seen:
            continue
        seen.add(point)
        out.append(point)
    return out


def verify_candidate(inst: HiddenInstance, cand: MultiPoly, trials: int, rng=None) -> bool:
    """Probabilistic equality test: query the candidate's graph at distinct points.

    All returned values coincide iff (candidate - Q) was constant on the
    sample; a wrong candidate of total degree <= n agrees with any fixed
    offset on at most an n/d fraction of the line through each trial, so
    the false-accept probability decays like (n/d)^(trials-1).  Constant
    offsets are deliberately tolerated: oracle restrictions that absorb a
    constant into the permutation verify the same way.
    """
    if trials < 2:
        raise ValueError(f"verification needs at least 2 trials, got {trials}")
    if cand.ctx != inst.ctx:
        raise ValueError("the candidate and the instance are over different fields")
    if cand.arity != inst.m:
        raise ValueError(f"candidate arity {cand.arity} != instance arity {inst.m}")
    if cand.total_degree > inst.n:
        raise ValueError(
            f"candidate degree {cand.total_degree} exceeds the instance bound {inst.n}"
        )
    if rng is None:
        rng = random.Random(f"hpp-verify:{inst.seed}:{inst.query_count}")
    trials = min(trials, inst.ctx.d**inst.m)
    points = _sample_distinct_points(inst.ctx, inst.m, trials, rng)
    values = {inst.query(r, eval_multi(cand, r)) for r in points}
    return len(values) == 1


def instance_to_json(inst: HiddenInstance, reveal: bool = False) -> str:
    """Public instance descriptor; secrets only with reveal=True."""
    doc = {
        "field": field_descriptor(inst.ctx),
        "m": inst.m,
        "n": inst.n,
        "seed": inst.seed,
        "query_count": inst.query_count,
    }
    if reveal:
        doc["Q"] = [[list(alpha), c] for alpha, c in inst.Q.terms]
        doc["pi"] = list(inst.pi)
    return json.dumps(doc, sort_keys=True)


def instance_from_json(text: str) -> HiddenInstance:
    """Rebuild an instance from its JSON descriptor.

    Revealed documents restore Q and pi directly; unrevealed ones require a
    seed and re-derive the secrets from it.  A document that carries only one
    of Q and pi is rejected rather than rebuilt from its seed, and so is a
    query_count that is not a non-negative int.
    """
    doc = json.loads(text)
    ctx = parse_field(doc["field"])
    if ("Q" in doc) != ("pi" in doc):
        missing = "pi" if "Q" in doc else "Q"
        raise ValueError(f"instance document reveals one secret but has no {missing!r}")
    if "Q" in doc:
        q = multi_poly(ctx, doc["m"], {tuple(a): c for a, c in doc["Q"]})
        inst = HiddenInstance(
            ctx=ctx, m=doc["m"], n=doc["n"], Q=q, pi=tuple(doc["pi"]), seed=doc.get("seed")
        )
    elif doc.get("seed") is not None:
        inst = sample_instance(ctx, doc["m"], doc["n"], doc["seed"])
    else:
        raise ValueError("instance document has neither secrets nor a seed")
    count = doc.get("query_count", 0)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError(f"query_count must be a non-negative integer, got {count!r}")
    inst.query_count = count
    return inst
