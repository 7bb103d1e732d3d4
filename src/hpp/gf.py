"""Arithmetic in GF(p^e) with trace, additive characters, and quadratic roots.

A field element is a single integer in [0, p^e).  Its base-p digits, least
significant first, are the coefficients of the element in the polynomial
basis {1, t, ..., t^(e-1)}.  Every field multiplies, inverts and raises
to powers through discrete-log and antilog tables of the first primitive
element (FieldCtx.log_tables); the one polynomial product, which reduces
modulo a fixed monic irreducible polynomial, builds those tables.  Only
sums special-case the prime field, where they are one % p.  The modulus is
chosen deterministically (smallest integer encoding among monic irreducibles
of degree e), so two contexts built from the same (p, e) are interchangeable
and results are reproducible across runs and machines.  Square roots read
the same tables on every field.

The absolute trace Tr(a) = a + a^p + ... + a^(p^(e-1)) lands in the prime
subfield, i.e. in [0, p).  It is GF(p)-linear, so each context computes
the Frobenius sums once, for the powers of t, and evaluates the trace as a
dot product with the digits (FieldCtx.trace_vector); FieldCtx.trace_form
does the same for the bilinear form Tr(a*b).  The additive character

    chi(a) = exp(2*pi*i * Tr(a) / p)

turns field addition into phase multiplication and is the workhorse of all
the Fourier analysis downstream: sum_a chi(a*m) over the whole field is d
when m = 0 and exactly 0 otherwise.

Integers in [0, p) double as prime-subfield elements (their digit vector is
a constant polynomial), so small constants like 2 % p can be fed straight
into the arithmetic helpers.  Two gates check input: FieldCtx.check takes
an int in [0, d), and FieldCtx.check_point(x, n), the one point check of
every layer, checks each coordinate of any iterable x, then its length n.

A sum of many field elements, each read as an antilog, is one plain
integer sum reduced once.  FieldCtx._wide lists the antilogs in a "wide"
encoding: on a prime field it is the antilog list itself and the reduction
is one % p; on GF(p^e) each base-p digit of exp[k] sits in its own bit
slot, wide enough that a sum of at most WIDE_TERMS terms cannot carry from
one slot into the next, and FieldCtx._narrow reduces every slot mod p to
turn the sum back into an element.  Callers check their term count against
the bound (FieldCtx._check_wide) before they sum.  FieldCtx.add and sub on
GF(p^e) are such sums of two terms.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardExceededError, InvariantViolationError

# Largest field the integer-encoded representation will agree to build.
MAX_FIELD_SIZE = 1 << 20
# Most terms one wide sum (FieldCtx._wide) may add; it sets the slot width.
WIDE_TERMS = 1 << 20

Felt = int
CharValue = complex


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _int_digits(value: int, length: int, p: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(value % p)
        value //= p
    return out


def _poly_rem(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num mod den over GF(p); coefficients ascending, den monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(cand: Sequence[int], p: int) -> bool:
    # Trial division by every monic polynomial of degree 1..e//2.  Fields are
    # capped at 2^20 elements, so the divisor count p^(e/2) stays tiny.
    e = len(cand) - 1
    for deg in range(1, e // 2 + 1):
        for code in range(p**deg):
            div = _int_digits(code, deg, p) + [1]
            if not any(_poly_rem(cand, div, p)):
                return False
    return True


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    if e == 1:
        return (0, 1)
    for code in range(p**e):
        cand = _int_digits(code, e, p) + [1]
        if cand[0] == 0:
            continue  # zero constant term means a root at 0
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise InvariantViolationError(f"no monic irreducible of degree {e} over GF({p})")


@dataclass(frozen=True)
class FieldCtx:
    """Immutable description of GF(p^e) plus all element-level arithmetic.

    Elements are bare ints; every method validates nothing beyond what it
    needs, so callers pushing untrusted input run check() or check_point().
    """

    p: int
    e: int
    modulus: tuple[int, ...]
    d: int

    def describe(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        terms = []
        for i in range(self.e, -1, -1):
            c = self.modulus[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return f"GF({self.p}^{self.e}) mod " + "+".join(terms)

    # -- representation ----------------------------------------------------

    def check(self, a: Felt) -> Felt:
        if type(a) is int and 0 <= a < self.d:
            return a
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.d:
            raise ValueError(f"{a!r} is not an element of {self.describe()}")
        return a

    def check_point(self, x: Iterable[Felt], n: int) -> tuple[Felt, ...]:
        """x as a point of F^n, a tuple (ValueError otherwise; see the module docstring)."""
        x, d = tuple(x), self.d
        for a in x:
            if not (type(a) is int and 0 <= a < d):
                self.check(a)
        if len(x) != n:
            raise ValueError(f"point {x} has {len(x)} coordinates, expected {n}")
        return x

    def digits(self, a: Felt) -> list[int]:
        return _int_digits(a, self.e, self.p)

    def from_digits(self, digits: Iterable[int]) -> Felt:
        acc = 0
        for i, c in enumerate(digits):
            acc += (c % self.p) * self.p**i
        return acc

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Felt, b: Felt) -> Felt:
        if self.e == 1:  # one % p: about 145 ns at GF(7), 290 ns or more through the slots
            return (a + b) % self.p
        log, wide = self._log_lists[0], self._wide
        return self._narrow(wide[log[a]] + wide[log[b]])

    def neg(self, a: Felt) -> Felt:
        return self.sub(0, a)

    def sub(self, a: Felt, b: Felt) -> Felt:
        if self.e == 1:  # as in add; e2e at GF(7), m = 4, 300 trials makes 40k calls
            return (a - b) % self.p
        log, wide = self._log_lists[0], self._wide
        return self._narrow(wide[log[a]] + self._pad - wide[log[b]])

    def _mul_poly(self, a: Felt, b: Felt) -> Felt:
        p = self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        return self.from_digits(_poly_rem(prod, self.modulus, p))

    def mul(self, a: Felt, b: Felt) -> Felt:
        if a == 0 or b == 0:
            return 0
        log, exp = self._log_lists
        return exp[(log[a] + log[b]) % (self.d - 1)]

    @cached_property
    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, exp) for the first primitive element g, as read-only int64
        arrays of length d: exp[k] = g^k for k < d - 1 and log[exp[k]] = k,
        so a * b = exp[(log[a] + log[b]) % (d - 1)] for nonzero a, b.  Index
        d - 1 stands for zero (exp[d - 1] = 0, log[0] = d - 1), which keeps
        exp[log[a]] = a for every a; products with zero are the caller's.

        g is the first element of order d - 1, the first with g^((d-1)/q)
        != 1 for every prime q dividing d - 1.  (Walking the powers of 1, 2,
        ... and skipping elements an earlier walk reached finds the same g:
        a skipped element is a power of one of lower order.)  With exp
        filled up to m, exp[m + k] = exp[k] * h for h = g^m, so each step
        doubles the filled prefix, by at most 2^16 entries to bound the
        digit matrix: multiplying by a fixed h is the F_p-linear map whose
        e x e matrix has the digits of h * t^i as column i, applied to the
        digit rows mod p; a prime field is the case e = 1.  Every product
        that builds the tables is _mul_poly, since mul reads them.
        """
        d, p, e = self.d, self.p, self.e
        divisors = [f for f in range(1, math.isqrt(d - 1) + 1) if (d - 1) % f == 0]
        primes = [q for f in divisors for q in (f, (d - 1) // f) if _is_prime(q)]

        def power(a: Felt, k: int) -> Felt:
            out = 1
            for bit in bin(k)[2:]:
                out = self._mul_poly(out, out)
                if bit == "1":
                    out = self._mul_poly(out, a)
            return out

        g = next(g for g in range(1, d) if all(power(g, (d - 1) // q) != 1 for q in primes))
        place = p ** np.arange(e, dtype=np.int64)
        exp = np.zeros(d, dtype=np.int64)
        exp[0] = 1
        filled = 1
        while filled < d - 1:
            top = min(2 * filled, filled + 2**16, d - 1)
            h = self._mul_poly(int(exp[filled - 1]), g)
            cols = np.array([self.digits(self._mul_poly(h, t)) for t in place.tolist()])
            exp[filled:top] = (exp[: top - filled, None] // place % p @ cols % p) @ place
            filled = top
        log = np.empty(d, dtype=np.int64)
        log[exp] = np.arange(d)
        log.flags.writeable = exp.flags.writeable = False
        return log, exp

    @cached_property
    def _log_lists(self) -> tuple[list[int], list[int]]:
        """log_tables as lists of ints, for element-at-a-time arithmetic."""
        log, exp = self.log_tables
        return log.tolist(), exp.tolist()

    @cached_property
    def _slot(self) -> int:
        """Bits per base-p digit of a wide element: a slot holds any sum of
        WIDE_TERMS digits, each at most p - 1."""
        return (WIDE_TERMS * (self.p - 1)).bit_length()

    @cached_property
    def _wide(self) -> list[int]:
        """wide[k] is exp[k] with digit j shifted to bit j * _slot, so a plain
        sum of at most WIDE_TERMS entries keeps each digit's sum in its own
        slot; on a prime field it is the antilog list itself."""
        exp = self._log_lists[1]
        if self.e == 1:  # a copy would add tens of MB at d near 2^20
            return exp
        by_code = [0]  # wide form of every element, by code, one digit at a time
        for j in range(self.e):
            shift = j * self._slot
            by_code = [w + (c << shift) for c in range(self.p) for w in by_code]
        return list(map(by_code.__getitem__, exp))

    @cached_property
    def _pad(self) -> int:
        """p in every slot: added before a wide entry is subtracted, it keeps
        every slot of the difference nonnegative."""
        return sum(self.p << j * self._slot for j in range(self.e))

    def _narrow(self, s: int) -> Felt:
        """The element a sum of _wide entries stands for."""
        p, slot = self.p, self._slot
        if not s >> slot:  # one slot: every prime-field sum, and any sum of constants
            return s % p
        mask = (1 << slot) - 1
        out, scale = 0, 1
        while s:
            out += (s & mask) % p * scale
            s >>= slot
            scale *= p
        return out

    def _check_wide(self, terms: int) -> None:
        """Raise unless a wide sum of `terms` entries is exact."""
        if terms > WIDE_TERMS:
            raise InvariantViolationError(
                f"a sum of {terms} terms could carry between the digit slots of "
                f"{self.describe()}; the bound is {WIDE_TERMS}"
            )

    def pow(self, a: Felt, k: int) -> Felt:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError(f"0 has no inverse in {self.describe()}")
            return 0 if k else 1
        log, exp = self._log_lists
        return exp[log[a] * k % (self.d - 1)]

    def inv(self, a: Felt) -> Felt:
        return self.pow(a, -1)

    def div(self, a: Felt, b: Felt) -> Felt:
        return self.mul(a, self.inv(b))

    # -- characters ----------------------------------------------------------

    @cached_property
    def _unit_roots(self) -> tuple[complex, ...]:
        return tuple(cmath.exp(2j * cmath.pi * t / self.p) for t in range(self.p))

    @cached_property
    def trace_form(self) -> tuple[tuple[int, ...], ...]:
        """M[j][k] = Tr(t^(j+k)), so Tr(a*b) = digits(a) . M . digits(b) mod p.

        Built once from the Frobenius-sum definition of the trace; [[1]] on
        a prime field.
        """
        t = self.p if self.e > 1 else 0  # t^0 = 1 is the only power used when e = 1
        powers = []
        for m in range(2 * self.e - 1):
            acc = frob = self.pow(t, m)
            for _ in range(self.e - 1):
                frob = self.pow(frob, self.p)
                acc = self.add(acc, frob)
            if acc >= self.p:
                raise InvariantViolationError(
                    f"trace(t^{m}) = {acc} escaped the prime subfield of {self.describe()}"
                )
            powers.append(acc)
        return tuple(tuple(powers[j : j + self.e]) for j in range(self.e))

    @cached_property
    def trace_vector(self) -> tuple[int, ...]:
        """Tr(t^j) for j < e, so Tr(a) = digits(a) . v mod p."""
        return self.trace_form[0]


def make_field(p: int, e: int = 1) -> FieldCtx:
    """Build GF(p^e) with the canonical modulus; errors on bad or oversized input."""
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    # The cap comes before the primality test and p**e, which take too long
    # for huge p or e; p >= 2 with e at the cap's bit length is past it.
    if p >= 2 and (e >= MAX_FIELD_SIZE.bit_length() or p**e > MAX_FIELD_SIZE):
        raise GuardExceededError(f"field size {p}^{e} exceeds the cap of {MAX_FIELD_SIZE}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return FieldCtx(p=p, e=e, modulus=_find_modulus(p, e), d=p**e)


def parse_field(descriptor: str) -> FieldCtx:
    """Parse 'p' or 'p^e' (e.g. '7^1', '2^2') into a field context."""
    text = descriptor.strip()
    if "^" in text:
        p_str, e_str = text.split("^", 1)
    else:
        p_str, e_str = text, "1"
    try:
        p, e = int(p_str), int(e_str)
    except ValueError:
        raise ValueError(f"malformed field descriptor {descriptor!r}, want 'p^e'") from None
    return make_field(p, e)


def field_descriptor(ctx: FieldCtx) -> str:
    return str(ctx.p) if ctx.e == 1 else f"{ctx.p}^{ctx.e}"


def trace(ctx: FieldCtx, a: Felt) -> Felt:
    """Absolute trace a + a^p + ... + a^(p^(e-1)) in [0, p), as the linear
    functional digits(a) . ctx.trace_vector mod p."""
    ctx.check(a)
    return sum(map(operator.mul, ctx.digits(a), ctx.trace_vector)) % ctx.p


def chi(ctx: FieldCtx, a: Felt) -> CharValue:
    """Additive character exp(2*pi*i*Tr(a)/p); chi(0) is exactly 1."""
    return ctx._unit_roots[trace(ctx, a)]


def dot(ctx: FieldCtx, v: Sequence[Felt], w: Sequence[Felt]) -> Felt:
    """Bilinear form sum_i v_i * w_i used in character phases."""
    if len(v) != len(w):
        raise ValueError(f"length mismatch in dot: {len(v)} vs {len(w)}")
    acc = 0
    for vi, wi in zip(v, w):
        acc = ctx.add(acc, ctx.mul(vi, wi))
    return acc


# -- square roots and quadratics ---------------------------------------------


def sqrt_elem(ctx: FieldCtx, a: Felt) -> list[Felt]:
    """All square roots of a, sorted; empty when a is a non-residue.

    With a = g^k, g^(k/2) is a root for even k.  For odd k a is a square
    only when d is even: then d - 1 is odd and g^((k + d - 1)/2) is the one
    root, since squaring is the Frobenius there.
    """
    ctx.check(a)
    if a == 0:
        return [0]
    log, exp = ctx._log_lists
    k = log[a]
    if k % 2 and ctx.d % 2:
        return []
    r = exp[(k + k % 2 * (ctx.d - 1)) // 2]
    return sorted({r, ctx.neg(r)})


def _artin_schreier_root(ctx: FieldCtx, delta: Felt) -> Felt:
    """Some u with u^2 + u = delta in characteristic 2; requires Tr(delta) = 0.

    With theta the first element of trace 1, u = sum over 0 <= i < j < e of
    theta^(2^j) * delta^(2^i) has u^2 + u = Tr(theta)*delta + Tr(delta)*theta.
    """
    theta = next(a for a in range(ctx.d) if trace(ctx, a) == 1)
    u = lower = 0  # lower = sum over i < j of delta^(2^i)
    t, s = theta, delta  # theta^(2^j), delta^(2^j)
    for _ in range(ctx.e):
        u = ctx.add(u, ctx.mul(t, lower))
        lower = ctx.add(lower, s)
        t, s = ctx.mul(t, t), ctx.mul(s, s)
    if ctx.add(ctx.mul(u, u), u) != delta:
        raise InvariantViolationError("Artin-Schreier solve failed on a trace-zero input")
    return u


def quadratic_roots(ctx: FieldCtx, a2: Felt, a1: Felt, a0: Felt) -> list[Felt]:
    """Distinct roots in F of a2*T^2 + a1*T + a0, sorted.

    Handles the degenerate linear case a2 = 0 as long as a1 != 0.  Odd
    characteristic goes through the discriminant and its square roots;
    characteristic 2 substitutes T = (a1/a2)*U to reach U^2 + U = delta,
    which has solutions exactly when Tr(delta) = 0.
    """
    for c in (a2, a1, a0):
        ctx.check(c)
    if a2 == 0:
        if a1 == 0:
            raise ValueError("degenerate equation: both leading coefficients are zero")
        return [ctx.mul(ctx.neg(a0), ctx.inv(a1))]
    if ctx.p != 2:
        four = 4 % ctx.p
        disc = ctx.sub(ctx.mul(a1, a1), ctx.mul(four, ctx.mul(a2, a0)))
        droots = sqrt_elem(ctx, disc)
        if not droots:
            return []
        inv_2a = ctx.inv(ctx.mul(2 % ctx.p, a2))
        return sorted({ctx.mul(ctx.add(ctx.neg(a1), r), inv_2a) for r in droots})
    if a1 == 0:
        return sqrt_elem(ctx, ctx.div(a0, a2))
    delta = ctx.mul(ctx.mul(a0, a2), ctx.inv(ctx.mul(a1, a1)))
    if trace(ctx, delta) != 0:
        return []
    u = _artin_schreier_root(ctx, delta)
    scale = ctx.div(a1, a2)
    return sorted({ctx.mul(scale, u), ctx.mul(scale, ctx.add(u, 1))})
