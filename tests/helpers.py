"""Shared test scaffolding: scripted RNGs and tiny reference oracles."""

from __future__ import annotations

import random
from math import gcd

from cyclocert import (
    RingContext,
    RingElement,
    cyclotomic_value,
    element,
    make_context,
    one,
    ring_mul,
    ring_norm,
    ring_pow,
)
from cyclocert.numtheory import SMALL_PRIMES, _strong_test
from cyclocert.ring import is_zero, ring_sub


class ScriptedBits:
    """Feeds preset values to getrandbits; raising StopIteration ends a search."""

    def __init__(self, values):
        self._values = iter(values)

    def getrandbits(self, bits):
        return next(self._values)


class ScriptedDraws:
    """Feeds preset coefficient draws to randrange, cycling the last batch."""

    def __init__(self, draws):
        self._draws = list(draws)
        self._pos = 0

    def randrange(self, n):
        value = self._draws[self._pos % len(self._draws)]
        self._pos += 1
        return value % n


def raw_context(n: int, p: int, d: int) -> RingContext:
    """A ring context past make_context's gates, for kernel oracles over any modulus."""
    return RingContext(n, p, d % n, cyclotomic_value(n, p))


def slow_pow(ctx: RingContext, a: RingElement, e: int) -> RingElement:
    """Exponentiation by repeated multiplication; the oracle for ring_pow."""
    result = RingElement((1 % ctx.N,) + (0,) * (ctx.p - 1))
    for _ in range(e):
        result = ring_mul(ctx, result, a)
    return result


def schoolbook_mul(ctx: RingContext, a: RingElement, b: RingElement) -> RingElement:
    """Product by the full polynomial convolution, then x^t -> d·x^(t-p) from the top down.

    The oracle for the ring kernel; it shares no code with ring_mul.
    """
    p, n, d = ctx.p, ctx.N, ctx.d
    poly = [0] * (2 * p - 1)
    for i in range(p):
        for j in range(p):
            poly[i + j] += a.coeffs[i] * b.coeffs[j]
    for t in range(2 * p - 2, p - 1, -1):
        poly[t - p] += d * poly[t]
        poly[t] = 0
    return RingElement(tuple(c % n for c in poly[:p]))


def square_and_multiply(ctx: RingContext, a: RingElement, e: int) -> RingElement:
    """Right-to-left binary exponentiation over schoolbook_mul."""
    result = RingElement((1 % ctx.N,) + (0,) * (ctx.p - 1))
    base = RingElement(tuple(c % ctx.N for c in a.coeffs))
    while e:
        if e & 1:
            result = schoolbook_mul(ctx, result, base)
        base = schoolbook_mul(ctx, base, base)
        e >>= 1
    return result


def cubic_norm(ctx: RingContext, a: RingElement) -> int:
    """Closed-form norm A³ + d·B³ + d²·C³ - 3d·A·B·C of A + Bθ + Cθ² mod N.

    The oracle for ring_norm at degree 3; it shares no code with it.
    """
    A, B, C = a.coeffs
    d = ctx.d
    return (A**3 + d * B**3 + d * d * C**3 - 3 * d * A * B * C) % ctx.N


def sprp_filter_loop(N: int, d: int, z: RingElement, k: int, p_seed: int, ell: int) -> bool:
    """The ring filter as one exponentiation loop; the oracle for sprp_filter.

    w = z^(N-1) and X = w^k; pass when X = 1, or when some step X -> X^p_seed
    reaches 1 from an X with gcd(norm(X - 1), N) = 1.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if k < 1 or k * p_seed**ell != cyclotomic_value(N, 3):
        raise ValueError("factorization N^2+N+1 = k * p_seed^ell does not hold")
    ctx = make_context(N, 3, d)
    base = element(ctx, z.coeffs)
    if is_zero(base):
        raise ValueError("base element must be nonzero")
    w = ring_pow(ctx, base, N - 1)
    x = ring_pow(ctx, w, k)
    if x == one(ctx):
        return True
    for _ in range(ell):
        x_next = ring_pow(ctx, x, p_seed)
        if x_next == one(ctx) and gcd(ring_norm(ctx, ring_sub(ctx, x, one(ctx))), N) == 1:
            return True
        x = x_next
    return False


def sieve_primes(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return [i for i, f in enumerate(flags) if f]


def strong_rounds_prime(n: int, rounds: int = 20) -> bool:
    """The probable-prime test that BPSW replaced; the oracle for is_probable_prime.

    Trial division by SMALL_PRIMES, a base-2 strong test, then ``rounds``
    strong tests to bases drawn from random.Random(n).
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < SMALL_PRIMES[-1] ** 2:
        return True
    if not _strong_test(n, 2):
        return False
    rng = random.Random(n)
    return all(_strong_test(n, rng.randrange(2, n - 1)) for _ in range(rounds))
