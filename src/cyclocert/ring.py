"""Exact arithmetic in the quotient ring Z[x]/(N, x**p - d).

N may be composite: every operation stays correct over Z/NZ, and the norm is
computed as an integer determinant so that unit/zero-divisor classification
works even when modular elimination would hit non-invertible pivots.
Elements are coefficient vectors of length exactly p, fully reduced into
[0, N) after every operation.  Everything here is a pure function of
immutable inputs.

Products run on plain lists of ints with one kernel for every degree: a
schoolbook product, a squaring that takes each cross term once as
2·a_i·a_j, and a sliding-window exponentiation over both.  A RingElement
is built only at the end of ring_mul and ring_pow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable

PRIME_DEGREES = (3, 5, 7, 11, 13)


@dataclass(frozen=True)
class RingContext:
    """Ring description: modulus N, prime degree p, reduction base d.

    ``phi_p_n`` caches the cyclotomic value N^(p-1) + ... + N + 1.
    """

    N: int
    p: int
    d: int
    phi_p_n: int


@dataclass(frozen=True)
class RingElement:
    """Residue as exactly p coefficients in [0, N), constant term first."""

    coeffs: tuple[int, ...]


def cyclotomic_value(n: int, p: int) -> int:
    """Value of the p-th cyclotomic polynomial at n: n^(p-1) + ... + n + 1."""
    return sum(n**i for i in range(p))


def make_context(N: int, p: int, d: int) -> RingContext:
    """Context for the ring Z[x]/(N, x**p - d) with d reduced mod N."""
    if N <= 3 or N % 2 == 0:
        raise ValueError("modulus must be odd and greater than 3")
    ctx = unchecked_context(N, p, d)
    if ctx.d == 1:
        # x**p - 1 splits off x - 1; keep the base strictly inside (1, N)
        raise ValueError("degenerate base: d ≡ 1 (mod N)")
    return ctx


def unchecked_context(N: int, p: int, d: int) -> RingContext:
    """Context without the oddness gate; composite sweeps visit even N too."""
    if N < 2:
        raise ValueError("modulus must be at least 2")
    if p not in PRIME_DEGREES:
        raise ValueError(f"degree must be one of {PRIME_DEGREES}")
    if d <= 0:
        raise ValueError("base d must be positive")
    d_red = d % N
    if d_red == 0:
        raise ValueError("degenerate base: d ≡ 0 (mod N)")
    return RingContext(N=N, p=p, d=d_red, phi_p_n=cyclotomic_value(N, p))


def element(ctx: RingContext, coeffs: Iterable[int]) -> RingElement:
    """Reduce a coefficient sequence of length at most p into the ring."""
    cs = [c % ctx.N for c in coeffs]
    if len(cs) > ctx.p:
        raise ValueError(f"at most {ctx.p} coefficients allowed")
    cs.extend([0] * (ctx.p - len(cs)))
    return RingElement(tuple(cs))


def zero(ctx: RingContext) -> RingElement:
    return RingElement((0,) * ctx.p)


def one(ctx: RingContext) -> RingElement:
    return RingElement((1 % ctx.N,) + (0,) * (ctx.p - 1))


def theta(ctx: RingContext) -> RingElement:
    return element(ctx, (0, 1))


def scalar(ctx: RingContext, c: int) -> RingElement:
    return element(ctx, (c,))


def is_zero(a: RingElement) -> bool:
    return all(c == 0 for c in a.coeffs)


def ring_sub(ctx: RingContext, a: RingElement, b: RingElement) -> RingElement:
    N = ctx.N
    return RingElement(tuple((x - y) % N for x, y in zip(a.coeffs, b.coeffs)))


def _fold(conv: list[int], p: int, N: int, d: int) -> list[int]:
    """Fold the coefficient of x^(p+i) into x^i with multiplier d, then reduce mod N."""
    for i in range(p - 1):
        conv[i] += d * conv[i + p]
    return [c % N for c in conv[:p]]


def _mul(a, b, p: int, N: int, d: int) -> list[int]:
    """Product of two coefficient sequences: schoolbook convolution, then the fold."""
    conv = [0] * (2 * p - 1)
    for i, ai in enumerate(a):
        k = i
        for bj in b:
            conv[k] += ai * bj
            k += 1
    return _fold(conv, p, N, d)


def _sqr(a, p: int, N: int, d: int) -> list[int]:
    """Square of a coefficient sequence with p(p+1)/2 products.

    Each off-diagonal pair enters once as 2·a_i·a_j, so p = 3 takes 6
    products where the general convolution takes 9.
    """
    conv = [0] * (2 * p - 1)
    for i, ai in enumerate(a):
        conv[2 * i] += ai * ai
        twice = ai << 1
        k = 2 * i + 1
        for aj in a[i + 1 :]:
            conv[k] += twice * aj
            k += 1
    return _fold(conv, p, N, d)


def ring_mul(ctx: RingContext, a: RingElement, b: RingElement) -> RingElement:
    """Product reduced by x**p = d and then mod N; ring_mul(a, a) squares."""
    if a is b:
        return RingElement(tuple(_sqr(a.coeffs, ctx.p, ctx.N, ctx.d)))
    return RingElement(tuple(_mul(a.coeffs, b.coeffs, ctx.p, ctx.N, ctx.d)))


def _window_width(bits: int) -> int:
    """Width w minimising the table's 2^(w-1) entries plus about bits/(w+1) window products."""
    return min(range(1, 8), key=lambda w: (1 << (w - 1)) + bits / (w + 1))


def ring_pow(ctx: RingContext, a: RingElement, e: int) -> RingElement:
    """a**e by left-to-right sliding windows of odd powers; a**0 is the identity.

    The Handbook of Applied Cryptography's Alg. 14.85 on plain coefficient
    lists: the table holds a, a^3, ..., a^(2^w - 1) for a width w chosen
    from the exponent's length, each zero bit costs a squaring, and each
    window of at most w bits ending in a one costs its squarings and one
    table product.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return one(ctx)
    p, N, d = ctx.p, ctx.N, ctx.d
    digits = bin(e)[2:]
    width = _window_width(len(digits))
    odd = [[c % N for c in a.coeffs]]
    if width > 1:
        square = _sqr(odd[0], p, N, d)
        for _ in range((1 << (width - 1)) - 1):
            odd.append(_mul(odd[-1], square, p, N, d))
    acc = None
    i = 0
    while i < len(digits):
        if digits[i] == "0":
            acc = _sqr(acc, p, N, d)
            i += 1
            continue
        j = min(i + width, len(digits))
        while digits[j - 1] == "0":
            j -= 1
        entry = odd[int(digits[i:j], 2) >> 1]
        if acc is None:
            acc = entry
        else:
            for _ in range(j - i):
                acc = _sqr(acc, p, N, d)
            acc = _mul(acc, entry, p, N, d)
        i = j
    return RingElement(tuple(acc))


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def ring_norm(ctx: RingContext, a: RingElement) -> int:
    """Norm of an element as a residue in [0, N); multiplicative.

    The determinant of multiplication by a on the basis 1, θ, ..., θ^(p-1).
    Column j holds a·θ^j: the coefficients of a shifted down by j, where
    those that wrap past θ^(p-1) are multiplied by d, since θ^p = d.
    Entries lie in [0, N); the exact integer determinant is reduced mod N.
    """
    p, N, d = ctx.p, ctx.N, ctx.d
    coeffs = a.coeffs
    wrapped = [d * c % N for c in coeffs]
    matrix = [[(wrapped if j > i else coeffs)[i - j] for j in range(p)] for i in range(p)]
    return _bareiss_det(matrix) % N


class UnitKind(Enum):
    UNIT = "UNIT"
    ZERO = "ZERO"
    ZERO_DIVISOR = "ZERO_DIVISOR"


@dataclass(frozen=True)
class UnitClassification:
    """Outcome of gcd(norm, N): a ZERO_DIVISOR carries the factor it found."""

    kind: UnitKind
    factor: int | None = None


def classify_unit(ctx: RingContext, a: RingElement) -> UnitClassification:
    """Classify an element via g = gcd(norm(a), N).

    UNIT when g = 1; ZERO for the zero element or g = N; otherwise a
    ZERO_DIVISOR whose factor g properly divides N.  Finding a zero divisor
    is a success case: it factors N.
    """
    if is_zero(a):
        return UnitClassification(UnitKind.ZERO)
    g = gcd(ring_norm(ctx, a), ctx.N)
    if g == 1:
        return UnitClassification(UnitKind.UNIT)
    if g == ctx.N:
        return UnitClassification(UnitKind.ZERO)
    return UnitClassification(UnitKind.ZERO_DIVISOR, factor=g)
