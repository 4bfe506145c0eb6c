"""Exact arithmetic in the quotient ring Z[x]/(N, x**p - d).

N may be composite: every operation stays correct over Z/NZ, and the norm is
computed as an integer determinant so that g = gcd(norm, N) classifies an
element even when modular elimination would hit non-invertible pivots.
Elements are coefficient vectors of length exactly p, fully reduced into
[0, N) after every operation.  Everything here is a pure function of
immutable inputs.

Products run on tuples of plain ints through straight-line kernels
generated once per degree from the schoolbook formula (p² coefficient
products, p(p+1)/2 for a squaring), under a sliding-window exponentiation.
A RingElement is built only at the end of ring_mul and ring_pow.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, NamedTuple

PRIME_DEGREES = (3, 5, 7, 11, 13)


class RingContext(NamedTuple):
    """Ring description: modulus N, prime degree p, reduction base d.

    ``phi_p_n`` caches the cyclotomic value N^(p-1) + ... + N + 1.
    """

    N: int
    p: int
    d: int
    phi_p_n: int


class RingElement(NamedTuple):
    """Residue as exactly p coefficients in [0, N), constant term first."""

    coeffs: tuple[int, ...]


def cyclotomic_value(n: int, p: int) -> int:
    """Value of the p-th cyclotomic polynomial at n: n^(p-1) + ... + n + 1."""
    return sum(n**i for i in range(p))


def make_context(N: int, p: int, d: int) -> RingContext:
    """Context for the ring Z[x]/(N, x**p - d) with d reduced mod N."""
    if N <= 3 or N % 2 == 0:
        raise ValueError("modulus must be odd and greater than 3")
    if p not in PRIME_DEGREES:
        raise ValueError(f"degree must be one of {PRIME_DEGREES}")
    if d <= 0:
        raise ValueError("base d must be positive")
    if d % N in (0, 1):
        # x**p - d would be x**p, or split off x - 1; keep the base strictly inside (1, N)
        raise ValueError(f"degenerate base: d ≡ {d % N} (mod N)")
    return RingContext(N=N, p=p, d=d % N, phi_p_n=cyclotomic_value(N, p))


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


@lru_cache(maxsize=None)
def _kernels(p: int):
    """Straight-line product mul(a, b, N, d) and squaring sqr(a, N, d) for degree p.

    Generated once per degree from coefficient indices only, never from
    input.  Coefficient c of the result is conv[c] + d·conv[c + p], reduced
    once mod N, where conv is the schoolbook convolution.  The product makes
    p² coefficient products; the squaring takes each cross term once as
    2·a_i·a_j, so it makes p(p+1)/2.  Both unpack their operands, so a
    sequence whose length is not p raises ValueError.
    """

    def conv(k, b):
        """conv[k] of a and b; for the squaring, b is "a" and each pair i < j enters once."""
        pairs = [(i, k - i) for i in range(p) if 0 <= k - i < p and (b == "b" or i <= k - i)]
        return " + ".join(f"a{i}*{b}{j}" if b == "b" or i == j else f"2*(a{i}*a{j})" for i, j in pairs)

    def reduced(b):
        wrapped = [f" + d*({conv(c + p, b)})" for c in range(p - 1)] + [""]
        return ", ".join(f"({conv(c, b)}{wrapped[c]}) % N" for c in range(p))

    a = ", ".join(f"a{i}" for i in range(p))
    namespace: dict = {}
    exec(
        f"def mul(a, b, N, d):\n    {a} = a\n    {a.replace('a', 'b')} = b\n    return ({reduced('b')},)\n"
        f"def sqr(a, N, d):\n    {a} = a\n    return ({reduced('a')},)\n",
        namespace,
    )
    return namespace["mul"], namespace["sqr"]


def ring_mul(ctx: RingContext, a: RingElement, b: RingElement) -> RingElement:
    """Product reduced by x**p = d and then mod N; ring_mul(a, a) squares."""
    mul, sqr = _kernels(ctx.p)
    if a is b:
        return RingElement(sqr(a.coeffs, ctx.N, ctx.d))
    return RingElement(mul(a.coeffs, b.coeffs, ctx.N, ctx.d))


def _window_width(bits: int) -> int:
    """Width w minimising the table's 2^(w-1) entries plus about bits/(w+1) window products."""
    return min(range(1, 8), key=lambda w: (1 << (w - 1)) + bits / (w + 1))


def ring_pow(ctx: RingContext, a: RingElement, e: int) -> RingElement:
    """a**e by left-to-right sliding windows of odd powers; a**0 is the identity.

    The Handbook of Applied Cryptography's Alg. 14.85 on plain coefficient
    tuples: the table holds a, a^3, ..., a^(2^w - 1) for a width w chosen
    from the exponent's length, each zero bit costs a squaring, and each
    window of at most w bits ending in a one costs its squarings and one
    table product.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if len(a.coeffs) != ctx.p:
        raise ValueError(f"an element has exactly {ctx.p} coefficients")
    if e == 0:
        return one(ctx)
    (mul, sqr), N, d = _kernels(ctx.p), ctx.N, ctx.d
    digits = bin(e)[2:]
    width = _window_width(len(digits))
    odd = [tuple(c % N for c in a.coeffs)]
    if width > 1:
        square = sqr(odd[0], N, d)
        for _ in range((1 << (width - 1)) - 1):
            odd.append(mul(odd[-1], square, N, d))
    acc = None
    i = 0
    while i < len(digits):
        if digits[i] == "0":
            acc = sqr(acc, N, d)
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
                acc = sqr(acc, N, d)
            acc = mul(acc, entry, N, d)
        i = j
    return RingElement(acc)


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


def classify_unit(ctx: RingContext, a: RingElement) -> int:
    """g = gcd(norm(a), N), which classifies a.

    g = 1: a is a unit.  g = N: norm(a) ≡ 0, as for the zero element.
    Otherwise a is a zero divisor and g is a proper factor of N, so finding
    one is a success case: it factors N.
    """
    return gcd(ring_norm(ctx, a), ctx.N)
