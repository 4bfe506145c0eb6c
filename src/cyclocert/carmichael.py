"""Classification of composites that fool the cubic Fermat analog.

A composite N ≡ 1 (mod 3) with gcd(N, 3d) = 1 is a cubic Carmichael number
when every unit z of the ring satisfies z^(N³-1) = 1.  Under the hypothesis
that x³ - d stays irreducible modulo every prime factor, this is equivalent
to the Korselt-style conditions: N squarefree and (q³-1) | (N³-1) for every
prime q | N.  The direct definition is decidable by exhaustive enumeration
for tiny N; the Korselt route only needs the factorization of N.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import NamedTuple

from .numtheory import SMALL_PRIMES, is_probable_prime, twist
from .ring import RingElement, classify_unit, make_context, one, ring_pow

FACTOR_LIMIT = 10**12
DIRECT_LIMIT = 60


def _pollard_rho(n: int) -> int:
    """Floyd-cycle rho with a deterministic parameter sweep; n composite, odd."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending.

    Trial division by numtheory.SMALL_PRIMES (the primes up to 2,048);
    what remains is split by deterministic rho until BPSW passes every
    part.
    """
    if n < 2:
        raise ValueError("nothing to factor below 2")
    factors: dict[int, int] = {}
    rest = n
    for p in SMALL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


class CarmichaelReport(NamedTuple):
    """Per-candidate record of the Korselt-style conditions.

    korselt_ok covers squarefreeness plus the divisibility condition;
    irreducibility_ok records whether x³ - d is irreducible modulo every
    prime factor, the hypothesis under which korselt_ok is equivalent to the
    direct definition.
    """

    N: int
    squarefree: bool
    factor_list: tuple[int, ...]
    korselt_ok: bool
    irreducibility_ok: bool


def korselt_check(n: int, d: int) -> CarmichaelReport:
    """Korselt-style report for a composite n ≡ 1 (mod 3), gcd(n, 3d) = 1."""
    if n > FACTOR_LIMIT:
        raise ValueError(f"factoring backend capped at {FACTOR_LIMIT}")
    if n % 3 != 1:
        raise ValueError("require n ≡ 1 (mod 3)")
    if gcd(n, 3 * d) != 1:
        raise ValueError("require gcd(n, 3d) = 1")
    factors = factorize(n)
    if len(factors) == 1 and factors[0][1] == 1:
        raise ValueError("n must be composite")
    squarefree = all(e == 1 for _, e in factors)
    n3 = n**3 - 1
    divisibility = all(n3 % (q**3 - 1) == 0 for q, _ in factors)
    # x³ - d is irreducible mod a prime q iff d is an admissible base for q:
    # for q ≡ 2 (mod 3) cubing is a bijection, so a root always exists
    irreducible = all(twist(d, q, 3) is not None for q, _ in factors)
    return CarmichaelReport(
        N=n,
        squarefree=squarefree,
        factor_list=tuple(q for q, _ in factors),
        korselt_ok=squarefree and divisibility,
        irreducibility_ok=irreducible,
    )


def carmichael_direct(n: int, d: int) -> bool:
    """Direct definition by exhaustive enumeration: every unit z has
    z^(n³-1) = 1.  Only feasible for n up to DIRECT_LIMIT.

    Scalars are swept first.  They reject every even n and every composite
    up to DIRECT_LIMIT, so the ring is built, under make_context's gates,
    and enumerated only for a rare n such as 133.
    """
    if n > DIRECT_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at {DIRECT_LIMIT}")
    if n < 4 or is_probable_prime(n):
        raise ValueError("n must be composite")
    if gcd(n, 3 * d) != 1:
        raise ValueError("require gcd(n, 3d) = 1")
    e = n**3 - 1
    for c in range(2, n):
        if gcd(c, n) == 1 and pow(c, e, n) != 1:
            return False
    ctx = make_context(n, 3, d)
    for coeffs in product(range(n), repeat=3):
        z = RingElement(coeffs)
        if classify_unit(ctx, z) != 1:
            continue
        if ring_pow(ctx, z, e) != one(ctx):
            return False
    return True
