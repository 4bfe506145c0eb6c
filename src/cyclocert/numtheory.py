"""Scalar modular number theory used throughout the chain.

Roots of cyclotomic polynomials and of -3, p-th power residue testing,
probable-prime testing, smooth parts, and the power-basis admissibility
predicate for the ring base d. All functions are pure; the probable-prime
test draws its bases from a ``random.Random`` seeded by its input, so runs
are reproducible.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt, prod

_SMALL_PRIME_LIMIT = 2048


def _sieve(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = _sieve(_SMALL_PRIME_LIMIT)
# one gcd with their product does the trial division
_SMALL_PRIME_PRODUCT = prod(SMALL_PRIMES)

# bases d are kept small enough that squarefreeness is decidable by trial
# division with the sieved primes alone
SMALL_BASE_LIMIT = 10**6


class SeedTrust(Enum):
    """How the primality of a seed was established."""

    EXTERNALLY_PROVEN = "EXTERNALLY_PROVEN"
    PROBABLE = "PROBABLE"


def _strong_test(n: int, a: int) -> bool:
    # strong Fermat test to base a; n odd, n > 2
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 20) -> bool:
    """Probable-prime test: trial division, a base-2 strong test, then
    ``rounds`` strong tests to bases drawn from ``random.Random(n)``.

    False means certainly composite.  For n below the square of the trial
    division limit the answer is exact.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return n <= _SMALL_PRIME_LIMIT and n in SMALL_PRIMES
    if n < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
        return True
    if not _strong_test(n, 2):
        return False
    rng = random.Random(n)  # deterministic per candidate, no global state
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if not _strong_test(n, a):
            return False
    return True


@lru_cache(maxsize=8)
def _primorial(y: int) -> int:
    return prod(_sieve(y))


def smooth_part(m: int, y: int) -> int:
    """Largest divisor of m > 0 whose prime factors are all at most y.

    One gcd with the product of the primes up to y finds the primes present;
    each further gcd strips one more power of them.
    """
    if m < 1:
        raise ValueError("require m >= 1")
    part = 1
    g = gcd(m, _primorial(y))
    while g > 1:
        part *= g
        m //= g
        g = gcd(m, g)
    return part


def cyclotomic_roots(p: int, q: int) -> set[int]:
    """All residues N mod q with Phi_p(N) ≡ 0, i.e. of multiplicative order p.

    Exists exactly when q ≡ 1 (mod p): raise a generator candidate g to
    (q-1)/p; any result h ≠ 1 has order exactly p, and the p-1 nontrivial
    powers of h are precisely the roots.
    """
    if q < 2 or p == q:
        raise ValueError("degrees p and q must be distinct primes")
    if q % p != 1:
        raise ValueError("Phi_p has roots mod q only when q ≡ 1 (mod p)")
    e = (q - 1) // p
    for g in range(2, q):
        h = pow(g, e, q)
        if h != 1:
            roots = set()
            x = h
            for _ in range(p - 1):
                roots.add(x)
                x = x * h % q
            return roots
    raise ArithmeticError(f"no element of order {p} mod {q}; is q prime?")


def sqrt_minus3(q: int) -> tuple[int, int]:
    """Both square roots of -3 modulo an odd prime q with q ≡ 1 (mod 3).

    For a nontrivial cube root of unity h, (2h+1)² = 4(h² + h + 1) - 3 ≡ -3,
    so the roots are ±(2h+1).  The result is verified by squaring before
    returning.  Roots come back ascending; their sum is q, so exactly one of
    them is odd.
    """
    if q % 3 != 1:
        raise ValueError("-3 is a quadratic residue mod q only when q ≡ 1 (mod 3)")
    r = (2 * min(cyclotomic_roots(3, q)) + 1) % q
    if (r * r + 3) % q != 0:
        raise ArithmeticError(f"square root of -3 mod {q} failed verification")
    return (min(r, q - r), max(r, q - r))


def pth_power_symbol(a: int, n: int, p: int) -> int:
    """a^((n-1)/p) mod n; for prime n a p-th root of unity, 1 exactly on p-th powers.

    Composite n is allowed; the value is then purely the congruence power.
    """
    if n % p != 1:
        raise ValueError("require n ≡ 1 (mod p)")
    if gcd(a, n) != 1:
        raise ValueError("a must be coprime to n")
    return pow(a, (n - 1) // p, n)


def pth_residue(a: int, n: int, p: int) -> bool:
    """Euler criterion: a is a p-th power residue mod n iff a^((n-1)/p) ≡ 1.

    Exact for prime n.  Composite n is allowed; the result is then purely the
    congruence test, which is how the candidate filter uses it.
    """
    return pth_power_symbol(a, n, p) == 1


def is_squarefree_small(d: int) -> bool:
    """Squarefreeness by trial division; only valid below SMALL_BASE_LIMIT."""
    if d > SMALL_BASE_LIMIT:
        raise ValueError(f"squarefree check by trial division capped at {SMALL_BASE_LIMIT}")
    rest = d
    for p in SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return False
    # leftover cofactor is 1 or a prime appearing once
    return True


def monogenic_ok(d: int, p: int) -> bool:
    """Whether x**p - d supports plain power-basis arithmetic.

    d squarefree and d**(p-1) not ≡ 1 mod p²; at p = 3 this is the cubic
    rule d mod 9 not in {1, 8}, since d² ≡ 1 mod 9 exactly when d ≡ ±1.
    """
    if d <= 1:
        raise ValueError("base d must exceed 1")
    if d > SMALL_BASE_LIMIT:
        raise ValueError(f"base d capped at {SMALL_BASE_LIMIT}")
    if not is_squarefree_small(d):
        return False
    return pow(d, p - 1, p * p) != 1
