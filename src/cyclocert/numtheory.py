"""Scalar modular number theory used throughout the chain.

Square roots of -3, p-th power residue testing, probable-prime testing,
smooth parts, and the power-basis admissibility predicate for the ring base
d. All functions are pure; randomized routines draw from a
``random.Random`` seeded by their input or owned by the caller, so runs are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SeedPrime:
    """A trusted seed prime q together with its residue class mod the degree."""

    q: int
    trust: SeedTrust
    congruence_class: int


def make_seed(q: int, p: int, trust: SeedTrust = SeedTrust.PROBABLE) -> SeedPrime:
    """Record a seed prime for degree p; q itself is trusted, not re-proven."""
    if q <= 3:
        raise ValueError("seed prime must exceed 3")
    return SeedPrime(q=q, trust=trust, congruence_class=q % p)


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


def _tonelli_shanks(a: int, q: int, rng: random.Random) -> int:
    """Square root of the residue a modulo an odd prime q with q % 4 == 1."""
    m = q - 1
    s = 0
    while m % 2 == 0:
        m //= 2
        s += 1
    # randomized non-residue search; rng is deterministic per caller
    while True:
        u = rng.randrange(2, q)
        if pow(u, (q - 1) // 2, q) == q - 1:
            break
    c = pow(u, m, q)
    x = pow(a, (m + 1) // 2, q)
    t = pow(a, m, q)
    r = s
    while t != 1:
        # find least i with t^(2^i) = 1
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (r - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        r = i
    return x


def sqrt_minus3(q: int, rng: random.Random | None = None) -> tuple[int, int]:
    """Both square roots of -3 modulo an odd prime q with q ≡ 1 (mod 3).

    Uses the exponent shortcut when q ≡ 3 (mod 4) and Tonelli-Shanks
    otherwise.  The result is verified by squaring before returning.  Roots
    come back ascending; their sum is q, so exactly one of them is odd.
    """
    if q % 3 != 1:
        raise ValueError("-3 is a quadratic residue mod q only when q ≡ 1 (mod 3)")
    a = -3 % q
    if q % 4 == 3:
        r = pow(a, (q + 1) // 4, q)
    else:
        r = _tonelli_shanks(a, q, rng if rng is not None else random.Random(0))
    if r * r % q != a:
        raise ArithmeticError(f"square root of -3 mod {q} failed verification")
    return (min(r, q - r), max(r, q - r))


def pth_residue(a: int, n: int, p: int) -> bool:
    """Euler criterion: a is a p-th power residue mod n iff a^((n-1)/p) ≡ 1.

    Exact for prime n.  Composite n is allowed; the result is then purely the
    congruence test, which is how the candidate filter uses it.
    """
    if n % p != 1:
        raise ValueError("require n ≡ 1 (mod p)")
    if gcd(a, n) != 1:
        raise ValueError("a must be coprime to n")
    return pow(a, (n - 1) // p, n) == 1


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

    For p = 3: d squarefree and d mod 9 not in {1, 8}.  For p > 3: d
    squarefree and d**(p-1) not ≡ 1 mod p², which reduces to the cubic rule
    at p = 3 (d² ≡ 1 mod 9 exactly when d ≡ ±1 mod 9).
    """
    if d <= 1:
        raise ValueError("base d must exceed 1")
    if d > SMALL_BASE_LIMIT:
        raise ValueError(f"base d capped at {SMALL_BASE_LIMIT}")
    if not is_squarefree_small(d):
        return False
    if p == 3:
        return d % 9 not in (1, 8)
    return pow(d, p - 1, p * p) != 1
