"""Scalar modular number theory used throughout the chain.

The admissible-base rule and its twist ζ (twist), on which p-th power
residue testing and the roots of cyclotomic polynomials and of -3 build;
the Baillie-PSW probable-prime test, smooth parts, and the power-basis
predicate for the ring base d. All functions are pure; any strong tests
requested beyond BPSW draw their bases from a ``random.Random`` seeded by
the input, so runs are reproducible.
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
    """How the primality of a seed was established: PROBABLE is the BPSW test."""

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


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _lucas_test(n: int) -> bool:
    """Extra-strong Lucas test with Q = 1; n odd, greater than 2, not a square.

    P runs 3, 4, ... until D = P² - 4 has (D/n) = -1; a D that shares a
    proper factor with n proves n composite.  With n + 1 = d·2^s, d odd, n
    passes when U_d ≡ 0 and V_d ≡ ±2, or V_(d·2^r) ≡ 0 for some r < s - 1.
    One ladder over d gives V_d and V_(d+1), and D·U_d = 2V_(d+1) - P·V_d
    decides U_d ≡ 0, since gcd(D, n) = 1.
    """
    P = 3
    while True:
        D = P * P - 4
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False
        P += 1
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # (V_k, V_(k+1)) from k = 1 down the bits of d: V_2k = V_k² - 2 and
    # V_(2k+1) = V_k·V_(k+1) - P
    v, w = P % n, (P * P - 2) % n
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w = (v * w - P) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - P) % n
    if (v == 2 or v == n - 2) and (2 * w - P * v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def is_probable_prime(n: int, rounds: int = 0) -> bool:
    """Baillie-PSW test: trial division, a refusal of perfect squares, a
    base-2 strong test and an extra-strong Lucas test (Baillie & Wagstaff,
    Math. Comp. 1980), then ``rounds`` strong tests to bases drawn from
    ``random.Random(n)``.

    False means certainly composite.  For n below the square of the trial
    division limit the answer is exact.  No composite that passes BPSW is
    known, and none exists below 2^64.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return n <= _SMALL_PRIME_LIMIT and n in SMALL_PRIMES
    if n < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
        return True
    # a square has (D/n) ∈ {0, 1} for every D, so the Lucas search would not end
    if isqrt(n) ** 2 == n or not _strong_test(n, 2) or not _lucas_test(n):
        return False
    rng = random.Random(n)  # deterministic per candidate, no global state
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if not _strong_test(n, a):
            return False
    return True


@lru_cache(maxsize=8)
def _split_primorial(p: int, y: int) -> int:
    return prod(ell for ell in _sieve(y) if ell % p in (0, 1))


def smooth_part(m: int, p: int, y: int) -> int:
    """Largest divisor of m > 0 whose prime factors are p or ≡ 1 (mod p) and at most y.

    For m = Phi_p(N) that is the whole y-smooth part: a prime r ≠ p dividing
    Phi_p(N) has N of order p mod r, so r ≡ 1 (mod p).  One gcd with the
    product of those primes finds the ones present; each further gcd strips
    one more power of them.
    """
    if m < 1:
        raise ValueError("require m >= 1")
    part = 1
    g = gcd(m, _split_primorial(p, y))
    while g > 1:
        part *= g
        m //= g
        g = gcd(m, g)
    return part


def twist(d: int, n: int, p: int) -> int | None:
    """ζ = d^((n-1)/p) mod n when d is an admissible base for n, else None.

    Admissible means n ≡ 1 (mod p), gcd(n, p·d) = 1 and ζ ≠ 1.  For prime
    n, ζ ≠ 1 says d is not a p-th power, so x^p - d is irreducible mod n,
    Z[θ]/(n) is the field F_(n^p), θ^n = ζθ, and ζ has order exactly p.
    Composite n is allowed; the value is then purely the congruence power.
    """
    if n % p != 1 or gcd(n, p * d) != 1:
        return None
    zeta = pow(d, (n - 1) // p, n)
    return None if zeta == 1 else zeta


def pth_residue(a: int, n: int, p: int) -> bool:
    """Euler criterion: a is a p-th power residue mod n iff a^((n-1)/p) ≡ 1.

    Requires n ≡ 1 (mod p) and gcd(a, n) = 1.  Exact for prime n; for
    composite n the result is purely the congruence test.
    """
    if n % p != 1:
        raise ValueError("require n ≡ 1 (mod p)")
    if gcd(a, n) != 1:
        raise ValueError("a must be coprime to n")
    return twist(a, n, p) is None


def cyclotomic_roots(p: int, q: int) -> set[int]:
    """All residues N mod q with Phi_p(N) ≡ 0, i.e. of multiplicative order p.

    Exists exactly when q ≡ 1 (mod p): the twist h = g^((q-1)/p) of the
    first g that is not a p-th power has order exactly p, and the p-1
    nontrivial powers of h are precisely the roots.
    """
    if q < 2 or p == q:
        raise ValueError("degrees p and q must be distinct primes")
    if q % p != 1:
        raise ValueError("Phi_p has roots mod q only when q ≡ 1 (mod p)")
    for g in range(2, q):
        h = twist(g, q, p)
        if h is not None:
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


def is_squarefree_small(d: int) -> bool:
    """Squarefreeness of d >= 1 by one gcd; only valid up to SMALL_BASE_LIMIT.

    g = gcd(d, ∏ SMALL_PRIMES) is the product of the small primes dividing
    d, and d/g shares one of them exactly when its square divides d.  A
    prime above the trial limit divides d at most once, since its square
    exceeds SMALL_BASE_LIMIT.
    """
    if d > SMALL_BASE_LIMIT:
        raise ValueError(f"squarefree check by trial division capped at {SMALL_BASE_LIMIT}")
    g = gcd(d, _SMALL_PRIME_PRODUCT)
    return gcd(d // g, g) == 1


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
