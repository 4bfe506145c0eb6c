"""Candidate construction: pairs (N, q, k) with Phi_p(N) = k·q.

Generation searches one sieved window of N per call for one where Phi_p(N)
is a large prime q times a small cofactor k; this is what reproduces the
reference tables, where q is close to N^(p-1).  The paper's forward
construction, which derives N from a given seed prime q as a cube root of
unity mod q, is kept for degree 3.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from itertools import chain as chain_iterables
from itertools import compress, repeat
from math import isqrt
from typing import NamedTuple

from .numtheory import _sieve, _strong_test, cyclotomic_roots, is_probable_prime, smooth_part
from .ring import PRIME_DEGREES, cyclotomic_value

DEFAULT_K_MAX = 10_000
# primes up to SIEVE_BOUND strike window positions; array("H") holds them
SIEVE_BOUND = 1 << 15
SIEVE_WINDOW = 4096


class ChainStatus(Enum):
    ACCEPTED = "ACCEPTED"
    REJECT_CONGRUENCE = "REJECT_CONGRUENCE"
    REJECT_BOUND = "REJECT_BOUND"
    REJECT_NO_SEED = "REJECT_NO_SEED"


class ChainResult(NamedTuple):
    """Outcome of one construction attempt.

    When ACCEPTED: Phi_p(N) = k·q exactly, N ≡ 1 (mod p), and the structural
    bound (q+1)² > N^p holds.  Rejections carry whatever was computed before
    the failing check.
    """

    status: ChainStatus
    p: int
    N: int | None = None
    q: int | None = None
    k: int | None = None

    @property
    def accepted(self) -> bool:
        return self.status is ChainStatus.ACCEPTED


def structural_bound_ok(N: int, q: int, p: int) -> bool:
    """Exact integer form of the bound q > N^(p/2) - 1: (q+1)² > N^p."""
    if N < 2 or q < 2:
        raise ValueError("require N, q >= 2")
    return (q + 1) ** 2 > N**p


def forward_construct(q: int) -> ChainResult:
    """Build N from a seed prime q ≡ 1 (mod 3) as the smaller root of Phi_3 mod q.

    The paper takes N = (S-1)/2 for the odd root S of -3 mod q.  Since
    S² + 3 = 4(N² + N + 1), that N is a root of Phi_3 mod q; the two roots
    sum to q - 1, and S = 2N + 1 < q picks the smaller.  Acceptance
    additionally needs N ≡ 1 (mod 3) and the structural bound.
    """
    n = min(cyclotomic_roots(3, q))
    phi = cyclotomic_value(n, 3)
    k, rem = divmod(phi, q)
    if rem != 0:
        raise ArithmeticError("odd root construction must divide the cyclotomic value")
    if n % 3 != 1:
        return ChainResult(ChainStatus.REJECT_CONGRUENCE, p=3, N=n, q=q, k=k)
    if not structural_bound_ok(n, q, 3):
        return ChainResult(ChainStatus.REJECT_BOUND, p=3, N=n, q=q, k=k)
    return ChainResult(ChainStatus.ACCEPTED, p=3, N=n, q=q, k=k)


def _sample_candidate(rng: random.Random, bits: int, p: int) -> int | None:
    """Random odd N ≡ 1 (mod p) with exact bit length, or None on edge underflow."""
    r = rng.getrandbits(bits) | (1 << (bits - 1))
    n = r - ((r - 1) % (2 * p))  # odd and ≡ 1 (mod p) since p is odd
    if n.bit_length() != bits or n < 5:
        return None
    return n


@lru_cache(maxsize=None)
def _sieve_table(p: int) -> tuple[array, array, array, array, tuple[array, ...]]:
    """Per-degree sieve data, built on first use rather than at import.

    The odd primes ℓ <= SIEVE_BOUND other than p with (2p)⁻¹ mod ℓ; then the
    subset ℓ ≡ 1 (mod p) with their inverses and p-1 columns holding the
    residues where Phi_p vanishes mod ℓ.
    """
    # filled one value at a time: every fresh import of the package rebuilds
    # the table, and lists of boxed ints left behind fragment the allocator
    primes = array("H", (ell for ell in _sieve(SIEVE_BOUND) if ell not in (2, p)))
    inverses = array("H", (pow(2 * p, -1, ell) for ell in primes))
    is_split = [ell % p == 1 for ell in primes]
    split = array("H", compress(primes, is_split))
    split_inverses = array("H", compress(inverses, is_split))
    root_columns = tuple(array("H") for _ in range(p - 1))
    for ell in split:
        for column, r in zip(root_columns, sorted(cyclotomic_roots(p, ell))):
            column.append(r)
    return primes, inverses, split, split_inverses, root_columns


def sieve_window(start: int, count: int, p: int, k_max: int) -> bytearray:
    """Flags for N = start + 2p·i, 0 <= i < count: 0 where N cannot certify.

    Each triple (ℓ, (2p)⁻¹ mod ℓ, r) strikes the N ≡ r (mod ℓ).  The residue
    r is 0 for every prime ℓ <= SIEVE_BOUND other than 2 and p: ℓ is then
    a proper factor of N.  For ℓ ≡ 1 (mod p) with k_max < ℓ <= SIEVE_BOUND,
    r also runs over the roots of Phi_p mod ℓ, where ℓ divides Phi_p(N):
    such an ℓ is too large to sit in k <= k_max and too small to be q, since
    (ℓ+1)² <= N^p, so Phi_p(N) = k·q fails.  Both rules need N > SIEVE_BOUND,
    so a window that starts at or below it is returned unsieved.
    """
    step = 2 * p
    if start % step != 1:
        raise ValueError("window start must be ≡ 1 (mod 2p)")
    flags = bytearray(b"\x01") * count
    if start <= SIEVE_BOUND:
        return flags
    primes, inverses, split, split_inverses, root_columns = _sieve_table(p)
    first = bisect_right(split, k_max)
    triples = chain_iterables(
        zip(primes, inverses, repeat(0)),
        *(zip(split[first:], split_inverses[first:], column[first:]) for column in root_columns),
    )
    for ell, inv, r in triples:
        i = (r - start % ell) * inv % ell
        if i + ell < count:
            flags[i::ell] = bytes((count - 1 - i) // ell + 1)
        elif i < count:
            flags[i] = 0
    return flags


def cofactor_split(phi: int, p: int, k_max: int) -> tuple[int, int] | None:
    """The one split Phi = k·q with k <= k_max that can hold a prime q with q² > Phi.

    Such a q is the only prime factor of Phi above isqrt(Phi), so k must be
    the y-smooth part of Phi for y = min(k_max, isqrt(Phi)).  Taking
    y = k_max alone would swallow a q <= k_max of a small Phi.  The prime
    factors of Phi = Phi_p(N) are p or ≡ 1 (mod p), so only those primes
    are stripped (smooth_part).  None when that part exceeds k_max or leaves
    q = 1.  Every accepted chain has q² > Phi: the structural bound
    (q+1)² > N^p and q <= Phi give q² > N^p - 1 - 2·Phi, which is at least
    Phi = (N^p - 1)/(N - 1) for N >= 4.
    """
    k = smooth_part(phi, p, min(k_max, isqrt(phi)))
    if k > k_max or k == phi:
        return None
    return k, phi // k


def candidate_split(n: int, p: int, k_max: int) -> tuple[int, int] | None:
    """(k, q) with Phi_p(n) = k·q that passes every check of the chain, or None.

    Cheapest first: the cofactor (gcds only), a base-2 strong test on n,
    the structural bound, a BPSW test on q (is_probable_prime), then one on
    n.  BPSW(n) implies the strong test, so the order does not change the
    split; it runs the Lucas test on n only once q is known to be prime.
    """
    split = cofactor_split(cyclotomic_value(n, p), p, k_max)
    if split is None or not _strong_test(n, 2) or not structural_bound_ok(n, split[1], p):
        return None
    if not is_probable_prime(split[1]) or not is_probable_prime(n):
        return None
    return split


def reversed_construct(
    target_bits: int,
    p: int,
    k_max: int = DEFAULT_K_MAX,
    rng: random.Random | None = None,
) -> ChainResult:
    """Incremental search over one window of N ≡ 1 (mod 2p) of the target size.

    The window starts at one random N and covers up to SIEVE_WINDOW values
    N, N + 2p, ... of the same bit length.  It is sieved (see sieve_window),
    and the survivors are tried in order by candidate_split; the first that
    certifies is returned.  REJECT_NO_SEED means the start draw fell outside
    the range or no N in the window certified; the caller draws again.
    """
    if p not in PRIME_DEGREES:
        raise ValueError(f"degree must be one of {PRIME_DEGREES}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if target_bits < 3:
        raise ValueError("target bit length must be at least 3")
    if rng is None:
        rng = random.Random(0)
    start = _sample_candidate(rng, target_bits, p)
    if start is None:
        return ChainResult(ChainStatus.REJECT_NO_SEED, p=p)
    step = 2 * p
    count = min(SIEVE_WINDOW, ((1 << target_bits) - 1 - start) // step + 1)
    flags = sieve_window(start, count, p, k_max)
    for i in compress(range(count), flags):
        n = start + step * i
        split = candidate_split(n, p, k_max)
        if split is not None:
            return ChainResult(ChainStatus.ACCEPTED, p=p, N=n, q=split[1], k=split[0])
    return ChainResult(ChainStatus.REJECT_NO_SEED, p=p)
