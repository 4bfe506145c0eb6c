"""Scalar number theory: residues, roots of -3, primality, base admissibility."""

import random
from math import isqrt

import pytest

from cyclocert import cyclotomic_value, is_probable_prime, monogenic_ok, pth_residue, sqrt_minus3
from cyclocert.numtheory import _lucas_test, _strong_test, is_squarefree_small, smooth_part, twist
from cyclocert.reference import REFERENCE_CHAINS_DEGREE3
from helpers import sieve_primes, strong_rounds_prime


class TestSqrtMinus3:
    def test_q19(self):
        assert sqrt_minus3(19) == (4, 15)

    def test_q13(self):
        assert sqrt_minus3(13) == (6, 7)

    def test_nonresidue_congruence_class(self):
        with pytest.raises(ValueError):
            sqrt_minus3(5)

    def test_random_primes_roots_verified(self):
        # 1000 probable primes q ≡ 1 (mod 3) of mixed sizes up to 2^256
        rng = random.Random(99)
        found = 0
        while found < 1000:
            bits = rng.randrange(6, 257)
            q = (rng.getrandbits(bits) | (1 << (bits - 1))) | 1
            q -= (q - 1) % 6
            if q < 7 or not is_probable_prime(q, rounds=2):
                continue
            r1, r2 = sqrt_minus3(q)
            assert (r1 * r1 + 3) % q == 0
            assert (r2 * r2 + 3) % q == 0
            assert r1 + r2 == q
            assert (r1 % 2 == 1) != (r2 % 2 == 1)  # exactly one odd root
            found += 1


class TestPthResidue:
    def test_two_is_not_a_cube_mod_seven(self):
        assert pth_residue(2, 7, 3) is False

    def test_one_is_always_a_residue(self):
        for n, p in [(7, 3), (13, 3), (11, 5), (31, 5)]:
            assert pth_residue(1, n, p) is True

    def test_five_is_a_cube_mod_thirteen(self):
        assert pow(7, 3, 13) == 5
        assert pth_residue(5, 13, 3) is True

    def test_wrong_congruence_rejected(self):
        with pytest.raises(ValueError):
            pth_residue(2, 8, 3)

    def test_common_factor_rejected(self):
        with pytest.raises(ValueError):
            pth_residue(7, 49, 3)

    @pytest.mark.parametrize("p", [3, 5])
    def test_agrees_with_enumeration_small(self, p):
        for n in sieve_primes(200):
            if n % p != 1:
                continue
            cubes = {pow(x, p, n) for x in range(1, n)}
            for a in range(1, n):
                assert pth_residue(a, n, p) == (a in cubes)


class TestTwist:
    @pytest.mark.parametrize("p", [3, 5])
    def test_none_exactly_on_pth_powers(self, p):
        # the p-th powers by brute force, not through pth_residue
        for n in sieve_primes(200):
            if n % p != 1:
                continue
            powers = {pow(x, p, n) for x in range(1, n)}
            for a in range(1, n):
                zeta = twist(a, n, p)
                assert (zeta is None) == (a in powers)
                if zeta is not None:
                    assert zeta != 1 and pow(zeta, p, n) == 1

    def test_wrong_congruence_is_none(self):
        assert twist(2, 8, 3) is None
        assert twist(2, 11, 3) is None
        assert twist(2, 13, 5) is None

    def test_common_factor_is_none(self):
        assert twist(7, 49, 3) is None
        assert twist(3, 7, 3) == 2  # 3² ≡ 2 (mod 7)
        assert twist(5, 55, 3) is None

    def test_zero_base_is_none(self):
        for n, p in [(7, 3), (13, 3), (11, 5), (31, 5)]:
            assert twist(0, n, p) is None


class TestIsProbablePrime:
    @pytest.mark.parametrize("n,expected", [(19, True), (91, False), (2, True), (1, False), (0, False)])
    def test_small(self, n, expected):
        assert is_probable_prime(n) is expected

    def test_reference_seed_prime(self):
        assert is_probable_prime(REFERENCE_CHAINS_DEGREE3[0].q) is True

    def test_exact_below_trial_division_square(self):
        primes = sieve_primes(20000)
        assert [n for n in range(-2, 20001) if is_probable_prime(n)] == primes

    def test_composite_beyond_trial_division_caught(self):
        # both factors exceed the trial division limit
        p, q = 1099511627791, 1099511627803
        assert is_probable_prime(p) and is_probable_prime(q)
        assert is_probable_prime(p * q) is False

    def test_large_composite_semiprime(self):
        # the square is refused before the Lucas search, which could not end on it
        p = 2**61 - 1
        assert is_probable_prime(p) is True
        assert is_probable_prime(p * p) is False


class TestBailliePSW:
    @pytest.mark.parametrize("n", [3511**2, 2089 * 4177, 2053 * 8209])
    def test_base2_strong_pseudoprimes_caught(self, n):
        # beyond trial division; 3511² is caught by the square refusal
        assert n > 2048**2
        assert _strong_test(n, 2)
        assert is_probable_prime(n) is False

    def test_lucas_passes_odd_primes(self):
        assert all(_lucas_test(n) for n in sieve_primes(200_000)[1:])

    def test_lucas_pseudoprimes_below_1e5(self):
        # the extra-strong Lucas pseudoprimes (OEIS A217719); none is a base-2 strong one
        primes = set(sieve_primes(100_000))
        passing = [
            n
            for n in range(9, 100_000, 2)
            if n not in primes and isqrt(n) ** 2 != n and _lucas_test(n)
        ]
        assert passing == [
            989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919, 75077
        ]
        assert not any(_strong_test(n, 2) for n in passing)

    def test_agrees_with_twenty_strong_rounds(self):
        rng = random.Random(2024)

        def random_prime(bits):
            while True:
                n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                if strong_rounds_prime(n):
                    return n

        primes = [random_prime(rng.randrange(64, 769)) for _ in range(16)]
        products = [a * b for a, b in zip(primes, primes[1:])]
        odd = [rng.getrandbits(rng.randrange(64, 769)) | 1 for _ in range(300)]
        for n in primes + products + odd:
            assert is_probable_prime(n) is strong_rounds_prime(n), n
        assert all(is_probable_prime(n) for n in primes)
        assert not any(is_probable_prime(n) for n in products)


def part_over(m, primes):
    """The largest divisor of m whose prime factors lie in primes, by trial division."""
    part = 1
    for ell in primes:
        while m % ell == 0:
            m //= ell
            part *= ell
    return part


class TestSmoothPart:
    def test_matches_trial_division(self):
        # on any m only p and the primes ≡ 1 (mod p) are stripped; on Phi_p(n)
        # those are all of its prime factors, so the result is its y-smooth part
        for p in (3, 5, 7):
            for y in (1, 2, 3, 7, 30, 500):
                primes = sieve_primes(y)
                split = [ell for ell in primes if ell == p or ell % p == 1]
                for m in range(1, 3000):
                    assert smooth_part(m, p, y) == part_over(m, split), (m, p, y)
                for n in range(2, 300):
                    phi = cyclotomic_value(n, p)
                    assert smooth_part(phi, p, y) == part_over(phi, primes), (n, p, y)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            smooth_part(0, 3, 10)


def squarefree_flags(limit):
    """Squarefreeness of 0 .. limit by striking the multiples of every square."""
    flags = [True] * (limit + 1)
    for m in range(2, isqrt(limit) + 1):
        for j in range(m * m, limit + 1, m * m):
            flags[j] = False
    return flags


class TestIsSquarefreeSmall:
    def test_matches_square_sieve(self):
        flags = squarefree_flags(2 * 10**5)
        assert all(is_squarefree_small(d) == flags[d] for d in range(1, 2 * 10**5 + 1))

    @pytest.mark.parametrize(
        "d,expected",
        [
            (997**2, False),
            (991 * 997, True),
            (2039 * 487, True),  # a prime above the trial limit times a small one
            (2 * 499979, True),  # 499979 is prime
            (10**6, False),
            (999983, True),  # the largest prime below the cap
            (2 * 3 * 5 * 7 * 11 * 13 * 17, True),
            (2**2 * 249989, False),
        ],
    )
    def test_products_near_the_cap(self, d, expected):
        assert is_squarefree_small(d) is expected


class TestMonogenicOk:
    def test_base_two_cubic(self):
        assert monogenic_ok(2, 3) is True

    def test_ten_fails_residue_class(self):
        assert monogenic_ok(10, 3) is False

    def test_twelve_not_squarefree(self):
        assert monogenic_ok(12, 3) is False

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            monogenic_ok(1, 3)

    def test_above_cap_rejected(self):
        with pytest.raises(ValueError):
            monogenic_ok(10**6 + 1, 3)

    def test_general_predicate_reduces_to_cubic_rule(self):
        # d^2 ≡ 1 (mod 9) exactly when d ≡ ±1 (mod 9)
        for d in range(2, 500):
            assert (pow(d, 2, 9) == 1) == (d % 9 in (1, 8))

    def test_degree5_examples(self):
        assert monogenic_ok(2, 5) is True  # 2^4 = 16 mod 25
        assert monogenic_ok(7, 5) is False  # 7^4 = 2401 ≡ 1 mod 25
        assert monogenic_ok(18, 5) is False  # 18 = 2·3²
