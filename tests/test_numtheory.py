"""Scalar number theory: residues, roots of -3, primality, base admissibility."""

import random

import pytest

from cyclocert import is_probable_prime, monogenic_ok, pth_residue, sqrt_minus3
from cyclocert.numtheory import smooth_part
from cyclocert.reference import REFERENCE_CHAINS_DEGREE3
from helpers import sieve_primes


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
        p = 2**61 - 1
        assert is_probable_prime(p) is True
        assert is_probable_prime(p * p) is False


class TestSmoothPart:
    def test_matches_trial_division(self):
        for y in (1, 2, 3, 7, 30):
            primes = sieve_primes(y)
            for m in range(1, 3000):
                expected, rest = 1, m
                for ell in primes:
                    while rest % ell == 0:
                        rest //= ell
                        expected *= ell
                assert smooth_part(m, y) == expected, (m, y)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            smooth_part(0, 10)


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
