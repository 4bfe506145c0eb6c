"""Pseudoprime classification: factoring, Korselt conditions, direct sweeps."""

import random
from math import gcd

import pytest
from helpers import sieve_primes

from cyclocert import carmichael
from cyclocert import (
    carmichael_direct,
    factorize,
    is_probable_prime,
    korselt_check,
)


def trial_factorize(n):
    """Factorization by division with every d up to √n; the oracle for factorize."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


# primes above the trial-division table, so rho must split their products
RHO_PRIMES = [p for p in sieve_primes(10**6) if p > 2048]


class TestFactorize:
    def test_small_composite(self):
        assert factorize(91) == [(7, 1), (13, 1)]

    def test_prime_power(self):
        assert factorize(2**10 * 3**4) == [(2, 10), (3, 4)]

    def test_prime(self):
        assert factorize(1099511627791) == [(1099511627791, 1)]

    def test_semiprime_beyond_trial_division(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == [(p, 1), (q, 1)]

    def test_square_beyond_trial_division(self):
        p = 1048583
        assert factorize(p * p) == [(p, 2)]

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            factorize(1)

    def test_matches_trial_division_below_5e4(self):
        for n in range(2, 5 * 10**4):
            assert factorize(n) == trial_factorize(n), n

    @pytest.mark.parametrize("exponents", [(1, 1), (1, 1, 1), (2,), (3,)])
    def test_rho_splits_products_of_large_primes(self, exponents):
        rng = random.Random(0)
        for _ in range(100):
            primes = sorted(rng.sample(RHO_PRIMES, len(exponents)))
            n = 1
            for p, e in zip(primes, exponents):
                n *= p**e
            assert factorize(n) == list(zip(primes, exponents)), n


class TestKorseltCheck:
    def test_91_fails_divisibility(self):
        report = korselt_check(91, 2)
        assert report.factor_list == (7, 13)
        assert report.squarefree is True
        assert (91**3 - 1) % (7**3 - 1) == 144  # the failing remainder
        assert report.korselt_ok is False

    def test_4_not_squarefree(self):
        report = korselt_check(4, 3)
        assert report.squarefree is False
        assert report.korselt_ok is False

    def test_prime_rejected(self):
        with pytest.raises(ValueError):
            korselt_check(13, 2)

    def test_wrong_congruence_rejected(self):
        with pytest.raises(ValueError):
            korselt_check(35, 2)

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            korselt_check(25, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            korselt_check(10**12 + 7, 2)

    def test_irreducibility_split_factor(self):
        # 2 ≡ 2 (mod 3) means x^3 - d always has a root mod 2
        report = korselt_check(10, 3)
        assert report.irreducibility_ok is False

    def test_irreducibility_all_factors_inert(self):
        # 49 = 7^2 and 2 is a cubic non-residue mod 7
        report = korselt_check(49, 2)
        assert report.irreducibility_ok is True
        assert report.squarefree is False
        assert report.korselt_ok is False


def _count_contexts(monkeypatch):
    """The moduli carmichael_direct builds a ring context for, in call order."""
    moduli = []
    make_context = carmichael.make_context

    def counted(n, p, d):
        moduli.append(n)
        return make_context(n, p, d)

    monkeypatch.setattr(carmichael, "make_context", counted)
    return moduli


class TestCarmichaelDirect:
    @pytest.mark.parametrize("n,d", [(4, 3), (10, 3), (25, 2)])
    def test_small_composites_fail(self, n, d):
        assert carmichael_direct(n, d) is False

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            carmichael_direct(61 * 2, 5)

    def test_prime_rejected(self):
        with pytest.raises(ValueError):
            carmichael_direct(13, 2)

    @pytest.mark.parametrize("d", [2, 5])
    def test_ring_enumeration_decides_133(self, monkeypatch, d):
        # λ(133) = 18 divides 133³ - 1, so every unit scalar passes and only
        # the ring enumeration can answer; no composite up to 60 gets that far
        n = 133
        assert all(pow(c, n**3 - 1, n) == 1 for c in range(2, n) if gcd(c, n) == 1)
        monkeypatch.setattr(carmichael, "DIRECT_LIMIT", n)
        contexts = _count_contexts(monkeypatch)
        assert carmichael_direct(n, d) is False
        assert contexts == [n]
        report = korselt_check(n, d)
        assert report.korselt_ok is False and report.irreducibility_ok is True

    def test_scalar_sweep_decides_every_composite_to_60(self, monkeypatch):
        # even n fail at c = n - 1, since n³ - 1 is odd; so does every odd composite up to 60
        contexts = _count_contexts(monkeypatch)
        for n in range(4, carmichael.DIRECT_LIMIT + 1):
            if is_probable_prime(n):
                continue
            for d in (2, 3, 5):
                if gcd(n, 3 * d) == 1:
                    assert carmichael_direct(n, d) is False, (n, d)
        assert contexts == []

    def test_korselt_equivalence_under_irreducibility(self):
        # for every composite N ≡ 1 (mod 3) up to 60 where the hypothesis of
        # the equivalence holds, the two routes must agree exactly
        checked = 0
        for n in range(4, 61):
            if n % 3 != 1 or is_probable_prime(n):
                continue
            for d in (2, 3, 5):
                if gcd(n, 3 * d) != 1:
                    continue
                report = korselt_check(n, d)
                if not report.irreducibility_ok:
                    continue
                assert report.korselt_ok == carmichael_direct(n, d)
                checked += 1
        assert checked > 0  # 49 qualifies for every d in {2, 3, 5}
