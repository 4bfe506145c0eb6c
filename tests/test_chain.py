"""Construction chain: the forward construction, the sieved search, bounds, bases."""

import random
from itertools import compress
from math import gcd

import pytest

from cyclocert import (
    ChainStatus,
    cyclotomic_roots,
    cyclotomic_value,
    forward_construct,
    generate_certificate,
    is_probable_prime,
    reversed_construct,
    select_base_d,
    structural_bound_ok,
)
from cyclocert import certify, numtheory
from cyclocert.chain import (
    SIEVE_BOUND,
    SIEVE_WINDOW,
    candidate_split,
    cofactor_split,
    sieve_window,
)
from cyclocert.numtheory import _strong_test
from cyclocert.reference import REFERENCE_CHAINS_DEGREE3, REFERENCE_CHAINS_DEGREE5
from helpers import ScriptedBits, sieve_primes


class TestStructuralBound:
    def test_n7_q19_holds(self):
        assert structural_bound_ok(7, 19, 3) is True

    def test_n7_q17_fails(self):
        assert structural_bound_ok(7, 17, 3) is False

    def test_dominant_seed(self):
        for n, p in [(11, 3), (101, 5)]:
            assert structural_bound_ok(n, n**p, p) is True

    def test_tiny_inputs_rejected(self):
        with pytest.raises(ValueError):
            structural_bound_ok(1, 19, 3)


class TestForwardConstruct:
    def test_seed_19_accepts_n7(self):
        result = forward_construct(19)
        assert result.status is ChainStatus.ACCEPTED
        assert (result.N, result.q, result.k) == (7, 19, 3)

    def test_seed_13_rejects_congruence(self):
        result = forward_construct(13)
        assert result.status is ChainStatus.REJECT_CONGRUENCE
        assert result.N == 3

    def test_seed_7_rejects_congruence(self):
        result = forward_construct(7)
        assert result.status is ChainStatus.REJECT_CONGRUENCE
        assert result.N == 2

    def test_seed_congruence_propagates(self):
        with pytest.raises(ValueError):
            forward_construct(5)

    def test_tiny_seed_rejected(self):
        for q in (1, 3):
            with pytest.raises(ValueError):
                forward_construct(q)

    def test_divisibility_for_every_small_seed(self):
        # the constructed N always satisfies q | N^2 + N + 1, accepted or not,
        # and 2N + 1 is the paper's odd root of -3 below q
        for q in sieve_primes(10**4):
            if q < 7 or q % 3 != 1:
                continue
            result = forward_construct(q)
            phi = cyclotomic_value(result.N, 3)
            assert phi % q == 0
            assert result.k == phi // q
            s = 2 * result.N + 1
            assert s < q
            assert (s * s + 3) % q == 0


class TestReversedConstruct:
    def test_fixture_n7(self):
        rng = ScriptedBits([7])
        result = reversed_construct(3, 3, k_max=10, rng=rng)
        assert result.status is ChainStatus.ACCEPTED
        assert (result.N, result.q, result.k) == (7, 19, 3)

    def test_fixture_degree5_reference(self):
        row = REFERENCE_CHAINS_DEGREE5[0]
        rng = ScriptedBits([row.N])
        result = reversed_construct(row.N.bit_length(), 5, rng=rng)
        assert result.status is ChainStatus.ACCEPTED
        assert (result.N, result.q, result.k) == (row.N, row.q, 5)

    def test_fixture_degree3_reference(self):
        row = REFERENCE_CHAINS_DEGREE3[0]
        rng = ScriptedBits([row.N])
        result = reversed_construct(64, 3, rng=rng)
        assert result.status is ChainStatus.ACCEPTED
        assert (result.N, result.q, result.k) == (row.N, row.q, 21)

    @pytest.mark.parametrize("k_max", [1, 10, 10000])
    @pytest.mark.parametrize("p,limit", [(3, 3000), (5, 400)])
    def test_one_window_per_call(self, p, limit, k_max):
        # each start scans only its own window: the first N up to 2^bits that
        # the oracle accepts, else REJECT_NO_SEED; ScriptedBits holds a single
        # start, so drawing a second one raises StopIteration
        step = 2 * p
        accepted = {}
        for n in range(step + 1, 1 << limit.bit_length(), step):
            split = scan_cofactors(n, p, k_max)
            if split is not None:
                accepted[n] = split
        empty = 0
        for start in range(step + 1, limit, step):
            bits = start.bit_length()
            window = range(start, 1 << bits, step)
            expected = next((n for n in window if n in accepted), None)
            result = reversed_construct(bits, p, k_max=k_max, rng=ScriptedBits([start]))
            if expected is None:
                empty += 1
                assert result.status is ChainStatus.REJECT_NO_SEED, start
            else:
                k, q = accepted[expected]
                assert result.status is ChainStatus.ACCEPTED, start
                assert (result.N, result.q, result.k) == (expected, q, k), start
        assert empty > 0

    def test_accepted_results_satisfy_invariants(self):
        rng = random.Random(11)
        for _ in range(20):
            result = reversed_construct(32, 3, rng=rng)
            assert result.accepted
            phi = cyclotomic_value(result.N, 3)
            assert result.k * result.q == phi
            assert result.N % 3 == 1
            assert structural_bound_ok(result.N, result.q, 3)
            assert is_probable_prime(result.q)

    def test_degree5_random(self):
        rng = random.Random(17)
        result = reversed_construct(24, 5, rng=rng)
        assert result.accepted
        assert cyclotomic_value(result.N, 5) == result.k * result.q
        assert result.N % 5 == 1

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            reversed_construct(32, 3, k_max=0)
        with pytest.raises(ValueError):
            reversed_construct(2, 3)

    def test_unsupported_degree_refused(self):
        with pytest.raises(ValueError, match="degree must be one of"):
            reversed_construct(24, 4)


def scan_cofactors(n, p, k_max):
    """The original per-candidate search, kept as the oracle: test N, then
    try k = 1..k_max in order while q = Phi/k still meets the bound."""
    if not is_probable_prime(n, rounds=2):
        return None
    phi = cyclotomic_value(n, p)
    for k in range(1, k_max + 1):
        if phi % k != 0:
            continue
        q = phi // k
        if not structural_bound_ok(n, q, p):
            break  # q only shrinks as k grows
        if is_probable_prime(q):
            return k, q
    return None


def struck_directly(n, p, k_max, primes):
    """Whether the window sieve's rule strikes n, evaluated for n alone."""
    phi = cyclotomic_value(n, p)
    for ell in primes:
        if ell in (2, p):
            continue
        if n % ell == 0 and ell < n:
            return True
        if ell % p == 1 and ell > k_max and (ell + 1) ** 2 <= n**p and phi % ell == 0:
            return True
    return False


K_MAXES = [1, 3, 10, 100, 500, 10000]


class TestSievedSearchMatchesScan:
    @pytest.mark.parametrize("k_max", K_MAXES)
    @pytest.mark.parametrize("p,limit", [(3, 3000), (5, 400)])
    def test_every_small_candidate(self, p, limit, k_max):
        # all of these N lie below SIEVE_BOUND, so the window comes back unsieved
        start = 2 * p + 1
        count = (limit - 1 - start) // (2 * p) + 1
        assert sieve_window(start, count, p, k_max) == bytearray(b"\x01") * count
        for i in range(count):
            n = start + 2 * p * i
            assert candidate_split(n, p, k_max) == scan_cofactors(n, p, k_max), n

    @pytest.mark.parametrize("k_max", [100, 500, 10000])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_window_above_sieve_bound(self, p, k_max):
        # just above the bound, and at the benchmark's 192 bits, where start % ℓ
        # carries the work; 48 positions keep the oracle under a second there
        primes = sieve_primes(SIEVE_BOUND)
        low_192 = random.Random(192).getrandbits(191) | 1 << 191
        for low, count in [(SIEVE_BOUND, 240), (low_192, 48)]:
            start = low + 1 + (-low) % (2 * p)
            flags = sieve_window(start, count, p, k_max)
            for i in range(count):
                n = start + 2 * p * i
                assert (not flags[i]) == struck_directly(n, p, k_max, primes), n
                if not flags[i]:
                    assert scan_cofactors(n, p, k_max) is None, n

    @pytest.mark.parametrize("p", [3, 5])
    def test_window_beyond_trial_division(self, p):
        # 40-bit N exceed 2048², so is_probable_prime runs its strong and Lucas
        # tests on N and q; k_max = 100 keeps the oracle's k loop short
        start = (1 << 39) + 1 + (-(1 << 39)) % (2 * p)
        flags = sieve_window(start, SIEVE_WINDOW, p, 100)
        accepted = 0
        for i in compress(range(SIEVE_WINDOW), flags):
            n = start + 2 * p * i
            split = candidate_split(n, p, 100)
            assert split == scan_cofactors(n, p, 100), n
            accepted += split is not None
        assert accepted > 0

    def test_windows_agree_at_any_start(self):
        for p, limit in [(3, 3000), (5, 400)]:
            for k_max in (10, 10000):
                start = SIEVE_BOUND + 1 + (-SIEVE_BOUND) % (2 * p)
                whole = sieve_window(start, (limit - 2 * p - 2) // (2 * p) + 1, p, k_max)
                rng = random.Random(p * k_max)
                for _ in range(20):
                    i = rng.randrange(len(whole))
                    count = rng.randrange(1, len(whole) - i + 1)
                    part = sieve_window(start + 2 * p * i, count, p, k_max)
                    assert part == whole[i : i + count]

    def test_smooth_part_bound_is_not_k_max_alone(self):
        # q = 19 <= k_max must stay out of k: y is capped at isqrt(Phi)
        assert cofactor_split(57, 3, 100) == (3, 19)
        assert candidate_split(7, 3, 100) == (3, 19)
        assert candidate_split(11, 5, 10000) == scan_cofactors(11, 5, 10000)

    def test_fully_smooth_value_has_no_split(self):
        assert cofactor_split(3 * 7 * 13, 3, 10000) is None

    def test_window_start_must_be_admissible(self):
        with pytest.raises(ValueError):
            sieve_window(9, 10, 3, 100)


class TestCheapestFirst:
    @pytest.mark.parametrize("n,k", [(9_863_461, 93), (15_976_747, 3), (23_828_017, 3)])
    def test_base2_strong_pseudoprime_refused(self, n, k):
        # every check but the Lucas test on n passes, so that test must still run
        assert n > 2048**2 and n % 6 == 1 and _strong_test(n, 2)
        split = cofactor_split(cyclotomic_value(n, 3), 3, 10_000)
        assert split is not None and split[0] == k
        assert is_probable_prime(split[1]) and structural_bound_ok(n, split[1], 3)
        assert not is_probable_prime(n)
        assert candidate_split(n, 3, 10_000) is None

    def test_lucas_tests_only_on_accepted_splits(self, monkeypatch):
        # one Lucas test on q and one on N per accepted chain, and none on an
        # N whose q fails its base-2 strong test
        lucas_calls, accepted = [], []
        lucas, construct = numtheory._lucas_test, certify.reversed_construct

        def counting_lucas(n):
            lucas_calls.append(n)
            return lucas(n)

        def recording_construct(*args, **kwargs):
            result = construct(*args, **kwargs)
            if result.accepted:
                accepted.append(result)
            return result

        monkeypatch.setattr(numtheory, "_lucas_test", counting_lucas)
        monkeypatch.setattr(certify, "reversed_construct", recording_construct)
        for seed in range(10):
            generate_certificate(192, p=3, rng=random.Random(seed))
        assert len(accepted) >= 10
        assert len(lucas_calls) <= 2 * len(accepted)


class TestSecurityGcds:
    def test_accepted_constructions_resist_pm1_methods(self):
        rng = random.Random(23)
        for _ in range(50):
            result = reversed_construct(28, 3, rng=rng, k_max=500)
            assert result.accepted
            n, phi = result.N, cyclotomic_value(result.N, 3)
            assert gcd(n - 1, phi) in (1, 3)
            assert gcd(n + 1, phi) == 1


class TestSelectBaseD:
    def test_n7_picks_two(self):
        assert select_base_d(7, 3) == 2

    def test_n31_skips_cubic_residue(self):
        assert pow(2, 10, 31) == 1  # 2 is a cube mod 31, so d = 2 is unusable
        assert select_base_d(31, 3) == 3

    def test_empty_range_errors(self, monkeypatch):
        monkeypatch.setattr(certify, "BASE_D_MAX", 1)
        with pytest.raises(ValueError):
            select_base_d(7, 3)

    def test_wrong_congruence_errors(self):
        with pytest.raises(ValueError):
            select_base_d(8, 3)

    def test_selected_base_is_admissible(self):
        rng = random.Random(3)
        for _ in range(10):
            result = reversed_construct(24, 3, rng=rng)
            d = select_base_d(result.N, 3)
            assert gcd(result.N, 3 * d) == 1
            assert pow(d, (result.N - 1) // 3, result.N) != 1


class TestCyclotomicRoots:
    def test_p3_q7(self):
        assert cyclotomic_roots(3, 7) == {2, 4}

    def test_p5_q11(self):
        assert cyclotomic_roots(5, 11) == {3, 4, 5, 9}

    def test_wrong_congruence(self):
        with pytest.raises(ValueError):
            cyclotomic_roots(3, 5)

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_roots(3, 3)

    def test_matches_exhaustive_scan_spot(self):
        for p, q in [(3, 13), (3, 31), (5, 31), (7, 29)]:
            expected = {n for n in range(1, q) if cyclotomic_value(n, p) % q == 0}
            assert cyclotomic_roots(p, q) == expected
