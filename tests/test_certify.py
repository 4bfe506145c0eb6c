"""Certificate issuance and verification: projection, phases, verdicts, filter."""

import random
from dataclasses import replace
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from cyclocert import (
    Certificate,
    Outcome,
    Phase1Status,
    Reason,
    RingElement,
    SeedTrust,
    Verdict,
    cert_decode,
    cyclotomic_value,
    element,
    factorize,
    generate_certificate,
    is_probable_prime,
    make_context,
    one,
    pth_residue,
    phase1_generate,
    phase2_cyclotomic,
    ring_pow,
    structural_bound_ok,
    scalar,
    sprp_filter,
    theta,
    unitary_project,
    verify,
)
from cyclocert import certify
from cyclocert.ring import PRIME_DEGREES
from cyclocert.reference import REFERENCE_CHAINS_DEGREE3, REFERENCE_CHAINS_DEGREE5
from helpers import ScriptedDraws, sieve_primes, slow_pow, sprp_filter_loop


def cert_for(n, q, k, w, p=3, d=2):
    return Certificate("1", p, d, n, q, k, w, SeedTrust.PROBABLE)


def certified_w(n, q, k, p=3, d=2, seed=0):
    """A unitary element that certifies the (prime) candidate n."""
    ctx = make_context(n, p, d)
    rng = random.Random(seed)
    for _ in range(16):
        result = phase1_generate(ctx, rng)
        assert result.status is Phase1Status.ELEMENT
        verdict = phase2_cyclotomic(ctx, result.w, k, q)
        if verdict.outcome is Outcome.PRIME:
            return result.w
    raise AssertionError("no certifying unitary element found")


class TestUnitaryProject:
    def test_theta_projects_to_four(self):
        ctx = make_context(7, 3, 2)
        assert unitary_project(ctx, theta(ctx)).coeffs == (4, 0, 0)

    def test_one_projects_to_one(self):
        ctx = make_context(7, 3, 2)
        assert unitary_project(ctx, one(ctx)) == one(ctx)

    def test_matches_repeated_multiplication_oracle(self):
        ctx = make_context(7, 3, 2)
        z = element(ctx, (1, 1))
        assert unitary_project(ctx, z) == slow_pow(ctx, z, 6)

    def test_zero_rejected(self):
        ctx = make_context(7, 3, 2)
        with pytest.raises(ValueError):
            unitary_project(ctx, element(ctx, (0,)))


class TestPhase1:
    def test_first_unit_draw_wins(self):
        ctx = make_context(7, 3, 2)
        result = phase1_generate(ctx, ScriptedDraws([1, 1, 0]))
        assert result.status is Phase1Status.ELEMENT
        assert result.w.coeffs == (3, 1, 6)

    def test_zero_divisor_draw_reports_composite(self):
        ctx = make_context(15, 3, 2)
        result = phase1_generate(ctx, ScriptedDraws([5, 0, 0]))
        assert result.status is Phase1Status.COMPOSITE
        assert result.witness == 5
        assert 15 % result.witness == 0

    def test_projection_to_one_is_redrawn_until_exhaustion(self):
        ctx = make_context(7, 3, 2)
        result = phase1_generate(ctx, ScriptedDraws([1, 0, 0]))
        assert result.status is Phase1Status.EXHAUSTED
        assert result.w is None

    def test_zero_draws_are_skipped(self):
        ctx = make_context(7, 3, 2)
        result = phase1_generate(ctx, ScriptedDraws([0, 0, 0, 1, 1, 0]))
        assert result.status is Phase1Status.ELEMENT
        assert result.w.coeffs == (3, 1, 6)


class TestPhase2:
    def test_retry_when_projection_has_small_order(self):
        ctx = make_context(7, 3, 2)
        verdict = phase2_cyclotomic(ctx, scalar(ctx, 4), 3, 19)
        assert verdict.outcome is Outcome.RETRY
        assert verdict.reason is Reason.CYCLOTOMIC

    def test_prime_for_good_unitary(self):
        w = certified_w(7, 19, 3)
        ctx = make_context(7, 3, 2)
        assert phase2_cyclotomic(ctx, w, 3, 19).outcome is Outcome.PRIME

    def test_composite_fermat_failure(self):
        # ord(6) = 5 mod 25, so 6^21 = 6 and 6^31 = 6 never reach 1
        ctx = make_context(25, 3, 2)
        verdict = phase2_cyclotomic(ctx, scalar(ctx, 6), 21, 31)
        assert verdict.outcome is Outcome.COMPOSITE
        assert verdict.reason is Reason.FERMAT

    def test_composite_zero_divisor_witness(self):
        # 581 = 7 * 83; w restricts to an order-19 unit mod 7 and to 1 mod 83,
        # so X = w^k is nontrivial with X^19 = 1 and norm(X - 1) exposes 83
        n = 581
        phi = cyclotomic_value(n, 3)
        assert phi == 19 * 17797
        ctx = make_context(n, 3, 2)
        w = RingElement((416, 249, 415))
        assert ring_pow(ctx, w, phi) == one(ctx)
        verdict = phase2_cyclotomic(ctx, w, 17797, 19)
        assert verdict.outcome is Outcome.COMPOSITE
        assert verdict.reason is Reason.ZERO_DIVISOR
        assert verdict.witness == 83
        assert n % verdict.witness == 0


class TestVerify:
    def test_reference_row_64(self):
        row = REFERENCE_CHAINS_DEGREE3[0]
        w = certified_w(row.N, row.q, row.k)
        assert verify(cert_for(row.N, row.q, row.k, w)).outcome is Outcome.PRIME

    def test_reject_bound(self):
        # q = 17 fails the bound; checked before the congruence of q
        w = RingElement((1, 0, 0))
        verdict = verify(cert_for(7, 17, 3, w))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.BOUND

    def test_n13_q61_prime(self):
        assert cyclotomic_value(13, 3) == 183 == 3 * 61
        w = certified_w(13, 61, 3)
        assert verify(cert_for(13, 61, 3, w)).outcome is Outcome.PRIME

    def test_reject_congruence_of_seed(self):
        # q = 57 passes the bound but 57 ≡ 0 (mod 3)
        verdict = verify(cert_for(7, 57, 1, RingElement((1, 0, 0))))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.CONGRUENCE

    def test_reject_congruence_of_candidate(self):
        # N = 11 ≡ 2 (mod 3); pick q = Phi_3(11) = 7*19, k = 1: bound holds
        verdict = verify(cert_for(11, 133, 1, RingElement((1, 0, 0))))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.CONGRUENCE

    def test_reject_residue_when_base_is_cube(self):
        # 2 is a cube mod 31
        verdict = verify(cert_for(31, 331, 3, RingElement((1, 0, 0))))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.RESIDUE

    def test_reject_residue_on_shared_factor(self):
        # gcd(N, 3d) > 1: N = 25, d = 5
        verdict = verify(cert_for(25, 217, 3, RingElement((1, 0, 0)), d=5))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.RESIDUE

    def test_reject_format_on_cofactor_mismatch(self):
        verdict = verify(cert_for(13, 61, 2, RingElement((1, 0, 0))))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.FORMAT

    def test_reject_fermat_for_nonunitary_w(self):
        # 2^183 ≡ 8 (mod 13): scalar 2 is not in the norm-one subgroup
        verdict = verify(cert_for(13, 61, 3, RingElement((2, 0, 0))))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.FERMAT

    def test_reject_format_for_even_candidate(self):
        # N = 22 passes the scalar checks but cannot host a ring context
        assert cyclotomic_value(22, 3) == 507 == 3 * 169
        verdict = verify(cert_for(22, 169, 3, RingElement((1, 0, 0)), d=3))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.FORMAT

    def test_reject_format_for_out_of_range_w(self):
        w = RingElement((7, 0, 0))
        verdict = verify(cert_for(7, 19, 3, w))
        assert verdict.outcome is Outcome.REJECT
        assert verdict.reason is Reason.FORMAT

    @pytest.mark.parametrize("p", [0, 2, 4, 17])
    def test_reject_format_for_unsupported_degree(self, p):
        # p = 0 used to reach (N-1)/p and raise ZeroDivisionError
        verdict = verify(cert_for(7, 19, 3, RingElement((1, 0, 0)), p=p))
        assert verdict == Verdict(Outcome.REJECT, Reason.FORMAT)

    def test_retry_propagates(self):
        verdict = verify(cert_for(7, 19, 3, RingElement((4, 0, 0))))
        assert verdict.outcome is Outcome.RETRY

    def test_verify_is_pure(self):
        row = REFERENCE_CHAINS_DEGREE3[0]
        cert = cert_for(row.N, row.q, row.k, certified_w(row.N, row.q, row.k))
        assert verify(cert) == verify(cert)


def verify_with_filter(cert):
    """verify as it was with the w^Phi_p(N) filter ahead of phase 2: the oracle."""
    n, p, q, k, d = cert.N, cert.p, cert.q, cert.k, cert.d
    if p not in PRIME_DEGREES or n < 2 or q < 2:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    if not structural_bound_ok(n, q, p):
        return Verdict(Outcome.REJECT, Reason.BOUND)
    if q % p != 1 or n % p != 1:
        return Verdict(Outcome.REJECT, Reason.CONGRUENCE)
    if gcd(n, p * d) != 1 or pth_residue(d, n, p):
        return Verdict(Outcome.REJECT, Reason.RESIDUE)
    phi = cyclotomic_value(n, p)
    if k < 1 or k * q != phi:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    try:
        ctx = make_context(n, p, d)
    except ValueError:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    w = cert.w
    if len(w.coeffs) != p or any(not 0 <= c < n for c in w.coeffs):
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    if ring_pow(ctx, w, phi) != one(ctx):
        return Verdict(Outcome.REJECT, Reason.FERMAT)
    return phase2_cyclotomic(ctx, w, k, q)


def _as_tuple(verdict):
    return verdict.outcome, verdict.reason, verdict.witness


def _reference_variants(row, seed):
    """A certifying w for a reference chain, w with one coefficient changed, and a raw unit."""
    w = certified_w(row.N, row.q, row.k, p=row.p, seed=seed)
    tampered = list(w.coeffs)
    tampered[seed % row.p] = (tampered[seed % row.p] + 1) % row.N
    raw = tuple(random.Random(seed).randrange(row.N) for _ in range(row.p))
    for coeffs in (w.coeffs, tuple(tampered), raw):
        yield cert_for(row.N, row.q, row.k, RingElement(coeffs), p=row.p)


# generated certificates per degree: (p, bits), each at seeds 0 .. GENERATED_SEEDS - 1
GENERATED_SIZES = [(3, 64), (5, 64), (7, 24), (11, 16), (13, 12)]
GENERATED_SEEDS = 3

FORGED = cert_decode((Path(__file__).parent / "data" / "forged_8299.cert").read_text())


@lru_cache(maxsize=None)
def _generated(p, bits, seed):
    return generate_certificate(bits, p=p, rng=random.Random(seed))


def _generated_variants(p, bits, seed):
    """A generated certificate, its w with one coefficient changed, and a raw w."""
    cert = _generated(p, bits, seed)
    tampered = list(cert.w.coeffs)
    tampered[seed % p] = (tampered[seed % p] + 1) % cert.N
    raw = tuple(random.Random(seed).randrange(cert.N) for _ in range(p))
    for coeffs in (cert.w.coeffs, tuple(tampered), raw):
        yield replace(cert, w=RingElement(coeffs))


class TestSingleChainVerdicts:
    """verify decides exactly as the w^Phi filter did on prime N."""

    def assert_same(self, cert):
        assert _as_tuple(verify(cert)) == _as_tuple(verify_with_filter(cert))

    @pytest.mark.parametrize("rows", [REFERENCE_CHAINS_DEGREE3, REFERENCE_CHAINS_DEGREE5])
    def test_reference_chains(self, rows):
        outcomes = set()
        for seed, row in enumerate(rows):
            for cert in _reference_variants(row, seed):
                self.assert_same(cert)
                outcomes.add(_as_tuple(verify(cert)))
        assert (Outcome.PRIME, None, None) in outcomes
        assert (Outcome.REJECT, Reason.FERMAT, None) in outcomes

    def test_soundness_corpus(self, monkeypatch):
        # every certificate generate_certificate verifies for the criterion-4 seeds
        pairs = []
        single_chain = certify.verify

        def both(cert):
            verdict = single_chain(cert)
            pairs.append((_as_tuple(verdict), _as_tuple(verify_with_filter(cert))))
            return verdict

        monkeypatch.setattr(certify, "verify", both)
        for seed in range(100):
            generate_certificate(64, p=3, rng=random.Random(seed))
        assert len(pairs) >= 100
        assert all(new == old for new, old in pairs)

    @pytest.mark.parametrize("p,bits", GENERATED_SIZES)
    def test_generated_every_degree(self, p, bits):
        outcomes = set()
        for seed in range(GENERATED_SEEDS):
            for cert in _generated_variants(p, bits, seed):
                self.assert_same(cert)
                outcomes.add(_as_tuple(verify(cert)))
        assert (Outcome.PRIME, None, None) in outcomes
        assert (Outcome.REJECT, Reason.FERMAT, None) in outcomes

    def test_small_and_hostile_elements(self):
        # the forged certificate (composite N and q) fails the Frobenius check
        assert verify(FORGED) == Verdict(Outcome.REJECT, Reason.FERMAT)
        cases = [
            cert_for(13, 61, 3, RingElement((2, 0, 0))),  # not unitary
            cert_for(13, 61, 3, certified_w(13, 61, 3)),
            cert_for(7, 19, 3, RingElement((4, 0, 0))),  # RETRY
            # the N = 581 zero divisor, either way round; N ≡ 2 (mod 3) stops it early
            cert_for(581, 17797, 19, RingElement((416, 249, 415))),
            cert_for(581, 19, 17797, RingElement((416, 249, 415))),
            # the forged w mod 43 and 1 mod 193, and the other way round: zero divisors
            cert_for(8299, 22960567, 3, RingElement((2703, 5983, 7527))),
            cert_for(8299, 22960567, 3, RingElement((732, 7181, 6407))),
        ]
        for cert in cases:
            self.assert_same(cert)
        witnesses = {verify(cert).witness for cert in cases[-2:]}
        assert witnesses == {43, 193}

    def test_twist_refused_when_zeta_has_wrong_order(self):
        # 2^((25-1)/3) = 6 mod 25 and 6^3 = 16: θ -> 6θ is no ring map
        assert pow(2, 8, 25) == 6 and pow(6, 3, 25) != 1
        cert = cert_for(25, 217, 3, RingElement((1, 0, 0)))
        assert verify_with_filter(cert) == Verdict(Outcome.RETRY, Reason.CYCLOTOMIC)
        assert verify(cert) == Verdict(Outcome.REJECT, Reason.FERMAT)

    def test_one_exponentiation_of_n_length(self, monkeypatch):
        exponents, symbols = [], []
        ring_pow_plain, symbol_plain = certify.ring_pow, certify.pth_power_symbol

        def recording_pow(ctx, a, e):
            exponents.append((e, ctx.N))
            return ring_pow_plain(ctx, a, e)

        def recording_symbol(*args):
            symbols.append(args)
            return symbol_plain(*args)

        monkeypatch.setattr(certify, "ring_pow", recording_pow)
        monkeypatch.setattr(certify, "pth_power_symbol", recording_symbol)
        certs = [FORGED]
        for p, bits in GENERATED_SIZES:
            certs.extend(_generated_variants(p, bits, 0))
        full_length = 0
        for cert in certs:
            exponents.clear()
            symbols.clear()
            verify(cert)
            assert exponents and all(e <= n for e, n in exponents)
            assert len(symbols) == 1
            full_length += any(e == n for e, n in exponents)
        # at least every genuine certificate reaches w^N = σ(w)
        assert full_length >= len(GENERATED_SIZES)


def _composite_sweep_certs(p, limit):
    """Certificates on every odd N ≡ 1 (mod p) below limit, bases 2, 3, 5.

    Each N takes up to 3 splits Phi_p(N) = k·q that pass the bound with
    q ≡ 1 (mod p), and per split 3 random w, w = 1, and up to 4 scalars s
    with s^Phi ≡ 1 (mod N).
    """
    rng = random.Random(p * limit)
    for n in range(2 * p + 1, limit, 2 * p):
        phi = cyclotomic_value(n, p)
        divisors = [1]
        for prime, exp in factorize(phi):
            divisors = [a * prime**e for a in divisors for e in range(exp + 1)]
        splits = [
            (phi // q, q)
            for q in sorted(divisors)
            if q > 1 and q % p == 1 and structural_bound_ok(n, q, p)
        ][:3]
        scalars = [s for s in range(2, n) if pow(s, phi, n) == 1][:4]
        for d in (2, 3, 5):
            for k, q in splits:
                ws = [tuple(rng.randrange(n) for _ in range(p)) for _ in range(3)]
                ws += [(s,) + (0,) * (p - 1) for s in [1] + scalars]
                for w in ws:
                    yield cert_for(n, q, k, RingElement(w), p=p, d=d)


class TestCompositeSweep:
    """Where verify and the w^Phi oracle may differ: composite N only, two ways."""

    @pytest.mark.parametrize("p,limit", [(3, 1500), (5, 200)])
    def test_only_documented_differences(self, p, limit):
        kinds = {"same": 0, "retry_to_fermat": 0, "fermat_to_factor": 0}
        for cert in _composite_sweep_certs(p, limit):
            new, old = verify(cert), verify_with_filter(cert)
            if new == old:
                kinds["same"] += 1
                continue
            assert not is_probable_prime(cert.N), cert
            assert new.outcome is not Outcome.PRIME, cert
            if old.outcome is Outcome.RETRY and new == Verdict(Outcome.REJECT, Reason.FERMAT):
                kinds["retry_to_fermat"] += 1
            else:
                assert old == Verdict(Outcome.REJECT, Reason.FERMAT), cert
                assert new.outcome is Outcome.COMPOSITE and new.reason is Reason.ZERO_DIVISOR
                assert 1 < new.witness < cert.N and cert.N % new.witness == 0, cert
                kinds["fermat_to_factor"] += 1
        assert all(kinds.values()), kinds


class TestFermatAnalog:
    @pytest.mark.parametrize("n,d", [(7, 2), (13, 2), (31, 3)])
    def test_unit_orders_divide_group_order(self, n, d):
        ctx = make_context(n, 3, d)
        phi = cyclotomic_value(n, 3)
        rng = random.Random(n)
        if n == 7:
            candidates = [
                RingElement((a, b, c))
                for a in range(7)
                for b in range(7)
                for c in range(7)
                if (a, b, c) != (0, 0, 0)
            ]
        else:
            candidates = [
                RingElement(tuple(rng.randrange(n) for _ in range(3))) for _ in range(64)
            ]
        for z in candidates:
            if all(c == 0 for c in z.coeffs):
                continue
            assert ring_pow(ctx, z, n**3 - 1) == one(ctx)
            w = unitary_project(ctx, z)
            assert ring_pow(ctx, w, phi) == one(ctx)


class TestSprpFilter:
    def test_prime_7_passes_via_projection_identity(self):
        ctx = make_context(7, 3, 2)
        assert sprp_filter(7, 2, theta(ctx), 3, 19, 1) is True

    def test_composite_25_fails(self):
        ctx = make_context(25, 3, 2)
        assert sprp_filter(25, 2, theta(ctx), 21, 31, 1) is False

    def test_prime_13_passes(self):
        ctx = make_context(13, 3, 2)
        assert sprp_filter(13, 2, theta(ctx), 3, 61, 1) is True

    def test_higher_prime_power_instance(self):
        # Phi_3(67) = 93 * 7^2: condition (i) for theta, branch (ii) for theta^2+theta
        assert cyclotomic_value(67, 3) == 93 * 49
        ctx = make_context(67, 3, 2)
        assert sprp_filter(67, 2, theta(ctx), 93, 7, 2) is True
        assert sprp_filter(67, 2, element(ctx, (0, 1, 1)), 93, 7, 2) is True

    def test_composite_prime_power_instance_fails(self):
        # Phi_3(361) = 381 * 7^3 with 361 = 19^2
        assert cyclotomic_value(361, 3) == 381 * 343
        ctx = make_context(361, 3, 2)
        for coeffs in [(0, 1, 0), (1, 1, 0), (1, 0, 1)]:
            assert sprp_filter(361, 2, element(ctx, coeffs), 381, 7, 3) is False

    def test_malformed_factorization_rejected(self):
        ctx = make_context(7, 3, 2)
        with pytest.raises(ValueError):
            sprp_filter(7, 2, theta(ctx), 3, 19, 2)
        with pytest.raises(ValueError):
            sprp_filter(7, 2, theta(ctx), 5, 19, 1)

    def test_zero_base_rejected(self):
        ctx = make_context(7, 3, 2)
        with pytest.raises(ValueError):
            sprp_filter(7, 2, element(ctx, (0,)), 3, 19, 1)

    def test_primes_always_pass(self):
        # every prime N ≡ 1 (mod 3) in [7, 2000], an admissible base d, and 50
        # random unit bases; the largest prime power of Phi_3(N) is the target
        from cyclocert import factorize, select_base_d

        rng = random.Random(41)
        for n in sieve_primes(2000):
            if n < 7 or n % 3 != 1:
                continue
            d = select_base_d(n, 3)
            phi = cyclotomic_value(n, 3)
            p_seed, ell = max(factorize(phi), key=lambda f: f[0] ** f[1])
            k = phi // p_seed**ell
            checked = 0
            while checked < 50:
                coeffs = tuple(rng.randrange(n) for _ in range(3))
                if all(c == 0 for c in coeffs):
                    continue
                assert sprp_filter(n, d, RingElement(coeffs), k, p_seed, ell) is True
                checked += 1

    def test_matches_exponentiation_loop(self):
        # (1, 0, 0) projects to w = 1, so w^k = 1; (0, 0, 0) raises ValueError
        elements = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (2, 3, 5), (0, 0, 0)]

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError:
                return ValueError

        seen = set()
        # make_context(n, 3, 2) accepts every odd n > 3, composites included
        for n in range(7, 2000, 6):
            phi = cyclotomic_value(n, 3)
            for p_seed, ell in factorize(phi):
                k = phi // p_seed**ell
                for coeffs in elements:
                    args = (n, 2, RingElement(coeffs), k, p_seed, ell)
                    expected = outcome(sprp_filter_loop, *args)
                    assert outcome(sprp_filter, *args) is expected, args
                    seen.add(expected)
        assert seen == {True, False, ValueError}


class TestGenerateCertificate:
    def test_deterministic_for_fixed_seed(self):
        c1 = generate_certificate(40, rng=random.Random(5))
        c2 = generate_certificate(40, rng=random.Random(5))
        assert c1 == c2

    def test_generated_certificate_verifies(self):
        log = []
        cert = generate_certificate(48, rng=random.Random(9), verdict_log=log)
        assert verify(cert).outcome is Outcome.PRIME
        assert log[-1][1].outcome is Outcome.PRIME
        assert log[-1][0] == cert.N
        assert is_probable_prime(cert.N)
        assert cert.k * cert.q == cyclotomic_value(cert.N, 3)

    def test_fixed_base_respected(self):
        cert = generate_certificate(36, d=2, rng=random.Random(13))
        assert cert.d == 2
        assert pow(2, (cert.N - 1) // 3, cert.N) != 1

    def test_inadmissible_base_rejected_upfront(self):
        with pytest.raises(ValueError):
            generate_certificate(36, d=10, rng=random.Random(0))

    def test_degree5_generation(self):
        cert = generate_certificate(32, p=5, rng=random.Random(2))
        assert cert.p == 5
        assert verify(cert).outcome is Outcome.PRIME

    def test_degree7_generation(self):
        cert = generate_certificate(20, p=7, rng=random.Random(6))
        assert cert.p == 7
        assert verify(cert).outcome is Outcome.PRIME

    @pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15, 17])
    def test_unsupported_degree_refused_before_search(self, p):
        for d in (None, 2):
            with pytest.raises(ValueError, match="degree must be one of"):
                generate_certificate(32, p=p, d=d, rng=random.Random(0))
