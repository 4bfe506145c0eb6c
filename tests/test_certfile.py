"""Certificate text format: golden file, round trips, strict rejection."""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclocert import (
    Certificate,
    CertFormatError,
    CertInvariantError,
    CertVersionError,
    RingElement,
    SeedTrust,
    cert_decode,
    cert_encode,
    cyclotomic_value,
)
from cyclocert.ring import PRIME_DEGREES

GOLDEN = Path(__file__).parent / "data" / "golden_n7.cert"
# CPython's cap on int() of a decimal string; 0 where there is none
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def fixture_cert():
    return Certificate("1", 3, 2, 7, 19, 3, RingElement((3, 1, 6)), SeedTrust.PROBABLE)


def random_valid_cert(rng, p=None):
    p = p or rng.choice(PRIME_DEGREES)
    n = rng.randrange(3, 2**48) * 2 + 1
    phi = cyclotomic_value(n, p)
    k = 1
    for cand in range(2, 100):
        if phi % cand == 0:
            k = cand
            break
    d = rng.randrange(2, min(n - 1, 10**6))
    w = RingElement(tuple(rng.randrange(n) for _ in range(p)))
    return Certificate("1", p, d, n, phi // k, k, w, SeedTrust.PROBABLE)


class TestGoldenFile:
    def test_encode_matches_committed_bytes(self):
        assert cert_encode(fixture_cert()) == GOLDEN.read_text()

    def test_decode_golden(self):
        assert cert_decode(GOLDEN.read_text()) == fixture_cert()


class TestRoundTrip:
    def test_thousand_random_certificates(self):
        rng = random.Random(123)
        for _ in range(1000):
            cert = random_valid_cert(rng)
            assert cert_decode(cert_encode(cert)) == cert

    @given(st.data())
    @settings(max_examples=50)
    def test_roundtrip_property(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        cert = random_valid_cert(rng)
        assert cert_decode(cert_encode(cert)) == cert

    @pytest.mark.parametrize("p", PRIME_DEGREES)
    def test_canonical_key_order(self, p):
        text = cert_encode(random_valid_cert(random.Random(p), p))
        keys = [line.partition("=")[0] for line in text.splitlines()]
        w_keys = [f"w{i}" for i in range(p)]
        assert keys == ["version", "p", "d", "N", "q", "k", *w_keys, "seed_trust"]


class TestEncodeValidation:
    def test_out_of_range_coefficient_refused(self):
        bad = Certificate("1", 3, 2, 7, 19, 3, RingElement((7, 0, 0)), SeedTrust.PROBABLE)
        with pytest.raises(CertInvariantError):
            cert_encode(bad)

    def test_cofactor_mismatch_refused(self):
        bad = Certificate("1", 3, 2, 7, 19, 4, RingElement((3, 1, 6)), SeedTrust.PROBABLE)
        with pytest.raises(CertInvariantError):
            cert_encode(bad)

    def test_unknown_version_refused(self):
        bad = Certificate("2", 3, 2, 7, 19, 3, RingElement((3, 1, 6)), SeedTrust.PROBABLE)
        with pytest.raises(CertVersionError):
            cert_encode(bad)

    def test_too_few_coefficients_refused(self):
        bad = Certificate("1", 3, 2, 7, 19, 3, RingElement((3, 1)), SeedTrust.PROBABLE)
        with pytest.raises(CertInvariantError, match="exactly p coefficients"):
            cert_encode(bad)

    def test_unsupported_degree_refused(self):
        bad = Certificate("1", 2, 2, 7, 8, 1, RingElement((3, 1)), SeedTrust.PROBABLE)
        with pytest.raises(CertInvariantError, match="unsupported degree p = 2"):
            cert_encode(bad)


class TestDecodeValidation:
    def test_empty_input(self):
        with pytest.raises(CertFormatError):
            cert_decode("")

    def test_missing_key(self):
        text = GOLDEN.read_text().replace("k=3\n", "")
        with pytest.raises(CertFormatError, match="missing"):
            cert_decode(text)

    def test_unknown_key(self):
        with pytest.raises(CertFormatError, match="unknown"):
            cert_decode(GOLDEN.read_text() + "extra=1\n")

    def test_duplicate_key(self):
        with pytest.raises(CertFormatError, match="duplicate"):
            cert_decode(GOLDEN.read_text() + "k=3\n")

    def test_leading_zero_rejected(self):
        text = GOLDEN.read_text().replace("k=3", "k=03")
        with pytest.raises(CertFormatError):
            cert_decode(text)

    def test_signed_integer_rejected(self):
        text = GOLDEN.read_text().replace("k=3", "k=+3")
        with pytest.raises(CertFormatError):
            cert_decode(text)

    def test_unsupported_version(self):
        text = GOLDEN.read_text().replace("version=1", "version=9")
        with pytest.raises(CertVersionError):
            cert_decode(text)

    def test_cofactor_invariant_enforced(self):
        text = GOLDEN.read_text().replace("q=19", "q=23")
        with pytest.raises(CertInvariantError):
            cert_decode(text)

    def test_coefficient_range_enforced(self):
        text = GOLDEN.read_text().replace("w0=3", "w0=7")
        with pytest.raises(CertInvariantError):
            cert_decode(text)

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit here")
    def test_overlong_integer_names_its_key(self):
        text = GOLDEN.read_text().replace("N=7", "N=1" + "0" * INT_DIGIT_LIMIT)
        with pytest.raises(CertFormatError, match="key N"):
            cert_decode(text)

    def test_bad_trust_label(self):
        # a label for a proven seed is refused too: no proof is attached or checked
        for label in ("MAYBE", "EXTERNALLY_PROVEN"):
            text = GOLDEN.read_text().replace("seed_trust=PROBABLE", f"seed_trust={label}")
            with pytest.raises(CertFormatError, match=f"unknown seed_trust value '{label}'"):
                cert_decode(text)

    def test_garbage_line(self):
        with pytest.raises(CertFormatError):
            cert_decode("this is not a certificate\n")

    @pytest.mark.parametrize("key", ["version", "p"])
    def test_missing_leading_key_named(self, key):
        lines = GOLDEN.read_text().splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith(key + "="))
        with pytest.raises(CertFormatError, match=f"missing key '{key}'"):
            cert_decode(text)

    @pytest.mark.parametrize("p", [2, 17])
    def test_unsupported_degree(self, p):
        text = GOLDEN.read_text().replace("p=3", f"p={p}")
        with pytest.raises(CertInvariantError, match=f"unsupported degree p = {p}"):
            cert_decode(text)

    def test_zero_base_refused(self):
        text = GOLDEN.read_text().replace("d=2", "d=0")
        with pytest.raises(CertInvariantError, match="certificate integers must be positive"):
            cert_decode(text)

    def test_blank_lines_between_pairs_ignored(self):
        text = GOLDEN.read_text().replace("\n", "\n\n")
        assert cert_decode(text) == fixture_cert()

    @pytest.mark.parametrize("whole_file", [True, False], ids=["every-line", "one-line"])
    @pytest.mark.parametrize(
        "sep", ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_breaks_other_than_lf_refused(self, sep, whole_file):
        # str.splitlines() breaks on all of these; `d=2<sep>N=7` is one line to grep and diff
        golden = GOLDEN.read_text()
        text = golden.replace("\n", sep) if whole_file else golden.replace("d=2\n", "d=2" + sep)
        lineno = 1 if whole_file else 3
        with pytest.raises(CertFormatError, match=re.escape(f"line {lineno}: line break {sep[0]!r} ")):
            cert_decode(text)
