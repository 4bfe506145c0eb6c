"""Text serialization of certificates.

One `key=value` pair per line in canonical order (version, p, d, N, q, k,
w0..w{p-1}, seed_trust), integers as unsigned base-10 without leading
zeros.  Certificates are audit artifacts, so the format is human-diffable
and strict: lines break at LF and nowhere else, unknown, missing, or
duplicate keys are all rejected, and the arithmetic invariants are
re-validated on decode.
"""

from __future__ import annotations

import re

from .certify import CERT_FORMAT_VERSION, Certificate
from .numtheory import SeedTrust
from .ring import PRIME_DEGREES, RingElement, cyclotomic_value


class CertFileError(ValueError):
    """Base class for certificate file problems."""


class CertFormatError(CertFileError):
    """Syntax problem: bad line shape, bad integer, unknown or missing key."""


class CertInvariantError(CertFileError):
    """Arithmetic invariant violated: cofactor mismatch or coefficient range."""


class CertVersionError(CertFileError):
    """Unsupported format version."""


_INT_RE = re.compile(r"^(0|[1-9][0-9]*)$")
# the breaks str.splitlines() honours besides LF; lines end at LF only
_OTHER_BREAK_RE = re.compile("[\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _check_invariants(cert: Certificate) -> None:
    if cert.p not in PRIME_DEGREES:
        raise CertInvariantError(f"unsupported degree p = {cert.p}")
    if cert.N < 2 or cert.q < 1 or cert.k < 1 or cert.d < 1:
        raise CertInvariantError("certificate integers must be positive")
    if cert.k * cert.q != cyclotomic_value(cert.N, cert.p):
        raise CertInvariantError("cofactor invariant k*q = Phi_p(N) violated")
    if len(cert.w.coeffs) != cert.p:
        raise CertInvariantError("unitary element must have exactly p coefficients")
    if any(not 0 <= c < cert.N for c in cert.w.coeffs):
        raise CertInvariantError("unitary element coefficients out of [0, N)")


def _keys(p: int) -> list[str]:
    """The canonical key order for a degree-p certificate."""
    return ["version", "p", "d", "N", "q", "k"] + [f"w{i}" for i in range(p)] + ["seed_trust"]


def cert_encode(cert: Certificate) -> str:
    """Canonical text for a certificate; refuses invariant breaches."""
    if cert.version != CERT_FORMAT_VERSION:
        raise CertVersionError(f"unsupported version {cert.version!r}")
    _check_invariants(cert)
    head = [cert.version, cert.p, cert.d, cert.N, cert.q, cert.k]
    values = head + list(cert.w.coeffs) + [cert.seed_trust.name]
    return "".join(f"{key}={value}\n" for key, value in zip(_keys(cert.p), values))


def _parse_int(key: str, value: str) -> int:
    if not _INT_RE.match(value):
        raise CertFormatError(f"key {key}: not an unsigned base-10 integer: {value!r}")
    try:
        return int(value)
    except ValueError:
        # CPython caps int() of a decimal string at sys.get_int_max_str_digits()
        raise CertFormatError(f"key {key}: integer of {len(value)} digits is too long") from None


def cert_decode(text: str) -> Certificate:
    """Parse certificate text, validating syntax and invariants."""
    if not text.strip():
        raise CertFormatError("empty certificate text")
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        other = _OTHER_BREAK_RE.search(line)
        if other:
            raise CertFormatError(f"line {lineno}: line break {other.group()!r} other than LF")
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or not key or not value:
            raise CertFormatError(f"line {lineno}: expected key=value, got {line!r}")
        if key in pairs:
            raise CertFormatError(f"duplicate key {key!r}")
        pairs[key] = value

    version = pairs.get("version")
    if version is None:
        raise CertFormatError("missing key 'version'")
    if version != CERT_FORMAT_VERSION:
        raise CertVersionError(f"unsupported version {version!r}")
    if "p" not in pairs:
        raise CertFormatError("missing key 'p'")
    p = _parse_int("p", pairs["p"])
    if p not in PRIME_DEGREES:
        raise CertInvariantError(f"unsupported degree p = {p}")

    expected = _keys(p)
    unknown = set(pairs) - set(expected)
    if unknown:
        raise CertFormatError(f"unknown keys: {sorted(unknown)}")
    missing = [k for k in expected if k not in pairs]
    if missing:
        raise CertFormatError(f"missing keys: {missing}")

    d = _parse_int("d", pairs["d"])
    n = _parse_int("N", pairs["N"])
    q = _parse_int("q", pairs["q"])
    k = _parse_int("k", pairs["k"])
    coeffs = tuple(_parse_int(f"w{i}", pairs[f"w{i}"]) for i in range(p))
    trust_name = pairs["seed_trust"]
    try:
        trust = SeedTrust[trust_name]
    except KeyError:
        raise CertFormatError(f"unknown seed_trust value {trust_name!r}") from None

    cert = Certificate(
        version=version, p=p, d=d, N=n, q=q, k=k, w=RingElement(coeffs), seed_trust=trust
    )
    _check_invariants(cert)
    return cert
