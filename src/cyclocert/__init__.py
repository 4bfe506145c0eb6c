"""Deterministic prime generation with verifiable cyclotomic ring certificates.

Construct candidates N with a known large prime factor q of Phi_p(N), then
certify primality with a constant number of exponentiations in the ring
Z[x]/(N, x**p - d).
"""

from importlib import import_module

from .certfile import (
    CertFileError,
    CertFormatError,
    CertInvariantError,
    CertVersionError,
    cert_decode,
    cert_encode,
)
from .certify import (
    CERT_FORMAT_VERSION,
    Certificate,
    GenerationError,
    Outcome,
    Phase1Result,
    Phase1Status,
    Reason,
    Verdict,
    generate_certificate,
    phase1_generate,
    phase2_cyclotomic,
    select_base_d,
    sprp_filter,
    unitary_project,
    verify,
)
from .chain import (
    ChainResult,
    ChainStatus,
    forward_construct,
    reversed_construct,
    structural_bound_ok,
)
from .numtheory import (
    SeedTrust,
    cyclotomic_roots,
    is_probable_prime,
    monogenic_ok,
    pth_residue,
    sqrt_minus3,
)
from .ring import (
    RingContext,
    RingElement,
    classify_unit,
    cyclotomic_value,
    element,
    make_context,
    one,
    ring_mul,
    ring_norm,
    ring_pow,
    scalar,
    theta,
    zero,
)

__all__ = [
    "BenchReport",
    "BenchRow",
    "CERT_FORMAT_VERSION",
    "CarmichaelReport",
    "CertFileError",
    "CertFormatError",
    "CertInvariantError",
    "CertVersionError",
    "Certificate",
    "ChainResult",
    "ChainStatus",
    "GenerationError",
    "Outcome",
    "Phase1Result",
    "Phase1Status",
    "Reason",
    "RingContext",
    "RingElement",
    "SeedTrust",
    "Verdict",
    "carmichael_direct",
    "cert_decode",
    "cert_encode",
    "classify_unit",
    "cyclotomic_roots",
    "cyclotomic_value",
    "element",
    "factorize",
    "forward_construct",
    "generate_certificate",
    "is_probable_prime",
    "korselt_check",
    "make_context",
    "monogenic_ok",
    "one",
    "phase1_generate",
    "phase2_cyclotomic",
    "pth_residue",
    "reversed_construct",
    "ring_mul",
    "ring_norm",
    "ring_pow",
    "run_bench",
    "scalar",
    "select_base_d",
    "sprp_filter",
    "sqrt_minus3",
    "structural_bound_ok",
    "theta",
    "unitary_project",
    "verify",
    "zero",
]

__version__ = "0.1.0"

# exports of the modules that verify and generate never run, loaded on first use (PEP 562)
_LAZY = {
    "bench": ("BenchReport", "BenchRow", "run_bench"),
    "carmichael": ("CarmichaelReport", "carmichael_direct", "factorize", "korselt_check"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            globals()[name] = value = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
