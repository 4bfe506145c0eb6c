"""Issue and verify cyclotomic ring certificates.

A certificate for a candidate N is the tuple (p, d, N, q, k, w): a trusted
seed prime q with Phi_p(N) = k·q, an admissible base d, and a unitary
element w obtained by projecting a random unit through z -> z^(N-1),
which phase1_generate computes as σ(z)·z⁻¹.  Verification is
non-recursive and makes one exponentiation of N's length: X = w^k has a
short exponent, and w^N = σ(w) for the Frobenius twist σ(θ) = ζθ,
ζ = d^((N-1)/p), stands in for the Fermat analog w^Phi_p(N) = X^q = 1
(see _frobenius_holds).  The cyclotomic condition is then certified
zero-divisor-free through a norm/gcd computation rather than coefficient
comparison so that composite moduli cannot hide factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .chain import reversed_construct, structural_bound_ok
from .numtheory import SeedTrust, monogenic_ok, twist
from .numtheory import pth_residue  # noqa: F401  perfbench/tracing.py wraps certify.pth_residue
from .ring import (
    PRIME_DEGREES,
    RingContext,
    RingElement,
    classify_unit,
    element,
    is_zero,
    make_context,
    one,
    ring_mul,
    ring_norm,
    ring_pow,
    ring_sub,
)

CERT_FORMAT_VERSION = "1"
# rounds generate_certificate makes before it gives up
MAX_ROUNDS = 64
# largest base select_base_d tries
BASE_D_MAX = 1000


@dataclass(frozen=True)
class Certificate:
    """The unit of issuance and verification; invariant Phi_p(N) = k·q."""

    version: str
    p: int
    d: int
    N: int
    q: int
    k: int
    w: RingElement
    seed_trust: SeedTrust


class Outcome(Enum):
    PRIME = "PRIME"
    COMPOSITE = "COMPOSITE"
    RETRY = "RETRY"
    REJECT = "REJECT"


class Reason(Enum):
    BOUND = "BOUND"
    CONGRUENCE = "CONGRUENCE"
    RESIDUE = "RESIDUE"
    FERMAT = "FERMAT"
    CYCLOTOMIC = "CYCLOTOMIC"
    ZERO_DIVISOR = "ZERO_DIVISOR"
    FORMAT = "FORMAT"


class Verdict(NamedTuple):
    """Verifier outcome; a COMPOSITE with ZERO_DIVISOR carries a factor of N."""

    outcome: Outcome
    reason: Reason | None = None
    witness: int | None = None


class GenerationError(RuntimeError):
    """Certificate generation exhausted its rounds (MAX_ROUNDS)."""


def unitary_project(ctx: RingContext, z: RingElement) -> RingElement:
    """Project z into the norm-one subgroup: w = z^(N-1)."""
    if is_zero(z):
        raise ValueError("cannot project the zero element")
    return ring_pow(ctx, z, ctx.N - 1)


class Phase1Status(Enum):
    ELEMENT = "ELEMENT"
    COMPOSITE = "COMPOSITE"
    EXHAUSTED = "EXHAUSTED"


class Phase1Result(NamedTuple):
    status: Phase1Status
    w: RingElement | None = None
    witness: int | None = None


def phase1_generate(ctx: RingContext, rng: random.Random) -> Phase1Result:
    """Draw one random element z and project it to a unitary w = z^(N-1).

    The projection z^(N-1) is computed as σ(z)·z⁻¹, where σ is the twist
    of _twist_orbit and z⁻¹ = ∏_{i≥1} σ^i(z)·norm(z)⁻¹: p - 1 ring products,
    one scalar inverse and ζ = twist(d, N, p).  For prime N the result is
    z^(N-1): as d is an admissible base, Z[θ]/(N) is the field F_(N^p) and
    θ^N = ζθ, so σ is the Frobenius x -> x^N.  Hence z^(N-1) = σ(z)·z⁻¹,
    and as σ generates the Galois group, the product of the p conjugates
    σ^i(z) is norm(z).  For composite N, w may differ from z^(N-1); verify
    decides either way.
    unitary_project keeps z^(N-1), since sprp_filter runs it on composite N.

    With g = gcd(norm(z), N): g = N, as for a zero draw, is EXHAUSTED, and
    so is a projection landing on 1; generate_certificate then resamples
    the candidate.  Any other g ≠ 1 is COMPOSITE with the factor g.  The
    caller is responsible for the structural bound and for d being an
    admissible base; a unit draw raises ValueError when numtheory.twist
    finds none.
    """
    n = ctx.N
    z = RingElement(tuple(rng.randrange(n) for _ in range(ctx.p)))
    g = classify_unit(ctx, z)
    if g == n:
        return Phase1Result(Phase1Status.EXHAUSTED)
    if g != 1:
        return Phase1Result(Phase1Status.COMPOSITE, witness=g)
    zeta = twist(ctx.d, n, ctx.p)
    if zeta is None:
        raise ValueError("inadmissible base d: need n ≡ 1 (mod p), gcd(n, p·d) = 1 and ζ ≠ 1")
    # σ(z)·∏_{i≥1} σ^i(z) = σ(z)·z⁻¹·norm(z)
    first, orbit = _twist_orbit(ctx, z, zeta)
    w = ring_mul(ctx, first, orbit)
    inverse = pow(ring_norm(ctx, z), -1, n)
    w = RingElement(tuple(c * inverse % n for c in w.coeffs))
    if w == one(ctx):
        return Phase1Result(Phase1Status.EXHAUSTED)
    return Phase1Result(Phase1Status.ELEMENT, w=w)


def phase2_cyclotomic(ctx: RingContext, w: RingElement, k: int, q: int) -> Verdict:
    """Cyclotomic verification of a unitary element; needs Phi_p(N) = k·q.

    X = w^k must satisfy X^q = 1 (else the Fermat analog already failed);
    then _cyclotomic_verdict decides from gcd(norm(X - 1), N).
    """
    x = ring_pow(ctx, w, k)
    if ring_pow(ctx, x, q) != one(ctx):
        return Verdict(Outcome.COMPOSITE, Reason.FERMAT)
    return _cyclotomic_verdict(ctx, x)


def _cyclotomic_verdict(ctx: RingContext, x: RingElement) -> Verdict:
    """g = gcd(norm(X - 1), N) for X = w^k decides.

    Given X^q = 1, g = 1 certifies Phi_q(X) ≡ 0 and yields PRIME; g = N
    means X ≡ 1, so the base had too small an order (RETRY); any other g
    is a factor of N whatever X^q is.
    """
    g = classify_unit(ctx, ring_sub(ctx, x, one(ctx)))
    if g == 1:
        return Verdict(Outcome.PRIME)
    if g == ctx.N:
        return Verdict(Outcome.RETRY, Reason.CYCLOTOMIC)
    return Verdict(Outcome.COMPOSITE, Reason.ZERO_DIVISOR, witness=g)


def _frobenius_holds(ctx: RingContext, w: RingElement, zeta: int) -> bool:
    """Whether w^Phi_p(N) = 1 is proven by one exponentiation of N's length.

    Let σ(Σ a_i θ^i) = Σ a_i ζ^i θ^i.  The checks, in order: ζ^p ≡ 1,
    ∏_{i<p} σ^i(w) = 1 (p - 1 ring products), and w^N = σ(w).
    - σ is a ring endomorphism exactly when ζ^p ≡ 1: it fixes Z/NZ, adds
      and multiplies like the substitution θ -> ζθ, and respects
      θ^p = d iff ζ^p·d ≡ d, that is ζ^p ≡ 1, since gcd(d, N) = 1.
    - Then σ commutes with powers, so w^N = σ(w) gives by induction
      w^(N^(i+1)) = σ^i(w)^N = σ^i(w^N) = σ^(i+1)(w).
    - Hence w^Phi_p(N) = ∏_{i<p} w^(N^i) = ∏_{i<p} σ^i(w) = 1, so X = w^k
      has X^q = 1 for every N, composite or not.
    - For prime N all three hold for every unitary w: as d is not a p-th
      power and N ≡ 1 (mod p), Z[θ]/(N) is the field F_(N^p), ζ^p =
      d^(N-1) = 1, σ is its Frobenius (θ^N = ζθ), and the product is
      w^Phi_p(N) = 1.
    The product goes first: for prime N it equals w^Phi_p(N), so a tampered
    w fails without a long exponentiation, and if w^N = σ(w) it is w^Phi
    anyway, so the order cannot change the result.
    """
    if pow(zeta, ctx.p, ctx.N) != 1:
        return False
    first, orbit = _twist_orbit(ctx, w, zeta)
    return ring_mul(ctx, w, orbit) == one(ctx) and ring_pow(ctx, w, ctx.N) == first


def _twist_orbit(ctx: RingContext, a: RingElement, zeta: int) -> tuple[RingElement, RingElement]:
    """(σ(a), ∏_{i=1}^{p-1} σ^i(a)) for σ(Σ a_j θ^j) = Σ a_j ζ^j θ^j.

    σ^i multiplies the coefficient of θ^j by ζ^(i·j), and ζ^(i·j) is read
    at i·j mod p, which is exact whenever ζ^p ≡ 1.  The product takes
    p - 2 ring products; for prime N it is norm(a)·a⁻¹ (phase1_generate).
    """
    n, p = ctx.N, ctx.p
    powers = [1]
    for _ in range(p - 1):
        powers.append(powers[-1] * zeta % n)
    twists = [
        RingElement(tuple(c * powers[i * j % p] % n for j, c in enumerate(a.coeffs)))
        for i in range(1, p)
    ]
    orbit = twists[0]
    for t in twists[1:]:
        orbit = ring_mul(ctx, orbit, t)
    return twists[0], orbit


def select_base_d(N: int, p: int) -> int:
    """Smallest base d in [2, BASE_D_MAX] for the candidate N that has the
    power-basis predicate and is admissible (numtheory.twist).
    """
    for d in range(2, BASE_D_MAX + 1):
        if monogenic_ok(d, p) and twist(d, N, p) is not None:
            return d
    raise ValueError(f"no admissible base d <= {BASE_D_MAX} for N = {N}")


def verify(cert: Certificate) -> Verdict:
    """Non-recursive certificate check with one exponentiation of N's length.

    Order of checks: a degree in PRIME_DEGREES and N, q >= 2 (before any
    arithmetic), structural bound, congruences, an admissible base d
    (numtheory.twist, which yields ζ), exact cofactor, then:
    1. X = w^k and g = gcd(norm(X - 1), N); 1 < g < N is COMPOSITE with
       the factor g as witness.
    2. The Frobenius check (_frobenius_holds): ζ^p ≡ 1, ∏ σ^i(w) = 1 and
       w^N = σ(w), which prove w^Phi_p(N) = X^q = 1.  A failure is
       REJECT/FERMAT, because w is not the unitary element the
       certificate claims.
    3. g = 1 is PRIME and g = N is RETRY.
    ζ is computed once, and w^N is the longest exponentiation whenever
    k < N, which generated certificates have once N > chain.DEFAULT_K_MAX.
    """
    n, p, q, k, d = cert.N, cert.p, cert.q, cert.k, cert.d
    if p not in PRIME_DEGREES or n < 2 or q < 2:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    if not structural_bound_ok(n, q, p):
        return Verdict(Outcome.REJECT, Reason.BOUND)
    if q % p != 1 or n % p != 1:
        # for N the residue exponent (N-1)/p would not even be defined
        return Verdict(Outcome.REJECT, Reason.CONGRUENCE)
    zeta = twist(d, n, p)
    if zeta is None:
        return Verdict(Outcome.REJECT, Reason.RESIDUE)
    try:
        ctx = make_context(n, p, d)
    except ValueError:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    if k < 1 or k * q != ctx.phi_p_n:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    w = cert.w
    if len(w.coeffs) != p or any(not 0 <= c < n for c in w.coeffs):
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    verdict = _cyclotomic_verdict(ctx, ring_pow(ctx, w, k))
    if verdict.outcome is Outcome.COMPOSITE:
        return verdict
    if not _frobenius_holds(ctx, w, zeta):
        return Verdict(Outcome.REJECT, Reason.FERMAT)
    return verdict


def sprp_filter(N: int, d: int, z: RingElement, k: int, p_seed: int, ell: int) -> bool:
    """Strong-probable-prime filter in the cubic ring.

    Requires the factorization N² + N + 1 = k · p_seed^ell.  With
    w = z^(N-1), the filter passes when w^k = 1, or when some j < ell gives
    X = w^(k·p_seed^j) with X^p_seed = 1 and gcd(norm(X - 1), N) = 1, the
    zero-divisor-free witness that Phi_p_seed(X) ≡ 0.  One chain X -> X^p_seed
    from X = w^k visits every j; the first X^p_seed = 1 decides, since every
    later X is 1.  Only `cyclocert filter` calls this.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    ctx = make_context(N, 3, d)
    if k < 1 or k * p_seed**ell != ctx.phi_p_n:
        raise ValueError("factorization N^2+N+1 = k * p_seed^ell does not hold")
    w = unitary_project(ctx, element(ctx, z.coeffs))
    x = ring_pow(ctx, w, k)
    if x == one(ctx):
        return True
    for _ in range(ell):
        power = ring_pow(ctx, x, p_seed)
        if power == one(ctx):
            return _cyclotomic_verdict(ctx, x).outcome is Outcome.PRIME
        x = power
    return False


def generate_certificate(
    target_bits: int,
    p: int = 3,
    d: int | None = None,
    rng: random.Random | None = None,
    verdict_log: list[tuple[int, Verdict]] | None = None,
) -> Certificate:
    """Full pipeline: construct a candidate, project a unitary, verify PRIME.

    With d = None the smallest admissible base is chosen per candidate; a
    fixed d instead causes incompatible candidates to be resampled.  Every
    verdict observed along the way is appended to verdict_log as an
    (N, verdict) pair when given.  Each round scans one sieved window
    (reversed_construct), makes one phase-1 draw and at most one verify,
    and every outcome short of PRIME resamples the candidate: an empty
    window, an incompatible base, a phase-1 COMPOSITE or EXHAUSTED, and
    RETRY, REJECT or COMPOSITE from verify.  MAX_ROUNDS rounds without
    PRIME raise GenerationError.  All randomness flows from the single rng,
    so a fixed seed reproduces the certificate bit for bit.
    """
    if p not in PRIME_DEGREES:
        raise ValueError(f"degree must be one of {PRIME_DEGREES}")
    if rng is None:
        rng = random.Random(0)
    if d is not None and not monogenic_ok(d, p):
        raise ValueError(f"base d = {d} does not admit power-basis arithmetic")
    for _ in range(MAX_ROUNDS):
        chain = reversed_construct(target_bits, p, rng=rng)
        if not chain.accepted:
            continue
        n, q, k = chain.N, chain.q, chain.k
        if d is None:
            try:
                d_used = select_base_d(n, p)
            except ValueError:
                continue
        else:
            if twist(d, n, p) is None:
                continue  # candidate incompatible with the fixed base; resample
            d_used = d
        result = phase1_generate(make_context(n, p, d_used), rng)
        if result.status is Phase1Status.COMPOSITE and verdict_log is not None:
            verdict_log.append((n, Verdict(Outcome.COMPOSITE, Reason.ZERO_DIVISOR, result.witness)))
        if result.status is not Phase1Status.ELEMENT:
            continue
        cert = Certificate(
            version=CERT_FORMAT_VERSION,
            p=p,
            d=d_used,
            N=n,
            q=q,
            k=k,
            w=result.w,
            seed_trust=SeedTrust.PROBABLE,
        )
        verdict = verify(cert)
        if verdict_log is not None:
            verdict_log.append((n, verdict))
        if verdict.outcome is Outcome.PRIME:
            return cert
    raise GenerationError("certificate generation exhausted its rounds")
