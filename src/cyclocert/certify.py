"""Issue and verify cyclotomic ring certificates.

A certificate for a candidate N is the tuple (p, d, N, q, k, w): a trusted
seed prime q with Phi_p(N) = k·q, an admissible base d, and a unitary
element w obtained by projecting a random unit through z -> z^(N-1).
Verification is non-recursive and makes one exponentiation of N's length:
X = w^k has a short exponent, and w^N = σ(w) for the Frobenius twist
σ(θ) = ζθ, ζ = d^((N-1)/p), stands in for the Fermat analog
w^Phi_p(N) = X^q = 1 (see _frobenius_holds).  The cyclotomic condition is
then certified zero-divisor-free through a norm/gcd computation rather than
coefficient comparison so that composite moduli cannot hide factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .chain import reversed_construct, structural_bound_ok
from .numtheory import SeedTrust, monogenic_ok, pth_power_symbol
from .numtheory import pth_residue  # noqa: F401  perfbench/tracing.py wraps certify.pth_residue
from .ring import (
    PRIME_DEGREES,
    RingContext,
    RingElement,
    UnitKind,
    classify_unit,
    cyclotomic_value,
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
# candidates generate_certificate constructs before it gives up
MAX_ROUNDS = 64
# phase-1 draws per candidate while phase 2 answers RETRY
PHASE1_RETRIES = 8
# random elements one phase-1 call draws before it reports EXHAUSTED
PHASE1_TRIES = 64
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


@dataclass(frozen=True)
class Verdict:
    """Verifier outcome; a COMPOSITE with ZERO_DIVISOR carries a factor of N."""

    outcome: Outcome
    reason: Reason | None = None
    witness: int | None = None


class GenerationError(RuntimeError):
    """Certificate generation exhausted its attempt budget."""


def unitary_project(ctx: RingContext, z: RingElement) -> RingElement:
    """Project z into the norm-one subgroup: w = z^(N-1)."""
    if is_zero(z):
        raise ValueError("cannot project the zero element")
    return ring_pow(ctx, z, ctx.N - 1)


class Phase1Status(Enum):
    ELEMENT = "ELEMENT"
    COMPOSITE = "COMPOSITE"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True)
class Phase1Result:
    status: Phase1Status
    w: RingElement | None = None
    witness: int | None = None


def phase1_generate(ctx: RingContext, rng: random.Random) -> Phase1Result:
    """Draw random elements until one projects to a usable unitary w ≠ 1.

    A zero divisor among the draws is promoted to COMPOSITE with the factor
    it exposes; zero draws and projections landing on 1 are redrawn.  The
    caller is responsible for the structural bound and for gcd(N, p·d) = 1.
    """
    n = ctx.N
    for _ in range(PHASE1_TRIES):
        z = RingElement(tuple(rng.randrange(n) for _ in range(ctx.p)))
        cls = classify_unit(ctx, z)
        if cls.kind is UnitKind.ZERO_DIVISOR:
            return Phase1Result(Phase1Status.COMPOSITE, witness=cls.factor)
        if cls.kind is UnitKind.ZERO:
            continue
        w = unitary_project(ctx, z)
        if w != one(ctx):
            return Phase1Result(Phase1Status.ELEMENT, w=w)
    return Phase1Result(Phase1Status.EXHAUSTED)


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
    """The norm/gcd ladder on X = w^k: g = gcd(norm(X - 1), N) decides.

    Given X^q = 1, g = 1 certifies Phi_q(X) ≡ 0 and yields PRIME; g = N
    means X ≡ 1, so the base had too small an order and the caller should
    retry phase 1; anything in between is a factor of N whatever X^q is.
    """
    g = gcd(ring_norm(ctx, ring_sub(ctx, x, one(ctx))), ctx.N)
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
    n, p = ctx.N, ctx.p
    if pow(zeta, p, n) != 1:
        return False
    powers = [1]
    for _ in range(p - 1):
        powers.append(powers[-1] * zeta % n)

    def twist(i: int) -> RingElement:
        return RingElement(tuple(c * powers[i * j % p] % n for j, c in enumerate(w.coeffs)))

    product = w
    for i in range(1, p):
        product = ring_mul(ctx, product, twist(i))
    return product == one(ctx) and ring_pow(ctx, w, n) == twist(1)


def _base_zeta(n: int, p: int, d: int) -> int | None:
    """ζ = d^((N-1)/p) mod N when d is an admissible base for N, else None.

    Admissible means gcd(N, p·d) = 1 and ζ ≠ 1 (d is not a p-th power
    residue); verify reuses ζ as the Frobenius twist.
    """
    if gcd(n, p * d) != 1:
        return None
    zeta = pth_power_symbol(d, n, p)
    return None if zeta == 1 else zeta


def select_base_d(N: int, p: int) -> int:
    """Smallest admissible base d in [2, BASE_D_MAX] for the candidate N.

    Admissible means: power-basis predicate holds, gcd(N, p·d) = 1, and d is
    not a p-th power residue mod N.
    """
    if N % p != 1:
        raise ValueError("require N ≡ 1 (mod p)")
    for d in range(2, BASE_D_MAX + 1):
        if monogenic_ok(d, p) and _base_zeta(N, p, d) is not None:
            return d
    raise ValueError(f"no admissible base d <= {BASE_D_MAX} for N = {N}")


def verify(cert: Certificate) -> Verdict:
    """Non-recursive certificate check with one exponentiation of N's length.

    Order of checks: a degree in PRIME_DEGREES and N, q >= 2 (before any
    arithmetic), structural bound, congruences, field parameters
    (gcd and p-th power non-residue, which yields ζ), exact cofactor, then:
    1. X = w^k and g = gcd(norm(X - 1), N); 1 < g < N is COMPOSITE with
       the factor g as witness.
    2. The Frobenius check (_frobenius_holds): ζ^p ≡ 1, ∏ σ^i(w) = 1 and
       w^N = σ(w), which prove w^Phi_p(N) = X^q = 1.  A failure is
       REJECT/FERMAT, because w is not the unitary element the
       certificate claims.
    3. g = 1 is PRIME and g = N is RETRY.
    ζ is computed once, and w^N is the longest exponentiation whenever
    k < N, which holds once N exceeds the generator's k_max.
    """
    n, p, q, k, d = cert.N, cert.p, cert.q, cert.k, cert.d
    if p not in PRIME_DEGREES or n < 2 or q < 2:
        return Verdict(Outcome.REJECT, Reason.FORMAT)
    if not structural_bound_ok(n, q, p):
        return Verdict(Outcome.REJECT, Reason.BOUND)
    if q % p != 1:
        return Verdict(Outcome.REJECT, Reason.CONGRUENCE)
    if n % p != 1:
        # the residue exponent (N-1)/p would not even be defined
        return Verdict(Outcome.REJECT, Reason.CONGRUENCE)
    zeta = _base_zeta(n, p, d)
    if zeta is None:
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
    zero-divisor-free witness that Phi_p_seed(X) ≡ 0.  Each j is one
    phase-2 check with k·p_seed^j in place of k.  The generation pipeline
    calls this with p_seed = q and ell = 1.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if k < 1 or k * p_seed**ell != cyclotomic_value(N, 3):
        raise ValueError("factorization N^2+N+1 = k * p_seed^ell does not hold")
    ctx = make_context(N, 3, d)
    w = unitary_project(ctx, element(ctx, z.coeffs))
    # with q = 1 phase 2 answers RETRY exactly when X = w^k is 1
    if phase2_cyclotomic(ctx, w, k, 1).outcome is Outcome.RETRY:
        return True
    return any(
        phase2_cyclotomic(ctx, w, k * p_seed**j, p_seed).outcome is Outcome.PRIME
        for j in range(ell)
    )


def generate_certificate(
    target_bits: int,
    p: int = 3,
    d: int | None = None,
    k_max: int = 10_000,
    rng: random.Random | None = None,
    verdict_log: list[tuple[int, Verdict]] | None = None,
) -> Certificate:
    """Full pipeline: construct a candidate, project a unitary, verify PRIME.

    With d = None the smallest admissible base is chosen per candidate; a
    fixed d instead causes incompatible candidates to be resampled.  Every
    verdict observed along the way is appended to verdict_log as an
    (N, verdict) pair when given.  All randomness flows from the single rng,
    so a fixed seed reproduces the certificate bit for bit.
    """
    if p not in PRIME_DEGREES:
        raise ValueError(f"degree must be one of {PRIME_DEGREES}")
    if rng is None:
        rng = random.Random(0)
    if d is not None and not monogenic_ok(d, p):
        raise ValueError(f"base d = {d} does not admit power-basis arithmetic")
    for _ in range(MAX_ROUNDS):
        chain = reversed_construct(target_bits, p, k_max=k_max, rng=rng)
        if not chain.accepted:
            raise GenerationError(f"no candidate found within budget ({chain.status.value})")
        n, q, k = chain.N, chain.q, chain.k
        if d is None:
            try:
                d_used = select_base_d(n, p)
            except ValueError:
                continue
        else:
            if _base_zeta(n, p, d) is None:
                continue  # candidate incompatible with the fixed base; resample
            d_used = d
        ctx = make_context(n, p, d_used)
        for _ in range(PHASE1_RETRIES):
            result = phase1_generate(ctx, rng)
            if result.status is Phase1Status.COMPOSITE:
                if verdict_log is not None:
                    verdict_log.append(
                        (n, Verdict(Outcome.COMPOSITE, Reason.ZERO_DIVISOR, witness=result.witness))
                    )
                break
            if result.status is Phase1Status.EXHAUSTED:
                break
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
            if verdict.outcome is Outcome.RETRY:
                continue  # new unitary element for the same candidate
            break  # certificate-level failure; resample the candidate
    raise GenerationError("certificate generation exhausted its rounds")
