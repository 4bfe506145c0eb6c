"""Issue and verify cyclotomic ring certificates.

A certificate for a candidate N is the tuple (p, d, N, q, k, w): a trusted
seed prime q with Phi_p(N) = k·q, an admissible base d, and a unitary
element w obtained by projecting a random unit through z -> z^(N-1).
Verification is non-recursive and costs one exponentiation chain of full
size: X = w^k, then X^q = w^Phi_p(N), whose value 1 is the Fermat analog.
The cyclotomic condition is then certified zero-divisor-free through a
norm/gcd computation rather than coefficient comparison so that composite
moduli cannot hide factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .chain import reversed_construct, structural_bound_ok
from .numtheory import SeedTrust, monogenic_ok, pth_residue
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

    X = w^k must satisfy X^q = 1 (else the Fermat analog already failed).
    Then g = gcd(norm(X - 1), N) decides: g = 1 certifies Phi_q(X) ≡ 0 and
    yields PRIME; g = N means X ≡ 1, so the base had too small an order and
    the caller should retry phase 1; anything in between is a factor of N.
    """
    x = ring_pow(ctx, w, k)
    if ring_pow(ctx, x, q) != one(ctx):
        return Verdict(Outcome.COMPOSITE, Reason.FERMAT)
    g = gcd(ring_norm(ctx, ring_sub(ctx, x, one(ctx))), ctx.N)
    if g == 1:
        return Verdict(Outcome.PRIME)
    if g == ctx.N:
        return Verdict(Outcome.RETRY, Reason.CYCLOTOMIC)
    return Verdict(Outcome.COMPOSITE, Reason.ZERO_DIVISOR, witness=g)


def _base_compatible(n: int, p: int, d: int) -> bool:
    return gcd(n, p * d) == 1 and not pth_residue(d, n, p)


def select_base_d(N: int, p: int) -> int:
    """Smallest admissible base d in [2, BASE_D_MAX] for the candidate N.

    Admissible means: power-basis predicate holds, gcd(N, p·d) = 1, and d is
    not a p-th power residue mod N.
    """
    if N % p != 1:
        raise ValueError("require N ≡ 1 (mod p)")
    for d in range(2, BASE_D_MAX + 1):
        if monogenic_ok(d, p) and _base_compatible(N, p, d):
            return d
    raise ValueError(f"no admissible base d <= {BASE_D_MAX} for N = {N}")


def verify(cert: Certificate) -> Verdict:
    """Non-recursive certificate check with one full-size exponentiation chain.

    Order of checks: a degree in PRIME_DEGREES and N, q >= 2 (before any
    arithmetic), structural bound, congruences, field parameters
    (gcd and p-th power non-residue), exact cofactor, then phase 2: X = w^k
    and X^q = w^Phi_p(N), which must be 1, followed by the norm/gcd
    condition.  A failed Fermat analog is REJECT/FERMAT, because a w with
    w^Phi ≠ 1 is not the unitary element the certificate claims; every
    other phase-2 verdict is returned as it is.  PRIME is returned only
    when phase 2 certifies it.
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
    if not _base_compatible(n, p, d):
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
    verdict = phase2_cyclotomic(ctx, w, k, q)
    if verdict == Verdict(Outcome.COMPOSITE, Reason.FERMAT):
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
            if not _base_compatible(n, p, d):
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
