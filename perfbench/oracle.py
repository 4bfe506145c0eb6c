"""Output checks written independently of the package under test.

Nothing here imports ``cyclocert``: the primality test, the cyclotomic
value, the certificate text and the ring product are re-derived so that a
defect shared by the program and its checker cannot hide.
"""

from __future__ import annotations

import random

# Deterministic below 3.3e24; a strong probable-prime test above that.
SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

EXIT_PRIME = 0
EXIT_REJECT = 2

# The composite-seed forgery from ROADMAP item 1: N = 43 * 193 and
# q = 7^2 * 619 * 757.  Its verdict is reported, never counted as an error,
# so the known soundness defect stays visible until it is fixed.
FORGED_TEXT = (
    "version=1\np=3\nd=2\nN=8299\nq=22960567\nk=3\n"
    "w0=3434\nw1=4865\nw2=5635\nseed_trust=PROBABLE\n"
)


def is_sprp(n: int) -> bool:
    """Strong probable prime to every base in SPRP_BASES."""
    if n < 2:
        return False
    for a in SPRP_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SPRP_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def cyclotomic(n: int, p: int) -> int:
    """Phi_p(n) = (n^p - 1) / (n - 1) for prime p."""
    return (n**p - 1) // (n - 1)


def field_problems(p: int, n: int, q: int, k: int) -> list[str]:
    """What is wrong with a certificate's numbers; empty when N and q pass and k*q = Phi_p(N)."""
    problems = []
    if not is_sprp(n):
        problems.append("N is not a strong probable prime")
    if not is_sprp(q):
        problems.append("q is not a strong probable prime")
    if k * q != cyclotomic(n, p):
        problems.append("k*q != Phi_p(N)")
    return problems


def cert_text(p: int, d: int, n: int, q: int, k: int, w: tuple[int, ...]) -> str:
    """Certificate text in the documented key=value format."""
    ws = "".join(f"w{i}={c}\n" for i, c in enumerate(w))
    return f"version=1\np={p}\nd={d}\nN={n}\nq={q}\nk={k}\n{ws}seed_trust=PROBABLE\n"


def parse_fields(text: str) -> dict[str, int]:
    """The integer fields of certificate text, w coefficients as w0, w1, ..."""
    pairs = dict(line.split("=", 1) for line in text.splitlines() if line)
    return {key: int(value) for key, value in pairs.items() if key not in ("version", "seed_trust")}


def coefficients(fields: dict[str, int]) -> tuple[int, ...]:
    return tuple(fields[f"w{i}"] for i in range(fields["p"]))


def ring_mul(p: int, d: int, n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product in Z[x]/(n, x^p - d), by cyclic convolution with wrap factor d."""
    out = [0] * p
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < p:
                out[i + j] += ai * bj
            else:
                out[i + j - p] += d * ai * bj
    return tuple(c % n for c in out)


def tamper(w: tuple[int, ...], n: int, rng: random.Random) -> tuple[int, ...]:
    """Copy of w with one coefficient replaced by a different residue."""
    i = rng.randrange(len(w))
    changed = list(w)
    changed[i] = (w[i] + 1 + rng.randrange(n - 1)) % n
    return tuple(changed)
