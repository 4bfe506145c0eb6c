"""Command-line surface.

One subcommand per procedure: `generate`, `verify`, `filter`, `bench`, and
`roots`.  Machine-readable results go to stdout, diagnostics to stderr.
`verify` exits 0 for PRIME and distinguishes REJECT (2), COMPOSITE (3),
RETRY (4), and file-level format problems (5); other subcommands exit 0 on
success and 1 on domain errors and on a failed `--out` write, which `main`
reports as one stderr line `<what> failed: <reason>`.
"""

from __future__ import annotations

import argparse
import random
import sys

from .certfile import CertFileError, cert_decode, cert_encode
from .certify import GenerationError, Outcome, Verdict, generate_certificate, sprp_filter, verify
from .chain import DEFAULT_K_MAX, cofactor_split
from .numtheory import cyclotomic_roots, is_probable_prime, twist
from .ring import PRIME_DEGREES, RingElement, make_context

EXIT_PRIME = 0
EXIT_REJECT = 2
EXIT_COMPOSITE = 3
EXIT_RETRY = 4
EXIT_FORMAT = 5

_VERDICT_EXIT_CODES = {
    Outcome.PRIME: EXIT_PRIME,
    Outcome.REJECT: EXIT_REJECT,
    Outcome.COMPOSITE: EXIT_COMPOSITE,
    Outcome.RETRY: EXIT_RETRY,
}


def exit_code_for(verdict: Verdict) -> int:
    return _VERDICT_EXIT_CODES[verdict.outcome]


def _verdict_line(verdict: Verdict) -> str:
    parts = [f"verdict={verdict.outcome.value}"]
    if verdict.reason is not None:
        parts.append(f"reason={verdict.reason.value}")
    if verdict.witness is not None:
        parts.append(f"witness={verdict.witness}")
    return " ".join(parts)


def _cmd_generate(args) -> int:
    d = None if args.d == "auto" else int(args.d)
    rng = random.Random(args.rng_seed)
    cert = generate_certificate(args.bits, p=args.degree, d=d, rng=rng)
    text = cert_encode(cert)
    if args.out:
        # newline="" writes cert_encode's LFs as they are, which verify requires
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"certificate written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.cert, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    try:
        cert = cert_decode(text)
    except CertFileError as exc:
        print(f"certificate file rejected: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    verdict = verify(cert)
    print(_verdict_line(verdict))
    return exit_code_for(verdict)


def _cmd_filter(args) -> int:
    n, d = args.n, args.d
    if n % 3 != 1 or n % 2 == 0 or n <= 3:
        raise ValueError("n must be odd, greater than 3 and ≡ 1 (mod 3)")
    ctx = make_context(n, 3, d)
    if args.bases < 1:
        raise ValueError(f"--bases must be at least 1, got {args.bases}")
    found = cofactor_split(ctx.phi_p_n, 3, DEFAULT_K_MAX)
    if found is None or not is_probable_prime(found[1]):
        raise ValueError("no factorization n²+n+1 = k·q with a small cofactor found")
    if twist(d, n, 3) is None:
        # verify's RESIDUE rule; for such d, Z[θ]/(n) is not the field F_(n³) and a prime n can fail
        raise ValueError(f"d = {d} shares a factor with 3n or has d^((n-1)/3) ≡ 1 (mod n)")
    k, q = found
    print(f"factorization k={k} q={q}", file=sys.stderr)
    rng = random.Random(args.rng_seed)
    passed = 0
    for i in range(args.bases):
        coeffs = tuple(rng.randrange(n) for _ in range(3))
        while all(c == 0 for c in coeffs):
            coeffs = tuple(rng.randrange(n) for _ in range(3))
        ok = sprp_filter(n, d, RingElement(coeffs), k, q, 1)
        passed += ok
        print(f"base={i} pass={str(ok).lower()}")
    print(f"passed={passed}/{args.bases}")
    return 0 if passed == args.bases else 1


def _cmd_bench(args) -> int:
    from .bench import run_bench  # imported here, so verify and generate never load it
    sizes = [int(b) for b in args.bits.split(",")]
    report = run_bench(sizes, p=args.degree, rng_seed=args.rng_seed)
    for row in report.rows:
        print(
            f"bits={row.bits} verify_ms={row.verify_ms:.3f} "
            f"n_digits={row.n_digits} q_digits={row.q_digits}"
        )
    if report.slope is None:
        print("slope=none")
    else:
        ratio = report.rows[-1].verify_ms / report.rows[0].verify_ms
        print(f"slope={report.slope:.3f} ratio={ratio:.1f}")
    return 0


def _cmd_roots(args) -> int:
    if args.p not in PRIME_DEGREES:
        raise ValueError(f"degree must be one of {PRIME_DEGREES}")
    if not is_probable_prime(args.q):
        raise ValueError("q must be a prime")
    print(" ".join(str(r) for r in sorted(cyclotomic_roots(args.p, args.q))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclocert",
        description="Deterministic prime generation with verifiable cyclotomic ring certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct and certify a new prime")
    g.add_argument("--bits", type=int, required=True, help="target bit length of N")
    g.add_argument("--degree", type=int, default=3, help="prime ring degree p")
    g.add_argument("--d", default="auto", help="ring base: 'auto' or an integer")
    g.add_argument("--rng-seed", type=int, default=0)
    g.add_argument("--out", help="write the certificate file here instead of stdout")
    g.set_defaults(func=_cmd_generate, failure="generation failed")

    v = sub.add_parser("verify", help="verify a certificate file")
    v.add_argument("--cert", required=True, help="path to the certificate file")
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("filter", help="run the strong-probable-prime ring filter")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--d", type=int, required=True)
    f.add_argument("--bases", type=int, required=True, help="number of random bases")
    f.add_argument("--rng-seed", type=int, default=0)
    f.set_defaults(func=_cmd_filter, failure="filter failed")

    b = sub.add_parser("bench", help="time certificate verification across sizes")
    b.add_argument("--bits", required=True, help="comma-separated ascending bit sizes")
    b.add_argument("--degree", type=int, default=3)
    b.add_argument("--rng-seed", type=int, default=0)
    b.set_defaults(func=_cmd_bench, failure="bench failed")

    r = sub.add_parser("roots", help="residues where the degree-p cyclotomic vanishes mod q")
    r.add_argument("--p", type=int, required=True, help="prime ring degree p")
    r.add_argument("--q", type=int, required=True)
    r.set_defaults(func=_cmd_roots, failure="roots failed")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"{args.failure}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
