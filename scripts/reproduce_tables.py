#!/usr/bin/env python3
"""Re-certify the committed reference chains and report verify timings.

Checks, for every stored (q, N) pair: the exact cofactor relation, the odd
square root of -3 (cubic rows), the structural bound, and a fresh
phase1 + verify run.  Timings are informational; they depend on the host.
"""

from __future__ import annotations

import argparse
import random
import sys

from cyclocert import (
    Certificate,
    Outcome,
    Phase1Status,
    SeedTrust,
    cyclotomic_value,
    make_context,
    phase1_generate,
    sqrt_minus3,
    structural_bound_ok,
)
from cyclocert.bench import time_verify
from cyclocert.reference import (
    REFERENCE_BASE_D,
    REFERENCE_CHAINS_DEGREE3,
    REFERENCE_CHAINS_DEGREE5,
)


def certify(row, p):
    ctx = make_context(row.N, p, REFERENCE_BASE_D)
    rng = random.Random(row.bits)
    while True:
        result = phase1_generate(ctx, rng)
        assert result.status is Phase1Status.ELEMENT, result
        cert = Certificate(
            "1", p, REFERENCE_BASE_D, row.N, row.q, row.k, result.w, SeedTrust.PROBABLE
        )
        [(verdict, ms)] = time_verify([cert])
        if verdict.outcome is not Outcome.RETRY:  # RETRY: w had too small an order; redraw
            return verdict, ms


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    ok = True
    for p, rows, label in (
        (3, REFERENCE_CHAINS_DEGREE3, "degree 3, d = 2"),
        (5, REFERENCE_CHAINS_DEGREE5, "degree 5, d = 2"),
    ):
        print(f"== reference chains ({label}) ==")
        for row in rows:
            assert cyclotomic_value(row.N, p) % row.q == 0
            bound = structural_bound_ok(row.N, row.q, p)
            if p == 3:
                s = 2 * row.N + 1
                root_ok = s % 2 == 1 and (s * s + 3) % row.q == 0 and s in sqrt_minus3(row.q)
            else:
                root_ok = True
            verdict, ms = certify(row, p)
            line_ok = bound and root_ok and verdict.outcome is Outcome.PRIME
            ok &= line_ok
            print(
                f"bits={row.bits:4d} k={row.k:3d} bound={bound} root={root_ok} "
                f"verdict={verdict.outcome.value} verify_ms={ms:.2f}"
            )
    print("all rows reproduced" if ok else "REPRODUCTION FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
