"""Verification-cost benchmark.

Generates one certified prime per requested bit size and times the verifier
alone (generation is excluded), taking the median of repeated runs to
suppress scheduler noise.  The report carries the least-squares slope of
log(time) against log(bits), the quantity that should stay small if
verification really costs a constant number of ring exponentiations.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from .certify import Outcome, generate_certificate, verify

# verify runs per size; their median suppresses scheduler noise
REPETITIONS = 9


@dataclass(frozen=True)
class BenchRow:
    bits: int
    verify_ms: float
    n_digits: int
    q_digits: int


@dataclass(frozen=True)
class BenchReport:
    """Rows sorted by bits; slope is None when fewer than two sizes ran."""

    rows: tuple[BenchRow, ...]
    slope: float | None


def run_bench(bit_sizes: Sequence[int], p: int = 3, rng_seed: int = 0) -> BenchReport:
    """Per ascending bit size, one certificate and the median of REPETITIONS verify runs."""
    sizes = list(bit_sizes)
    if sizes != sorted(set(sizes)):
        raise ValueError("bit sizes must be strictly ascending")
    if any(b < 32 for b in sizes):
        raise ValueError("bit sizes must be at least 32")
    rng = random.Random(rng_seed)
    rows = []
    for bits in sizes:
        cert = generate_certificate(bits, p=p, rng=rng)
        times = []
        for _ in range(REPETITIONS):
            start = time.perf_counter()
            verdict = verify(cert)
            times.append(time.perf_counter() - start)
            if verdict.outcome is not Outcome.PRIME:
                raise ArithmeticError("generated certificate stopped verifying")
        rows.append(
            BenchRow(
                bits=bits,
                verify_ms=statistics.median(times) * 1000.0,
                n_digits=len(str(cert.N)),
                q_digits=len(str(cert.q)),
            )
        )
    slope = None
    if len(rows) >= 2:
        xs = [math.log(r.bits) for r in rows]
        ys = [math.log(r.verify_ms) for r in rows]
        slope = statistics.linear_regression(xs, ys).slope
    return BenchReport(rows=tuple(rows), slope=slope)
