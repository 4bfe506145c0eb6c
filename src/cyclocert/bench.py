"""Verification-cost benchmark.

Generates one certified prime per requested bit size and times the verifier
alone (generation is excluded), taking the median of repeated runs to
suppress scheduler noise.  The runs are interleaved across sizes, so a
change in host speed mid-run slows every size alike.  The report carries
the least-squares slope of log(time) against log(bits), the quantity that
should stay small if verification really costs a constant number of ring
exponentiations.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import NamedTuple, Sequence

from .certify import Certificate, Outcome, Verdict, generate_certificate, verify

# verify runs per certificate; their median suppresses scheduler noise
REPETITIONS = 9


class BenchRow(NamedTuple):
    bits: int
    verify_ms: float
    n_digits: int
    q_digits: int


class BenchReport(NamedTuple):
    """Rows sorted by bits; slope is None when fewer than two sizes ran."""

    rows: tuple[BenchRow, ...]
    slope: float | None


def time_verify(certs: Sequence[Certificate]) -> list[tuple[Verdict, float]]:
    """Each certificate's verdict and median verify time in ms over REPETITIONS rounds.

    A round verifies every certificate once, in order, so a change in host
    speed during the run falls on all of them alike.
    """
    times: list[list[float]] = [[] for _ in certs]
    for _ in range(REPETITIONS):
        verdicts = []
        for cert, samples in zip(certs, times):
            start = time.perf_counter()
            verdicts.append(verify(cert))
            samples.append(time.perf_counter() - start)
    return [(v, statistics.median(t) * 1000.0) for v, t in zip(verdicts, times)]


def run_bench(bit_sizes: Sequence[int], p: int = 3, rng_seed: int = 0) -> BenchReport:
    """One certificate per ascending bit size, generated first, then timed by time_verify."""
    sizes = list(bit_sizes)
    if sizes != sorted(set(sizes)):
        raise ValueError("bit sizes must be strictly ascending")
    if any(b < 32 for b in sizes):
        raise ValueError("bit sizes must be at least 32")
    rng = random.Random(rng_seed)
    certs = [generate_certificate(bits, p=p, rng=rng) for bits in sizes]
    rows = []
    for bits, cert, (verdict, ms) in zip(sizes, certs, time_verify(certs)):
        if verdict.outcome is not Outcome.PRIME:
            raise ArithmeticError("generated certificate stopped verifying")
        rows.append(
            BenchRow(bits=bits, verify_ms=ms, n_digits=len(str(cert.N)), q_digits=len(str(cert.q)))
        )
    slope = None
    if len(rows) >= 2:
        xs = [math.log(r.bits) for r in rows]
        ys = [math.log(r.verify_ms) for r in rows]
        slope = statistics.linear_regression(xs, ys).slope
    return BenchReport(rows=tuple(rows), slope=slope)
