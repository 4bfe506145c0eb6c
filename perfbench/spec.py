"""Workloads, metric names and units, and what each layer metric predicts.

The end-to-end names are shared by every workload so that each run reports
the same set; the predictions name the per-kind figures each run prints.
"""

from __future__ import annotations

from dataclasses import dataclass


# Verify workloads draw from DISTINCT_N certificates, each given
# EXTRA_ELEMENTS more unitary elements, and tamper with every
# TAMPER_EVERY-th op.
DISTINCT_N = 4
EXTRA_ELEMENTS = 3
TAMPER_EVERY = 4


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    ``kind`` is "verify" (certificate text -> cert_decode -> verify) or
    "generate" (generate_certificate -> cert_encode).
    """

    name: str
    kind: str
    p: int
    bits: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_p3_384",
            "verify",
            p=3,
            bits=384,
            why=(
                "ring_pow is about 98% of a genuine op, split between w^Phi and X^q, and no "
                "primality test runs: it shows ring and certify changes and not chain or numtheory."
            ),
        ),
        Workload(
            "verify_p5_128",
            "verify",
            p=5,
            bits=128,
            why=(
                "25-term products on small operands, where interpreter overhead dominates, and "
                "norms through Sylvester/Bareiss: a kernel tuned for p = 3 that slows general p "
                "shows here."
            ),
        ),
        Workload(
            "generate_p3_192",
            "generate",
            p=3,
            bits=192,
            why=(
                "reversed_construct is most of the time, spent on tests of N and q and the "
                "cofactor scan: it shows sieving and cofactor changes and little of ring changes."
            ),
        ),
    )
}

# The BENCHMARK.json end-to-end metrics, under names shared by every
# workload: an op is a genuine verification or one generation, and a reject
# is a tampered verification.  Each run also prints the same figures under
# the names of its kind (verify_per_s, verify_ms_p50, gen_per_min, ...).
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "reject_ms_p50": "ms",
    "reject_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ring.mul_us": "us",
    "ring.sqr_us": "us",
    "ring.pow_ns_per_bit": "ns/bit",
    "ring.pow_floor_ratio": "ratio",
    "ring.pow_calls_per_op": "count",
    "ring.norm_us": "us",
    "certify.filter_ms": "ms",
    "certify.wk_ms": "ms",
    "certify.xq_ms": "ms",
    "certify.norm_gcd_ms": "ms",
    "certify.residue_ms": "ms",
    "certify.verify_self_ms": "ms",
    "certify.phase1_ms": "ms",
    "certify.phase1_draws_per_cert": "count",
    "certify.verify_calls_per_cert": "count",
    "certify.forged_prime": "count",
    "chain.construct_s": "s",
    "chain.scan_self_s": "s",
    "chain.candidates_per_cert": "count",
    "chain.scanned_per_cert": "count",
    "chain.q_tests_per_cert": "count",
    "chain.accept_ratio": "ratio",
    "chain.select_base_ms": "ms",
    "numtheory.prp_n_us": "us",
    "numtheory.prp_q_us": "us",
    "numtheory.prp_frac": "ratio",
    "certfile.decode_us": "us",
    "certfile.encode_us": "us",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
}

VERIFY = ("verify_p3_384", "verify_p5_128")
GENERATE = ("generate_p3_192",)
_VERIFY_TIMES = ("verify_per_s", "verify_ms_p50", "verify_ms_p90")
_GEN_TIMES = ("gen_per_min", "gen_s_p50", "gen_s_p90")

# For each layer metric: the end-to-end metrics it should move, on which
# workloads, and the workloads where the prediction is no resolvable change.
PREDICTIONS = {
    **{
        m: {"moves": _VERIFY_TIMES + ("reject_ms_p50",), "on": VERIFY, "flat_on": GENERATE}
        for m in (
            "ring.mul_us",
            "ring.sqr_us",
            "ring.pow_ns_per_bit",
            "ring.pow_floor_ratio",
            "ring.pow_calls_per_op",
        )
    },
    "ring.norm_us": {
        "moves": _VERIFY_TIMES,
        "on": ("verify_p5_128",),
        "flat_on": ("verify_p3_384",),
    },
    **{
        m: {"moves": ("verify_ms_p50",), "on": VERIFY, "flat_on": GENERATE}
        for m in ("certify.filter_ms", "certify.wk_ms", "certify.xq_ms")
    },
    **{
        m: {"moves": ("verify_ms_p50",), "on": VERIFY, "flat_on": GENERATE}
        for m in ("certify.norm_gcd_ms", "certify.residue_ms", "certify.verify_self_ms")
    },
    **{
        m: {"moves": ("gen_s_p50",), "on": GENERATE, "flat_on": VERIFY}
        for m in (
            "certify.phase1_ms",
            "certify.phase1_draws_per_cert",
            "certify.verify_calls_per_cert",
        )
    },
    "certify.forged_prime": {"moves": (), "on": (), "flat_on": VERIFY + GENERATE},
    **{
        m: {"moves": _GEN_TIMES, "on": GENERATE, "flat_on": VERIFY}
        for m in (
            "chain.construct_s",
            "chain.scan_self_s",
            "chain.candidates_per_cert",
            "chain.scanned_per_cert",
            "chain.q_tests_per_cert",
            "chain.accept_ratio",
            "chain.select_base_ms",
        )
    },
    **{
        m: {"moves": ("gen_per_min",), "on": GENERATE, "flat_on": VERIFY}
        for m in ("numtheory.prp_n_us", "numtheory.prp_q_us", "numtheory.prp_frac")
    },
    "certfile.decode_us": {"moves": (), "on": (), "flat_on": VERIFY},
    "certfile.encode_us": {"moves": (), "on": (), "flat_on": GENERATE},
    "cli.import_ms": {"moves": ("setup_s",), "on": VERIFY + GENERATE, "flat_on": ()},
    "trace.overhead_pct": {"moves": (), "on": (), "flat_on": VERIFY + GENERATE},
}
