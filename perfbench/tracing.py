"""Spans around the calls one module of the package makes into another.

Modules import each other's functions by name, so a call is traced by
replacing the name in the module that makes the call (``certify.ring_pow``
is the ``ring_pow`` that ``verify`` and ``phase1_generate`` call).  Spans
are kept in memory as (name, start, end, parent, op id, tag) and reduced
to per-layer metrics when the run ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _pow_tag(args, kwargs, result):
    ctx, e = args[0], args[2]
    if e == ctx.phi_p_n:
        return "filter"
    if e == ctx.N - 1:
        return "project"
    # q > N^(p/2) - 1 >= N while k <= k_max < N
    return "xq" if e.bit_length() > ctx.N.bit_length() else "wk"


def _prp_tag(args, kwargs, result):
    return "n" if kwargs.get("rounds") == 2 else "q"


def _verdict_tag(args, kwargs, result):
    return None if result is None else result.outcome.value


# (module making the call, function name) -> how to tag the span
BINDINGS = {
    ("certify", "generate_certificate"): None,
    ("certify", "verify"): _verdict_tag,
    ("certify", "phase1_generate"): None,
    ("certify", "phase2_cyclotomic"): None,
    ("certify", "ring_pow"): _pow_tag,
    ("certify", "ring_norm"): None,
    ("certify", "classify_unit"): None,
    ("certify", "pth_residue"): None,
    ("certify", "reversed_construct"): None,
    ("certify", "select_base_d"): None,
    ("chain", "is_probable_prime"): _prp_tag,
    ("chain", "cyclotomic_value"): None,
    ("certfile", "cert_decode"): None,
    ("certfile", "cert_encode"): None,
}


class Recorder:
    """Collects spans while an operation is open; otherwise calls pass straight through."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list = []

    def install(self, program) -> None:
        for (module_name, attr), tagger in BINDINGS.items():
            module = getattr(program, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original, tagger))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, tagger):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tag = tagger(args, kwargs, result) if tagger else None
                spans[idx] = (name, start, end, parent, self._op, tag)

        return traced

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one benchmark operation; kind is genuine, tampered or generate."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._op = op_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._op = None
            self._stack.pop()
            self.spans[idx] = ("op", start, end, -1, op_id, kind)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _durations(spans, name, tag=None) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name and (tag is None or s[5] == tag)]


def layer_metrics(spans: list) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from one traced run, and the shares the benchmark checks.

    Verify-path times are medians over verify calls that returned PRIME;
    generation figures are means per certificate.
    """
    dur = [s[2] - s[1] for s in spans]
    pow_children = [0.0] * len(spans)
    direct_children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            direct_children[s[3]] += dur[i]
            if s[0] == "certify.ring_pow":
                pow_children[s[3]] += dur[i]

    def enclosing(i: int, name: str) -> int:
        j = spans[i][3]
        while j >= 0 and spans[j][0] != name:
            j = spans[j][3]
        return j

    ops = {s[4]: (i, s[5]) for i, s in enumerate(spans) if s[0] == "op"}
    # per PRIME verify call: ring_pow time by exponent, pth_residue time, and
    # phase 2 less its exponentiations (the norm, the gcd and X - 1)
    per_verify: dict[int, dict[str, float]] = {
        i: defaultdict(float)
        for i, s in enumerate(spans)
        if s[0] == "certify.verify" and s[5] == "PRIME"
    }
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, _, _, _, op, tag) in enumerate(spans):
        counts = per_op[op]
        counts[name] += 1
        counts[name + ":s"] += dur[i]
        if tag is not None and name != "op":
            counts[f"{name}:{tag}"] += 1
        if name in ("certify.ring_pow", "certify.pth_residue", "certify.phase2_cyclotomic"):
            v = enclosing(i, "certify.verify")
            if v in per_verify:
                key = tag if name == "certify.ring_pow" else name
                per_verify[v][key] += dur[i] - pow_children[i]

    def verify_ms(key):
        return _median([acc[key] for acc in per_verify.values()]) * 1e3

    gen_ops = [per_op[op] for op, (_, kind) in ops.items() if kind == "generate"]
    genuine = [per_op[op] for op, (_, kind) in ops.items() if kind == "genuine"]

    def per_cert(key, scale=1.0):
        return _mean([c[key] for c in gen_ops]) * scale

    candidates = sum(c["chain.is_probable_prime:n"] for c in gen_ops)
    prp_s = sum(c["chain.is_probable_prime:s"] for c in gen_ops)
    op_s = [dur[i] for i, _ in ops.values()]
    metrics = {
        "ring.pow_calls_per_op": _mean([c["certify.ring_pow"] for c in gen_ops or genuine]),
        "certify.filter_ms": verify_ms("filter"),
        "certify.wk_ms": verify_ms("wk"),
        "certify.xq_ms": verify_ms("xq"),
        "certify.norm_gcd_ms": verify_ms("certify.phase2_cyclotomic"),
        "certify.residue_ms": verify_ms("certify.pth_residue"),
        "certify.verify_self_ms": _median([dur[i] - direct_children[i] for i in per_verify]) * 1e3,
        "certify.phase1_ms": per_cert("certify.phase1_generate:s", 1e3),
        "certify.phase1_draws_per_cert": per_cert("certify.classify_unit"),
        "certify.verify_calls_per_cert": per_cert("certify.verify"),
        "chain.construct_s": per_cert("certify.reversed_construct:s"),
        "chain.scan_self_s": per_cert("certify.reversed_construct:s")
        - per_cert("chain.is_probable_prime:s"),
        "chain.candidates_per_cert": per_cert("chain.is_probable_prime:n"),
        "chain.scanned_per_cert": per_cert("chain.cyclotomic_value"),
        "chain.q_tests_per_cert": per_cert("chain.is_probable_prime:q"),
        "chain.accept_ratio": len(gen_ops) / candidates if candidates else 0.0,
        "chain.select_base_ms": per_cert("certify.select_base_d:s", 1e3),
        "numtheory.prp_n_us": _mean(_durations(spans, "chain.is_probable_prime", "n")) * 1e6,
        "numtheory.prp_q_us": _mean(_durations(spans, "chain.is_probable_prime", "q")) * 1e6,
        "numtheory.prp_frac": prp_s / sum(op_s) if gen_ops else 0.0,
        "certfile.decode_us": _median(_durations(spans, "certfile.cert_decode")) * 1e6,
        "certfile.encode_us": _median(_durations(spans, "certfile.cert_encode")) * 1e6,
    }
    shares = {}
    if genuine:
        genuine_ms = _median([dur[i] for i, kind in ops.values() if kind == "genuine"]) * 1e3
        exp_ms = metrics["certify.filter_ms"] + metrics["certify.wk_ms"] + metrics["certify.xq_ms"]
        shares["exponentiation_share_of_genuine_p50"] = exp_ms / genuine_ms
    if gen_ops:
        shares["construct_share_of_mean_generation"] = metrics["chain.construct_s"] / _mean(op_s)
    return metrics, shares
