#!/usr/bin/env python3
"""Benchmark for issuing and verifying cyclotomic ring certificates.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload verify_p3_384 --seed 1 --seconds 35 --trace 0

One process runs one workload (see ``spec.WORKLOADS``) single-threaded in a
closed loop with one client: the next operation starts when the previous
one has returned.  Inputs come from ``--seed`` alone.  Every output is
checked by ``oracle``, which does not use the package.

``--trace 0`` prints the end-to-end metrics; no certificate text repeats
within such a run, so a verdict cache cannot win.  ``--trace 1`` runs each
input twice, untraced and then with spans recorded around the calls
between modules (``tracing``), and prints the per-layer metrics with the
tracing overhead, traced minus untraced.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import oracle
import spec
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("ring", "numtheory", "chain", "certify", "certfile", "cli")
SETUP_ROUNDS = 21
MIN_OPS = 8


def import_program() -> SimpleNamespace:
    """Import the package afresh from SRC, dropping earlier module objects and their caches."""
    for name in [m for m in sys.modules if m == "cyclocert" or m.startswith("cyclocert.")]:
        del sys.modules[name]
    package = importlib.import_module("cyclocert")
    if Path(package.__file__).resolve().parent != (SRC / "cyclocert").resolve():
        raise ImportError(f"cyclocert came from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"cyclocert.{m}") for m in MODULES})


def setup_once() -> tuple[float, SimpleNamespace]:
    """Seconds to import the package and take one small certificate through every module."""
    start = time.perf_counter()
    program = import_program()
    cert = program.certfile.cert_decode(oracle.FORGED_TEXT)
    program.certify.verify(cert)
    program.certfile.cert_encode(cert)
    return time.perf_counter() - start, program


@dataclasses.dataclass(frozen=True)
class Base:
    """One certified N with the unitary elements known to verify PRIME for it."""

    p: int
    d: int
    N: int
    q: int
    k: int
    elements: tuple[tuple[int, ...], ...]


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    op_s: list = dataclasses.field(default_factory=list)
    reject_s: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    first: dict | None = None  # fields of the first generated certificate

    def busy_s(self, kind: str) -> float:
        return sum(self.op_s) + (sum(self.reject_s) if kind == "verify" else 0.0)

    def done(self, kind: str) -> int:
        return len(self.op_s) + (len(self.reject_s) if kind == "verify" else 0)


def verify_corpus(program, workload, rng, tally) -> list[Base]:
    """Certificates from generate_certificate, each given phase-1 elements that verify PRIME."""
    certify = program.certify
    bases: list[Base] = []
    while len(bases) < spec.DISTINCT_N:
        cert = certify.generate_certificate(workload.bits, p=workload.p, rng=rng)
        if any(b.N == cert.N for b in bases):
            continue
        tally.problems += oracle.field_problems(cert.p, cert.N, cert.q, cert.k)
        ctx = program.ring.make_context(cert.N, cert.p, cert.d)
        elements = [cert.w.coeffs]
        for _ in range(8 * spec.EXTRA_ELEMENTS):
            if len(elements) > spec.EXTRA_ELEMENTS:
                break
            found = certify.phase1_generate(ctx, rng)
            if found.status is not certify.Phase1Status.ELEMENT:
                continue
            verdict = certify.verify(dataclasses.replace(cert, w=found.w))
            if verdict.outcome is certify.Outcome.PRIME:
                elements.append(found.w.coeffs)
        if len(elements) <= spec.EXTRA_ELEMENTS:
            tally.problems.append(f"too few unitary elements verify PRIME for N = {cert.N}")
        bases.append(Base(cert.p, cert.d, cert.N, cert.q, cert.k, tuple(elements)))
    return bases


def verify_inputs(bases, rng):
    """Endless (certificate text, tampered) pairs; no text repeats.

    Each op multiplies one N's running product by one of its verified
    elements.  Products of elements with w^Phi = 1 keep that property, and
    X = w^k stays of order q unless the discrete logs cancel mod q, so the
    genuine texts verify PRIME.  A tampered copy changes one coefficient.
    """
    current = [b.elements[0] for b in bases]
    for i in itertools.count():
        j = rng.randrange(len(bases))
        b = bases[j]
        current[j] = oracle.ring_mul(b.p, b.d, b.N, current[j], rng.choice(b.elements))
        tampered = i % spec.TAMPER_EVERY == spec.TAMPER_EVERY - 1
        w = oracle.tamper(current[j], b.N, rng) if tampered else current[j]
        yield oracle.cert_text(b.p, b.d, b.N, b.q, b.k, w), tampered


def run_verify_op(program, item, tally, recorder, op_id) -> None:
    text, tampered = item
    kind = "tampered" if tampered else "genuine"
    with recorder.operation(op_id, kind) if recorder else nullcontext():
        start = time.perf_counter()
        verdict = program.certify.verify(program.certfile.cert_decode(text))
        elapsed = time.perf_counter() - start
    expected = oracle.EXIT_REJECT if tampered else oracle.EXIT_PRIME
    (tally.reject_s if tampered else tally.op_s).append(elapsed)
    if program.cli.exit_code_for(verdict) != expected:
        raise AssertionError(f"verdict {verdict} where exit code {expected} was due")


def run_generate_op(program, workload, seed, tally, recorder, op_id) -> dict:
    with recorder.operation(op_id, "generate") if recorder else nullcontext():
        start = time.perf_counter()
        rng = random.Random(seed)
        cert = program.certify.generate_certificate(workload.bits, p=workload.p, rng=rng)
        text = program.certfile.cert_encode(cert)
        elapsed = time.perf_counter() - start
    tally.op_s.append(elapsed)
    fields = oracle.parse_fields(text)
    problems = oracle.field_problems(fields["p"], fields["N"], fields["q"], fields["k"])
    decode, verify = program.certfile.cert_decode, program.certify.verify
    exit_code = program.cli.exit_code_for
    if exit_code(verify(decode(text))) != oracle.EXIT_PRIME:
        problems.append("generated certificate does not verify PRIME")
    w = oracle.tamper(oracle.coefficients(fields), fields["N"], random.Random(seed))
    tampered = oracle.cert_text(fields["p"], fields["d"], fields["N"], fields["q"], fields["k"], w)
    start = time.perf_counter()
    verdict = verify(decode(tampered))
    tally.reject_s.append(time.perf_counter() - start)
    if exit_code(verdict) != oracle.EXIT_REJECT:
        problems.append(f"tampered certificate gave {verdict}")
    if problems:
        raise AssertionError("; ".join(problems))
    return fields


def run_op(program, workload, item, tally, op_id, recorder=None) -> None:
    """One op, counted in tally; every failure of the program counts and the loop goes on."""
    tally.attempted += 1
    if recorder:
        recorder.install(program)
    try:
        if workload.kind == "verify":
            run_verify_op(program, item, tally, recorder, op_id)
        else:
            fields = run_generate_op(program, workload, item, tally, recorder, op_id)
            tally.first = tally.first or fields
    except Exception as exc:
        tally.failed += 1
        if len(tally.problems) < 5:
            tally.problems.append(f"op {op_id}: {type(exc).__name__}: {exc}")
    finally:
        if recorder:
            recorder.uninstall()


def measure(program, workload, inputs, tally, deadline, setups=None, traced=None, recorder=None):
    """Closed loop over inputs until the deadline, and for at least MIN_OPS ops.

    With a ``setups`` list, SETUP_ROUNDS setup rounds are spread evenly over
    the time to the deadline, the first before any op, so that their median
    sees the same machine as the ops do; each round re-imports the program.
    With a ``traced`` tally, each input runs untraced and then again under
    the recorder, so that the two times of a pair see the same machine.
    Returns the program as last imported.
    """
    start = time.perf_counter()
    setup_gap = (deadline - start) / SETUP_ROUNDS
    for op_id, item in enumerate(inputs):
        now = time.perf_counter()
        if op_id >= MIN_OPS and now >= deadline:
            break
        due = setups is not None and len(setups) < SETUP_ROUNDS
        if due and now >= start + len(setups) * setup_gap:
            elapsed, program = setup_once()
            setups.append(elapsed)
        run_op(program, workload, item, tally, op_id)
        if traced is not None:
            run_op(program, workload, item, traced, op_id, recorder)
    while setups is not None and len(setups) < SETUP_ROUNDS:
        setups.append(setup_once()[0])
    return program


def per_call_s(fn) -> float:
    """Median seconds per call over five batches of about 20 ms each."""
    start = time.perf_counter()
    fn()
    reps = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times)


def ring_micro(program, base: Base, rng) -> dict[str, float]:
    """Direct ring calls at the workload's N, p and d; the floor is built-in pow on a scalar."""
    ring = program.ring
    ctx = ring.make_context(base.N, base.p, base.d)
    a = ring.element(ctx, [rng.randrange(base.N) for _ in range(base.p)])
    b = ring.element(ctx, [rng.randrange(base.N) for _ in range(base.p)])
    w = ring.RingElement(base.elements[0])
    scalar = rng.randrange(2, base.N)
    pow_s = per_call_s(lambda: ring.ring_pow(ctx, w, base.q))
    return {
        "ring.mul_us": per_call_s(lambda: ring.ring_mul(ctx, a, b)) * 1e6,
        "ring.sqr_us": per_call_s(lambda: ring.ring_mul(ctx, a, a)) * 1e6,
        "ring.norm_us": per_call_s(lambda: ring.ring_norm(ctx, a)) * 1e6,
        "ring.pow_ns_per_bit": pow_s / base.q.bit_length() * 1e9,
        "ring.pow_floor_ratio": pow_s / per_call_s(lambda: pow(scalar, base.q, base.N)),
    }


def _quantile(values, fraction: float) -> float:
    """The fraction-quantile of values, 0.0 when there are none (every op failed)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def end_to_end(workload, tally, setup_times) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end figure of the run by name: value, unit and sample count.

    Holds the BENCHMARK.json metrics and the same figures under the names a
    reader of this kind of workload uses; for verify, throughput is over the
    whole mix.
    """
    op, rej = tally.op_s, tally.reject_s
    done = tally.done(workload.kind)
    per_s = done / max(tally.busy_s(workload.kind), 1e-9)
    figures = {
        "ops_per_s": (per_s, "1/s", done),
        "op_ms_p50": (_quantile(op, 0.5) * 1e3, "ms", len(op)),
        "op_ms_p90": (_quantile(op, 0.9) * 1e3, "ms", len(op)),
        "reject_ms_p50": (_quantile(rej, 0.5) * 1e3, "ms", len(rej)),
        "reject_ms_p90": (_quantile(rej, 0.9) * 1e3, "ms", len(rej)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    if workload.kind == "verify":
        figures["verify_per_s"] = figures["ops_per_s"]
        figures["verify_ms_p50"] = figures["op_ms_p50"]
        figures["verify_ms_p90"] = figures["op_ms_p90"]
    else:
        figures["gen_per_min"] = (per_s * 60, "1/min", done)
        figures["gen_s_p50"] = (_quantile(op, 0.5), "s", len(op))
        figures["gen_s_p90"] = (_quantile(op, 0.9), "s", len(op))
    figures["error_rate"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return figures


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "commit": _commit(),
    }


def forged_prime(program) -> int:
    """1 when the forged certificate verifies PRIME through text -> cert_decode -> verify."""
    verdict = program.certify.verify(program.certfile.cert_decode(oracle.FORGED_TEXT))
    return int(program.cli.exit_code_for(verdict) == oracle.EXIT_PRIME)


def run_workload(workload: spec.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its record.

    ``figures`` maps every printed name to (value, unit, samples);
    ``metrics`` lists the names that go into the result object.
    """
    start = time.perf_counter()
    program = import_program()
    import_ms = (time.perf_counter() - start) * 1e3

    rng = random.Random(f"{workload.name}:{seed}")
    tally = Tally()
    corpus_start = time.perf_counter()
    if workload.kind == "verify":
        bases = verify_corpus(program, workload, rng, tally)
        inputs = verify_inputs(bases, rng)
    else:
        bases = []
        inputs = (rng.getrandbits(64) for _ in itertools.count())
    corpus_s = time.perf_counter() - corpus_start

    setup_times: list[float] = []
    begin = time.perf_counter()
    if not trace:
        program = measure(program, workload, inputs, tally, begin + seconds, setups=setup_times)
        forged = forged_prime(program)
        figures = end_to_end(workload, tally, setup_times)
        units = spec.END_TO_END_UNITS
        shares = {}
    else:
        _, program = setup_once()  # drops whatever the corpus left in the program's modules
        traced = Tally()
        recorder = tracing.Recorder()
        measure(program, workload, inputs, tally, begin + seconds, traced=traced, recorder=recorder)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems
        values, shares = tracing.layer_metrics(recorder.spans)
        if not bases:
            f = tally.first
            bases = [Base(f["p"], f["d"], f["N"], f["q"], f["k"], (oracle.coefficients(f),))]
        values.update(ring_micro(program, bases[0], rng))
        values["cli.import_ms"] = import_ms
        overhead = traced.busy_s(workload.kind) / tally.busy_s(workload.kind) - 1
        values["trace.overhead_pct"] = overhead * 100
        values["certify.forged_prime"] = forged = forged_prime(program)
        units = spec.PER_LAYER_UNITS
        samples = traced.done(workload.kind)
        figures = {name: (values[name], unit, samples) for name, unit in units.items()}
    return {
        "workload": workload.name,
        "why": workload.why,
        "trace": trace,
        "environment": environment(seed),
        "distinct_n": len(bases) if workload.kind == "verify" else None,
        "corpus_s": corpus_s,
        "measured_s": time.perf_counter() - begin,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        "forged_prime": forged,
        "shares": shares,
        "figures": figures,
        "metrics": list(units),
    }


def report(record: dict) -> None:
    """Human-readable lines, a JSON record line, then the result object as the last line."""
    print(f"workload {record['workload']} seed {record['environment']['seed']}: {record['why']}")
    if record["distinct_n"] is not None:
        print(f"corpus: {record['distinct_n']} distinct N, built in {record['corpus_s']:.2f} s")
    for name, (value, unit, samples) in record["figures"].items():
        note = " (fewer than 100 samples)" if "p90" in name and samples < 100 else ""
        print(f"{name} = {value:.6g} {unit} (n={samples}){note}")
    if record["trace"]:
        print(f"error_rate = {record['error_rate']:.6g} ratio (n={record['attempted']})")
    else:
        print(f"certify.forged_prime = {record['forged_prime']} count")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    extra = {"predictions": spec.PREDICTIONS} if record["trace"] else {}
    print("record " + json.dumps({**record, **extra}))
    result = {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["figures"][name][0], "unit": record["figures"][name][1]}
            for name in record["metrics"]
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclocert" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'cyclocert'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_workload(spec.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
