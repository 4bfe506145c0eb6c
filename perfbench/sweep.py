#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/sweep.py --out perfbench/trajectory/<commit>.json

Each workload of BENCHMARK.json runs for its ``run_seconds`` at seeds 1 to
10, and once traced at seed 1.  For each end-to-end metric it prints the
median of the runs and the spread, (Q3 - Q1) / median as
``statistics.quantiles(n=4)`` gives the quartiles, next to the metric's
bound, and with ``--against`` how far the median moved from an earlier set.
``--out`` writes every run's metrics, the quartiles of every printed
figure and the traced run's per-layer metrics, one file per measured commit
(a repeated set of the same commit gets a ``.repeat`` suffix), so the files
in ``perfbench/trajectory/`` form the trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACE_SEEDS = (1,)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    done.check_returncode()
    lines = done.stdout.strip().splitlines()
    record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every run's values to this JSON file")
    parser.add_argument("--against", help="an earlier --out file of the same code to compare with")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    seconds = CONFIG["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in CONFIG["workloads"]):
        runs, traced, records, traced_records = [], [], [], []
        for seed in SEEDS:
            result, record = run_once(workload, seed, seconds, 0)
            runs.append(result)
            records.append(record)
            status = f"correct={result['correct']} failed={result['failed']}"
            print(f"{workload} seed {seed}: {status}", flush=True)
        for seed in TRACE_SEEDS:
            result, record = run_once(workload, seed, seconds, 1)
            traced.append(result)
            traced_records.append(record)
            print(f"{workload} traced seed {seed}: shares {record['shares']}", flush=True)
        entry = {
            "seeds": list(SEEDS),
            "trace_seeds": list(TRACE_SEEDS),
            "correct": all(r["correct"] for r in runs + traced),
            "error_rate": [r["failed"] / r["attempted"] for r in runs],
            "distinct_n": [rec["distinct_n"] for rec in records],
            "forged_prime": [rec["forged_prime"] for rec in records],
            "environment": records[0]["environment"],
            "end_to_end": {},
            "figures": {},
            "per_layer": {},
            "shares": [rec["shares"] for rec in traced_records],
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            flag = ""
            if share >= bound / 3:
                flag = " ABOVE BOUND" if share >= bound else " above bound/3"
            print(f"  {name:14s} median {median:12.6g} spread {share:.3f} bound {bound}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
            entry["end_to_end"][name] = {
                "values": values, "median": median, "q1": q1, "q3": q3, "spread": share
            }
            if earlier:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                change = median / before - 1
                flag = " BEYOND BOUND" if abs(change) > bound else ""
                print(f"    median {change:+.3f} against the earlier set{flag}")
        for name, (_, unit, _) in records[0]["figures"].items():
            values = [rec["figures"][name][0] for rec in records]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["figures"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
        for name in (m["name"] for m in CONFIG["per_layer"]):
            values = [r["metrics"][name]["value"] for r in traced]
            entry["per_layer"][name] = {"values": values, "median": statistics.median(values)}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
