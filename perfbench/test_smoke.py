"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spec

sys.path.insert(0, str(run.SRC))

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = (
    spec.Workload("verify_tiny_p3", "verify", 3, 48, "smoke"),
    spec.Workload("verify_tiny_p5", "verify", 5, 32, "smoke"),
    spec.Workload("generate_tiny_p3", "generate", p=3, bits=48, why="smoke"),
)


def run_and_print(capsys, workload, trace):
    run.report(run.run_workload(workload, seed=3, seconds=0.2, trace=trace))
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_config_matches_spec():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == spec.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == spec.PER_LAYER_UNITS
    assert [w["name"] for w in CONFIG["workloads"]] == list(spec.WORKLOADS)
    assert set(spec.PREDICTIONS) == set(spec.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    lines, result = run_and_print(capsys, workload, trace)
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for name, unit in printed.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} (n=" in line for line in lines), name
    assert any(line.startswith("error_rate = 0 ") for line in lines)


def test_forced_wrong_verdict_raises_error_rate(capsys, monkeypatch):
    real_import = run.import_program

    def exit_zero_for_everything():
        program = real_import()
        program.cli.exit_code_for = lambda verdict: 0
        return program

    monkeypatch.setattr(run, "import_program", exit_zero_for_everything)
    record = run.run_workload(TINY[0], seed=3, seconds=0.2, trace=False)
    assert record["failed"] >= 1 and record["error_rate"] > 0
    run.report(record)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == record["failed"]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    command = [sys.executable, *CONFIG["command"][1:], "--workload", "verify_p3_384"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
