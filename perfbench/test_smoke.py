"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert "provenance" in json.loads(out[-2])
    res = json.loads(out[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], out[-2]
    assert res["attempted"] >= 1 and res["failed"] == 0
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    res = result(capsys, workload, trace=0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_self_times_account_for_the_traced_wall_time(capsys, workload):
    res = result(capsys, workload, trace=1)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {name: v["value"] for name, v in res["metrics"].items()}
    wall, bookkeeping = m["traced_wall_s"], m["span_bookkeeping_s"]
    self_s = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    slack = 0.01 * wall + 0.005
    assert abs(wall - self_s - bookkeeping) <= slack
    # bookkeeping is the part of the tracing overhead the spans time
    # themselves; the measured overhead (traced minus untraced pass) adds
    # the cost of the extra calls and run-to-run noise
    if workload == "gate":
        checks = sum(m[f"verify.check_{i:02d}_s"] for i in range(1, 16))
        assert abs(checks - wall) <= bookkeeping + slack


def test_work_counters_repeat_exactly(capsys):
    counts = [
        {n: v["value"] for n, v in result(capsys, "horizon", trace=1)["metrics"].items() if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["measure.dp_state_steps"] > 0 and counts[0]["markov.symbols_sampled"] > 0


def test_runs_of_a_seed_attempt_the_same_operations(capsys):
    # the number of blocks is fixed by the workload and --seconds, never
    # by the machine's speed, so repeated runs fail the same operations
    runs = [result(capsys, "exact-deep", trace=0) for _ in range(2)]
    assert [(r["attempted"], r["failed"]) for r in runs] == [(runs[0]["attempted"], runs[0]["failed"])] * 2
    assert runs[0]["attempted"] == 20 * workloads.block_count("exact-deep", 1)


@pytest.mark.parametrize("workload", ("horizon", "exact-deep"))
def test_inputs_follow_the_seed(workload):
    def take(seed):
        return [q for block in itertools.islice(workloads.stream(workload, seed), 3) for q in block]

    assert [q.argv for q in take(5)] == [q.argv for q in take(5)]
    assert [q.argv for q in take(5)] != [q.argv for q in take(6)]
    # stratified blocks: another seed gives other inputs but the same mix
    assert Counter(q.kind for q in take(5)) == Counter(q.kind for q in take(6))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
