"""Tests of the benchmark itself, on tiny corpora (``--quick``).

Run as ``PYTHONPATH=src python -m pytest bench -q``; not part of tier-1.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Metrics that are counts, not timings: they repeat exactly for a seed.
EXACT = ("shuffle_bytes.suffix_sigma", "store_bytes_per_record")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


@functools.lru_cache(maxsize=None)
def quick_run(workload: str, seed: int = 42, trace: int = 0, *extra: str, attempt: int = 0):
    """``(exit code, stdout lines)`` of one ``--quick`` run, cached per argument set.

    ``attempt`` only tells two runs with the same arguments apart.
    """
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--quick", *extra,
    ]  # fmt: skip
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=180)
    return finished.returncode, finished.stdout.strip().splitlines()


def result_of(lines):
    return json.loads(lines[-1])


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert CONTRACT["paths"] == ["bench"] and CONTRACT["command"][-1] == "bench/run.py"
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in CONTRACT["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_and_correctness(workload):
    code, lines = quick_run(workload)
    result = result_of(lines)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # The table above the result line names the same metrics, each with its unit.
    printed = {line.split()[0]: line.split()[2] for line in lines if line.split()[0] in expected}
    assert printed == expected
    assert "ops_failed: 0" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_names_and_span_file(workload):
    code, lines = quick_run(workload, 42, 1)
    result = result_of(lines)
    assert code == 0 and result["correct"]
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(NAME.match(name) for name in result["metrics"])
    assert result["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    span_file = os.path.join(BENCH_DIR, "out", f"trace-{workload}.jsonl")
    with open(span_file, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans[0]["name"] == "bench.workload" and spans[0]["parent"] is None
    assert all(span["workload"] == workload and span["end_ns"] >= span["start_ns"] for span in spans)
    assert any(line.startswith("layer ") for line in lines)  # the self-time table


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_for_a_seed_and_move_with_it(workload):
    first = result_of(quick_run(workload)[1])["metrics"]
    again = result_of(quick_run(workload, attempt=1)[1])["metrics"]
    other = result_of(quick_run(workload, 7)[1])["metrics"]
    for name in EXACT:
        assert first[name]["value"] == again[name]["value"]
    assert any(first[name]["value"] != other[name]["value"] for name in EXACT)


def test_wrong_answer_is_a_failed_operation():
    code, lines = quick_run("count_mem", 42, 0, "--corrupt-oracle")
    result = result_of(lines)
    assert code != 0 and not result["correct"] and result["failed"] >= 4
    assert f"ops_failed: {result['failed']}" in lines


def test_leaves_nothing_behind():
    quick_run("count_mem")
    leftovers = [name for name in os.listdir(os.path.join(BENCH_DIR, "out")) if name.startswith("run-")]
    assert leftovers == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    finished = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count_mem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )  # fmt: skip
    assert finished.returncode != 0 and finished.stdout.strip() == ""
