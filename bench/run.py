"""Run one benchmark workload and print every metric by name.

``python3 bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]``
measures one workload in this process, checks every answer, prints a table
and ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--trace 0`` (the default) measures the end-to-end metrics
with tracing off; ``--trace 1`` runs the traced pass and the layer probes
and reports the per-layer metrics.  ``--all`` runs the four workloads in
turn, ``--selfcheck`` runs two sets of ten seeds per workload and compares
them the way the acceptance driver does.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEFAULT_SEED = 42


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_arguments(contract: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true", help="tiny corpora and one round, for the tests"
    )
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--selfcheck", action="store_true", help="two sets of runs, compared")
    parser.add_argument(
        "--corrupt-oracle",
        action="store_true",
        help="falsify one expected answer, to show that a wrong answer is reported",
    )
    arguments = parser.parse_args()
    if not (arguments.workload or arguments.all or arguments.selfcheck):
        parser.error("one of --workload, --all, --selfcheck is required")
    return arguments


def run_workload(arguments: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Measure one workload in this process; returns the exit code."""
    # The script directory would shadow the standard library's ``trace``.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from bench import layers, pipeline
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[arguments.workload]
    if arguments.quick:
        workload = workload.quick()
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # Nothing the run or its servers create may land outside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = run_dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if arguments.trace:
            metrics, checker, info = layers.run_traced(
                workload, arguments.seed, arguments.seconds, run_dir, OUT_DIR
            )
            reported = [metric["name"] for metric in contract["per_layer"]]
        else:
            metrics, checker, info = pipeline.run_end_to_end(
                workload,
                arguments.seed,
                arguments.seconds,
                run_dir,
                min_rounds=1 if arguments.quick else pipeline.MIN_ROUNDS,
                corrupt_oracle=arguments.corrupt_oracle,
            )
            reported = [metric["name"] for metric in contract["end_to_end"]]
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload: {workload.name}  seed: {arguments.seed}  seconds: {arguments.seconds:g}")
    for key, value in info.items():
        if isinstance(value, str) and "\n" in value:
            print(f"{key}:\n{value}")
        else:
            print(f"{key}: {json.dumps(value)}")
    for metric in metrics.by_name.values():
        print(metric.describe())
    print(f"ops_attempted: {checker.attempted}")
    print(f"ops_failed: {checker.failed}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics.as_json(reported),
            }
        )
    )
    return 0 if checker.failed == 0 else 1


def spawn(workload: str, seed: int, arguments: argparse.Namespace, capture: bool) -> Any:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(arguments.seconds), "--trace", str(arguments.trace),
    ]  # fmt: skip
    if arguments.quick:
        command.append("--quick")
    return subprocess.run(command, stdout=subprocess.PIPE if capture else None, text=True)


def run_all(arguments: argparse.Namespace, contract: Dict[str, Any]) -> int:
    codes = [
        spawn(workload["name"], arguments.seed, arguments, capture=False).returncode
        for workload in contract["workloads"]
    ]
    return max(codes)


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro beside {BENCH_DIR}: nothing to benchmark", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so partitioning and every byte and record
        # count repeat exactly for a seed.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    contract = load_contract()
    arguments = parse_arguments(contract)
    if arguments.selfcheck:
        sys.path[0] = ROOT
        from bench.selfcheck import selfcheck

        return selfcheck(arguments, contract, spawn, os.path.join(OUT_DIR, "selfcheck.txt"))
    if arguments.all:
        return run_all(arguments, contract)
    return run_workload(arguments, contract)


if __name__ == "__main__":
    sys.exit(main())
