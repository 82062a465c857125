"""Run the benchmark against itself: do two sets of runs of one checkout agree?

For each workload, set A and then set B run the benchmark once per seed.
For every workload x end-to-end metric the report gives both medians, the
spread of each set (distance between its first and third quartile as a share
of its median) and how much worse B's median is than A's.  The check fails
when a spread (other than that of ``setup_s``) or a worsening exceeds the
metric's bound in ``BENCHMARK.json`` - the rule the acceptance driver uses.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, List


#: Ten runs per set, each with another seed: the acceptance driver's rule.
SELFCHECK_SEEDS = range(1, 11)


def _spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(arguments: Any, contract: Dict[str, Any], spawn: Callable[..., Any], report_path: str) -> int:
    """Run both sets, print and save the report; returns the exit code."""
    workloads = [workload["name"] for workload in contract["workloads"]]
    if arguments.workload:
        workloads = [arguments.workload]
    # values[set][workload][metric] -> one value per seed
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    wall: List[float] = []
    problems = 0
    for label in ("A", "B"):
        values[label] = {name: {} for name in workloads}
        for name in workloads:
            for seed in SELFCHECK_SEEDS:
                started = time.perf_counter()
                finished = spawn(name, seed, arguments, capture=True)
                wall.append(time.perf_counter() - started)
                result = json.loads(finished.stdout.strip().splitlines()[-1])
                if finished.returncode != 0 or not result["correct"]:
                    problems += 1
                for metric, entry in result["metrics"].items():
                    values[label][name].setdefault(metric, []).append(entry["value"])
                print(f"set {label} {name} seed {seed}: {wall[-1]:.1f} s", file=sys.stderr)

    lines = [
        f"selfcheck: {len(SELFCHECK_SEEDS)} seeds x 2 sets, --seconds {arguments.seconds:g}; "
        f"wall per run median {statistics.median(wall):.1f} s, max {max(wall):.1f} s",
        f"{'workload':<12} {'metric':<28} {'median A':>12} {'median B':>12} "
        f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}  verdict",
    ]
    for name in workloads:
        for metric in contract["end_to_end"]:
            a = values["A"][name][metric["name"]]
            b = values["B"][name][metric["name"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spread_a, spread_b = _spread(a), _spread(b)
            bound = metric["bound"]
            ok = worse <= bound and (
                metric["name"] == "setup_s" or max(spread_a, spread_b) <= bound
            )
            steady = ok and max(spread_a, spread_b) <= bound / 3
            verdict = "ok" if steady else "ok (spread over a third of the bound)" if ok else "FAIL"
            problems += 0 if ok else 1
            lines.append(
                f"{name:<12} {metric['name']:<28} {median_a:>12.6g} {median_b:>12.6g} "
                f"{spread_a:>9.2%} {spread_b:>9.2%} {worse:>+8.2%} {bound:>6.0%}  {verdict}"
            )
    lines.append(f"selfcheck: {'PASS' if problems == 0 else f'FAIL ({problems} problems)'}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(report)
    return 0 if problems == 0 else 1
