"""Check the output of a benchmark smoke run.

Usage: python3 .github/check_bench_metrics.py OUTPUT KIND

OUTPUT holds what ``bench/run.py --workload all`` printed; its result rows
are the lines that start with "{". KIND is ``end_to_end`` or ``per_layer``,
the BENCHMARK.json list whose metric names each row must carry. Exits 0 when
there is one row per workload that BENCHMARK.json declares, and each is
correct and carries exactly those metrics, 1 otherwise. Run from the
repository root.
"""

import json
import sys


def main(output: str, kind: str) -> int:
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    declared = {metric["name"] for metric in benchmark[kind]}
    with open(output) as f:
        rows = [json.loads(line) for line in f if line.startswith("{")]
    ok = len(rows) == len(benchmark["workloads"]) and all(
        row["correct"] is True and set(row["metrics"]) == declared for row in rows
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
