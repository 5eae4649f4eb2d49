#!/usr/bin/env python3
"""Record the oracle's reference outputs from the current tailfence sources.

    python3 bench/record_reference.py

Writes ``bench/reference/<workload>.json``. Run it only to re-base the
benchmark on purpose (a deliberate, announced output change); a pass whose
output differs from these files counts as failed.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import sys
from contextlib import redirect_stdout

from oracle import sha256_file
from workloads import BENCH_DIR, CHARS_SPECS, REFERENCE_DIR, WORKLOADS

SEED_POOL = 32  # study seeds with a recorded reference, per study workload


def _run(cli, argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"tailfence {' '.join(argv[:3])} ... exited with {code}")


def record_study(cli, name: str, workdir) -> dict:
    workload = WORKLOADS[name]
    seeds = random.Random(f"reference seeds/{name}").sample(range(1, 2**31), SEED_POOL)
    expected = {}
    for seed in seeds:
        shutil.rmtree(workdir, ignore_errors=True)
        _run(cli, [*workload.study_args, "--seed", str(seed), "--out", str(workdir)])
        entry = {}
        for output in workload.outputs:
            path = workdir / output
            # t(4) goes through the bisection quantile: keep its values for a
            # tolerance check; everything else must match byte for byte.
            if name == "study_n_t4" and output.endswith(".csv"):
                entry[output] = {"text": path.read_text()}
            else:
                entry[output] = {"sha256": sha256_file(path)}
        expected[str(seed)] = entry
    return {"argv": list(workload.study_args), "seeds": seeds, "expected": expected}


def record_chars(cli, workdir) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    argv = ["chars"]
    for spec in CHARS_SPECS:
        argv += ["--dist", spec]
    _run(cli, argv + ["--out", str(workdir / "chars.csv")])
    rows = list(csv.reader(io.StringIO((workdir / "chars.csv").read_text())))
    return {"header": rows[0], "rows": dict(zip(CHARS_SPECS, rows[1:]))}


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import tailfence.cli as cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = BENCH_DIR / "out" / "record"
    try:
        for name in WORKLOADS:
            if WORKLOADS[name].is_study:
                reference = record_study(cli, name, workdir)
            else:
                reference = record_chars(cli, workdir)
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
