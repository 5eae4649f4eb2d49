"""Output oracle: is the output of one pass the recorded reference output?

- ``study_k_pareto``: the CSV and manifest bytes must be identical (sha256).
  Its inverse transform is closed form, so its bytes must not change.
- ``study_n_t4``: every number within ``RTOL`` (relative) of the reference,
  ``valid_fraction`` and the text columns exactly, manifest bytes identical.
- ``chars_grid``: every number within ``RTOL`` of the reference row of its
  spec, rows in the order the specs were given.

RTOL admits last-bit changes of the bisection quantiles: the recorded values
agree with scipy.stats to better than 2e-11 relative (the CSVs print 12
significant digits), so an exact replacement of the bisection still passes,
while any change of logic moves values by far more.
"""

from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-15  # only matters for probabilities that are 0 on one side

_STUDY_HEADER = ["axis", "method", "mean", "ci_low", "ci_high", "valid_fraction", "m", "seed"]
_STUDY_EXACT = ("axis", "method", "valid_fraction", "m", "seed")
_STUDY_CLOSE = ("mean", "ci_low", "ci_high")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def close(got: str, want: str) -> bool:
    """Two printed numbers agree within RTOL/ATOL; empty fields only match empty."""
    if got == want:
        return True
    if not got or not want:
        return False
    a, b = float(got), float(want)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def compare_study_csv(got: str, want: str) -> str | None:
    got_rows, want_rows = _rows(got), _rows(want)
    if not got_rows or got_rows[0] != _STUDY_HEADER:
        return "study CSV header differs"
    if len(got_rows) != len(want_rows):
        return f"study CSV has {len(got_rows) - 1} rows, reference {len(want_rows) - 1}"
    for lineno, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        if len(g) != len(_STUDY_HEADER):
            return f"line {lineno}: {len(g)} fields"
        for col, gv, wv in zip(_STUDY_HEADER, g, w):
            if col in _STUDY_EXACT and gv != wv:
                return f"line {lineno}: {col} {gv!r} != reference {wv!r}"
            if col in _STUDY_CLOSE and not close(gv, wv):
                return f"line {lineno}: {col} {gv!r} not within {RTOL:g} of {wv!r}"
    return None


def compare_chars_csv(got: str, want_rows: list[list[str]]) -> str | None:
    """``want_rows`` holds the header and the reference rows in spec order."""
    got_rows = _rows(got)
    if not got_rows or got_rows[0] != want_rows[0]:
        return "chars CSV header differs"
    if len(got_rows) != len(want_rows):
        return f"chars CSV has {len(got_rows) - 1} rows, reference {len(want_rows) - 1}"
    header = want_rows[0]
    for lineno, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        if len(g) != len(header) or g[:2] != w[:2]:
            return f"line {lineno}: row {g[:2]} where reference has {w[:2]}"
        for col, gv, wv in zip(header[2:], g[2:], w[2:]):
            if not close(gv, wv):
                return f"line {lineno} ({w[0]} {w[1]}): {col} {gv!r} not within {RTOL:g} of {wv!r}"
    return None


def check_pass(plan, index: int, outdir: Path) -> str | None:
    """None when the outputs of pass ``index`` match the reference, else why not."""
    workload = plan.workload
    missing = [name for name in workload.outputs if not (outdir / name).is_file()]
    if missing:
        return f"missing output {missing[0]}"
    ref = plan.reference
    if workload.name == "chars_grid":
        want = [ref["header"]] + [ref["rows"][spec] for spec in plan.chars_specs(index)]
        return compare_chars_csv((outdir / "chars.csv").read_text(), want)
    expected = ref["expected"][str(plan.study_seed(index))]
    for name in workload.outputs:
        want = expected[name]
        if "text" in want:
            error = compare_study_csv((outdir / name).read_text(), want["text"])
            if error:
                return f"{name}: {error}"
        elif sha256_file(outdir / name) != want["sha256"]:
            return f"{name}: sha256 differs from the reference"
    return None
