"""Command-line front end.

Subcommands: chars, table1, estimate, simulate, selftest. Distribution
specs use the compact form ``family(name=value,...)``, e.g.
``pareto(alpha=0.5,delta=1)`` or ``t(n=3)``. Errors are reported as a
single JSON line on stderr with exit code 1, usage errors included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from .distributions import _PARAM_TEXT, FAMILY_PARAMS, NUMBER_FORMAT, DistributionSpec, parse_spec
from .empirical import load_sample
from .estimators import ALL_METHODS, CLASSICAL_METHODS, evaluate
from .fences import DEFAULT_INNER, DEFAULT_OUTER
from .montecarlo import DEFAULT_N_GRID, StudyConfig, _fmt, run_study, write_study_outputs
from .tail_chars import (
    _COLUMNS,
    _characteristics_columns,
    characteristics,
    characteristics_table,
    closed_form_p_eR,
    frechet_left_tail_threshold,
)

# Reference values for the t(n) extreme-tail probabilities p_eR, n = 1..10,
# to 4 decimals: the exact values rounded. Erratum: the published table gives
# 0.0453 at n = 1, but t(1) is the Cauchy distribution (Q3 = 1, IQR = 2,
# outer fence 7), so p_eR = 1/2 - arctan(7)/pi = 0.0451672353..., which
# rounds to 0.0452. The n = 2..10 entries agree with the published table.
REFERENCE_T_TAIL_TABLE = (
    0.0452, 0.0146, 0.0064, 0.0033, 0.0019,
    0.0012, 0.0008, 0.0006, 0.0004, 0.0003,
)

# A chars row: family, params, then the first eleven characteristics columns.
_CHARS_NUMBERS = 11
_CHARS_HEADER = ("family", "params", *_COLUMNS[:_CHARS_NUMBERS])
_CHARS_ROW = ",".join([NUMBER_FORMAT] * _CHARS_NUMBERS)
# Per family, the whole row as one template, filled by the spec's parameter
# values and then the row's numbers. The params field is names, numbers and
# commas, so csv's QUOTE_MINIMAL quotes it iff the family has two or more
# parameters (a %.12g number holds no comma).
_CHARS_ROWS = {
    family: f'{family},"{_PARAM_TEXT[family]}",{_CHARS_ROW}' if len(names) > 1
    else f"{family},{_PARAM_TEXT[family]},{_CHARS_ROW}"
    for family, names in FAMILY_PARAMS.items()
}


@contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _parse_grid(text: str) -> tuple[int, ...]:
    """Parse 'a:b:step' (inclusive of b when hit) or a comma list of ints."""
    if ":" in text:
        try:
            a, b, step = (int(part) for part in text.split(":"))
        except ValueError:
            raise ValueError(f"invalid grid {text!r}; expected a:b:step") from None
        if step <= 0 or b < a:
            raise ValueError(f"invalid grid {text!r}; need a <= b and step > 0")
        return tuple(range(a, b + 1, step))
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise ValueError(f"invalid grid {text!r}; expected a:b:step or comma-separated ints") from None


def cmd_chars(args) -> int:
    # The rows are formatted from the columns of one characteristics pass,
    # each in one % format of its family's template, and the whole text goes
    # out in one write after every row is computed, so bad input leaves no
    # partial CSV behind.
    specs = [parse_spec(text) for text in args.dist]
    columns = _characteristics_columns(specs, args.inner_fence, args.outer_fence, use_closed_forms=True)
    lines = [",".join(_CHARS_HEADER)]
    for spec, values in zip(specs, columns[:, :_CHARS_NUMBERS].tolist()):
        lines.append(_CHARS_ROWS[spec.family] % (*spec.params.values(), *values))
    with _open_out(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def _t_table():
    """Characteristics of t(1), ..., t(10): the rows of table 1."""
    return characteristics_table(DistributionSpec("studentt", {"n": n}) for n in range(1, 11))


def cmd_table1(args) -> int:
    with _open_out(args.out) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "p_eR"])
        for n, chars in enumerate(_t_table(), start=1):
            writer.writerow([n, _fmt(chars.p_eR)])
    return 0


def cmd_estimate(args) -> int:
    sample = load_sample(args.input)
    if args.method in CLASSICAL_METHODS and args.k is None:
        raise ValueError(f"method {args.method!r} requires --k")
    record = evaluate(args.method, sample, k=args.k)
    with _open_out(args.out) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["method", "k", "alpha_hat", "valid", "reason"])
        writer.writerow([
            record.method,
            "" if record.k is None else record.k,
            _fmt(record.alpha_hat),
            "true" if record.valid else "false",
            record.reason,
        ])
    return 0


def cmd_simulate(args) -> int:
    spec = parse_spec(args.dist)
    methods = tuple(token.strip() for token in args.methods.split(",") if token.strip())
    config = StudyConfig(
        spec=spec,
        seed=args.seed,
        m=args.m,
        n_grid=_parse_grid(args.n_grid),
        k_grid=None if args.k_grid is None else _parse_grid(args.k_grid),
        methods=methods,
    )
    result = run_study(config)
    for path in write_study_outputs(result, Path(args.out)):
        print(path)
    return 0


def _selftest_checks():
    for n, (reference, chars) in enumerate(zip(REFERENCE_T_TAIL_TABLE, _t_table()), start=1):
        computed = chars.p_eR
        yield (
            f"t-table n={n}",
            abs(computed - reference) <= 5e-5,
            f"computed {computed:.7f}, reference {reference:.4f}"
            + (" (published 0.0453 is an erratum; exact 1/2 - arctan(7)/pi)" if n == 1 else ""),
        )
    exp_spec = DistributionSpec("exponential", {"lambda": 1.0})
    closed = closed_form_p_eR(exp_spec)
    yield (
        "exponential closed form",
        abs(closed - 1.0 / 108.0) <= 1e-12,
        f"closed {closed:.15g} vs 1/108",
    )
    generic = characteristics(exp_spec, use_closed_forms=False).p_eR
    yield (
        "exponential generic route",
        abs(generic - 1.0 / 108.0) <= 1e-9,
        f"generic {generic:.15g} vs 1/108",
    )
    normal = characteristics(DistributionSpec("normal", {"mu": 5.0, "sigma2": 4.0}))
    yield (
        "normal tails",
        abs(normal.p_eR - 1.171e-6) <= 1e-9 and abs(normal.p_eL - normal.p_eR) <= 1e-12,
        f"p_eL {normal.p_eL:.6e}, p_eR {normal.p_eR:.6e} vs 1.171e-06",
    )
    gumbel = characteristics(DistributionSpec("gumbel", {"mu": 0.0, "gamma": 1.0}))
    yield (
        "gumbel right tail",
        abs(gumbel.p_eR - 0.0026) <= 1e-4,
        f"p_eR {gumbel.p_eR:.6f} vs 0.0026",
    )
    yield (
        "gumbel left tail",
        math.isclose(gumbel.p_eL, 4.264e-68, rel_tol=1e-3),
        f"p_eL {gumbel.p_eL:.4e} vs 4.264e-68",
    )
    threshold = frechet_left_tail_threshold()
    yield (
        "frechet left-tail threshold",
        abs(threshold - 5.4662) <= 1e-4,
        f"threshold {threshold:.6f} vs 5.4662",
    )


def cmd_selftest(args) -> int:
    checks = list(_selftest_checks())
    failures = sum(1 for _, passed, _ in checks if not passed)
    for name, passed, detail in checks:
        if args.json:
            print(json.dumps({"name": name, "passed": passed, "detail": detail}))
        else:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    if args.json:
        print(json.dumps({"passed": failures == 0, "checks": len(checks), "failures": failures}))
    else:
        print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so that main reports them
    as one JSON error line with exit code 1 like any other bad input."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # built once per process: main may run many times in one process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tailfence",
        description="Outlier-fence tail characteristics and tail-index estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chars = sub.add_parser("chars", help="tail characteristics for distribution specs")
    chars.add_argument("--dist", action="append", required=True,
                       help="distribution spec family(name=value,...); repeatable")
    chars.add_argument("--inner-fence", type=float, default=DEFAULT_INNER)
    chars.add_argument("--outer-fence", type=float, default=DEFAULT_OUTER)
    chars.add_argument("--out", default=None, help="output CSV path (default stdout)")
    chars.set_defaults(func=cmd_chars)

    table1 = sub.add_parser("table1", help="t(n) extreme-tail probabilities, n=1..10")
    table1.add_argument("--out", default=None)
    table1.set_defaults(func=cmd_table1)

    estimate = sub.add_parser("estimate", help="one tail-index estimate from a data file")
    estimate.add_argument("--in", dest="input", required=True, help="data file path")
    estimate.add_argument("--method", required=True, choices=ALL_METHODS)
    estimate.add_argument("--k", type=int, default=None,
                          help="order-statistic count (classical methods)")
    estimate.add_argument("--out", default=None)
    estimate.set_defaults(func=cmd_estimate)

    simulate = sub.add_parser("simulate", help="seeded estimator-comparison study")
    simulate.add_argument("--dist", required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--m", type=int, default=StudyConfig.m)
    simulate.add_argument("--n-grid", default=",".join(map(str, DEFAULT_N_GRID)))
    simulate.add_argument("--k-grid", default=None)
    simulate.add_argument("--methods", default=",".join(ALL_METHODS))
    simulate.add_argument("--out", required=True, help="output directory for CSVs + manifest")
    simulate.set_defaults(func=cmd_simulate)

    selftest = sub.add_parser("selftest", help="run the built-in acceptance checks")
    selftest.add_argument("--json", action="store_true",
                          help="one JSON object per check, then a summary object")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def _split_chars_dists(argv):
    """Take the repeated ``--dist`` values of a ``chars`` argv out in one pass.

    argparse's option loop scans every option index once per option, which is
    quadratic in the number of ``--dist`` flags on Python 3.10-3.12. Returns
    the argv left for argparse and every ``--dist`` value in argv order, or
    None if argparse must read argv as it is: it is not a ``chars`` argv, or
    before a ``--`` it spells ``--dist`` some other way than ``--dist VALUE``
    (VALUE not starting with '-') or ``--dist=VALUE``, such as ``--di`` or a
    ``--dist`` whose value looks like an option. Taking only some spellings
    out would reorder the specs.

    The first ``--dist`` stays in argv, so argparse still runs its required
    check and reports every other error itself. A later one is taken out only
    if it directly follows another: argparse reads ``--dist VALUE`` as a whole,
    so closing the gap changes nothing around it, while one that follows, say,
    a bare ``--out`` must stay, or ``--out`` would take the token after it.
    """
    if not argv or argv[0] != "chars":
        return None
    kept, values = ["chars"], []
    last_end = None  # index of the last token of the latest --dist
    i = 1
    while i < len(argv):
        token = argv[i]
        if token == "--":
            kept += argv[i:]
            break
        if token == "--dist":
            if i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            values.append(argv[i + 1])
            end = i + 1
        elif token.startswith("--dist="):
            values.append(token[len("--dist="):])
            end = i
        else:
            head = token.partition("=")[0]
            if len(head) > 2 and "--dist".startswith(head):
                return None  # an abbreviation of --dist
            kept.append(token)
            i += 1
            continue
        if last_end != i - 1:
            kept += argv[i:end + 1]
        last_end = end
        i = end + 1
    return kept, values


def _parse_args(argv):
    """``parse_args``, with a ``chars`` argv's ``--dist`` values read in linear time."""
    argv = sys.argv[1:] if argv is None else list(argv)
    kept, values = _split_chars_dists(argv) or (argv, None)
    args = _build_parser().parse_args(kept)
    if values:
        args.dist = values
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a grid too large to draw can raise a MemoryError without a message
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
