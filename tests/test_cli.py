import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import tailfence
from tailfence import cli, distributions, montecarlo
from tailfence.cli import main
from tailfence.distributions import parse_spec
from tailfence.tail_chars import characteristics_table


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(text):
    return list(csv.DictReader(text.splitlines()))


def test_chars_rows(capsys):
    code, out, err = run_cli(
        ["chars", "--dist", "exp(lambda=1)", "--dist", "t(n=1)", "--dist", "uniform(a=0,b=1)"],
        capsys,
    )
    assert code == 0 and err == ""
    rows = read_rows(out)
    assert [row["family"] for row in rows] == ["exponential", "studentt", "uniform"]

    exp_row = rows[0]
    assert float(exp_row["p_eR"]) == pytest.approx(1.0 / 108.0, abs=1e-9)
    assert float(exp_row["p_eL"]) == 0.0
    assert float(exp_row["q3"]) == pytest.approx(stats.expon.ppf(0.75), rel=1e-12)

    # cauchy tail beyond the fence at 7, against an independent oracle
    t_row = rows[1]
    assert float(t_row["p_eR"]) == pytest.approx(stats.t(1).sf(7.0), abs=1e-9)
    assert float(t_row["p_eL"]) == float(t_row["p_eR"])

    uni = rows[2]
    assert all(float(uni[col]) == 0.0 for col in ("p_eL", "p_eR", "p_e2", "p_mL", "p_mR", "p_m2"))
    assert uni["params"] == "a=0,b=1"


def test_chars_fence_multipliers(capsys):
    code, out, _ = run_cli(
        ["chars", "--dist", "uniform(a=0,b=1)", "--inner-fence", "0.1", "--outer-fence", "0.2"],
        capsys,
    )
    assert code == 0
    row = read_rows(out)[0]
    assert float(row["p_eL"]) == pytest.approx(0.15, abs=1e-12)
    assert float(row["p_mL"]) == pytest.approx(0.05, abs=1e-12)


def test_chars_to_file(tmp_path, capsys):
    out_path = tmp_path / "chars.csv"
    code, out, _ = run_cli(["chars", "--dist", "exp(lambda=2)", "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("family,params,q1,")


def test_table1_values_against_oracle(capsys):
    code, out, _ = run_cli(["table1"], capsys)
    assert code == 0
    rows = read_rows(out)
    assert [int(r["n"]) for r in rows] == list(range(1, 11))
    for row in rows:
        df = int(row["n"])
        fence = 7.0 * stats.t(df).ppf(0.75)
        assert float(row["p_eR"]) == pytest.approx(stats.t(df).sf(fence), abs=1e-9)


def test_estimate_hill(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{v}\n" for v in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)))
    code, out, _ = run_cli(["estimate", "--in", str(data), "--method", "hill", "--k", "3"], capsys)
    assert code == 0
    row = read_rows(out)[0]
    assert row["method"] == "hill" and row["k"] == "3" and row["valid"] == "true"
    assert float(row["alpha_hat"]) > 0


def test_estimate_fence_method_has_empty_k(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{v}\n" for v in (2.0, 4.0, 6.0)))
    code, out, _ = run_cli(["estimate", "--in", str(data), "--method", "par_q"], capsys)
    assert code == 0
    row = read_rows(out)[0]
    assert row["k"] == "" and float(row["alpha_hat"]) == pytest.approx(1.0)


def test_estimate_invalid_record_still_exits_zero(tmp_path, capsys):
    # a produced row with valid=false is still a produced row
    data = tmp_path / "data.txt"
    data.write_text("1\n2\n3\n4\n")
    code, out, _ = run_cli(["estimate", "--in", str(data), "--method", "par_n"], capsys)
    assert code == 0
    row = read_rows(out)[0]
    assert row["valid"] == "false" and row["reason"] == "no extreme outliers observed"


def test_estimate_classical_requires_k(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1\n2\n3\n4\n")
    code, out, err = run_cli(["estimate", "--in", str(data), "--method", "hill"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "method 'hill' requires --k"


def test_estimate_fence_method_refuses_k(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1\n2\n3\n4\n")
    code, out, err = run_cli(["estimate", "--in", str(data), "--method", "par_q", "--k", "5"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "method 'par_q' takes no k"


def test_bad_spec_is_machine_readable_error(capsys):
    code, out, err = run_cli(["chars", "--dist", "pareto(alpha=oops,delta=1)"], capsys)
    assert code == 1 and out == ""
    assert "invalid number" in json.loads(err)["error"]


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    args = [
        "simulate", "--dist", "pareto(alpha=1,delta=1)", "--seed", "5", "--m", "30",
        "--n-grid", "10:15:5", "--k-grid", "2,4", "--methods", "par_q,hill",
    ]
    code, _, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    assert code == 0
    for name in ("pareto_n.csv", "pareto_k.csv", "pareto_manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    header = (tmp_path / "a" / "pareto_n.csv").read_text().splitlines()[0]
    assert header == "axis,method,mean,ci_low,ci_high,valid_fraction,m,seed"


def test_selftest_reports_known_discrepancy(capsys):
    # every check passes against the exact values; the published t-table
    # entry at n=1 (0.0453) is still reported, as an erratum of the n=1 line
    code = main(["selftest"])
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 0
    assert fails == []
    assert out.splitlines()[-1] == "OK: 0 failing check(s)"
    n1 = [line for line in out.splitlines() if line.startswith("PASS t-table n=1:")]
    assert len(n1) == 1
    assert "reference 0.0452" in n1[0]
    assert "published 0.0453 is an erratum" in n1[0]
    assert "PASS exponential closed form" in out
    assert "PASS gumbel left tail" in out
    assert "PASS frechet left-tail threshold" in out


def test_module_entry_point():
    # the child imports the tailfence this process imported, installed or not
    env = dict(os.environ)
    root = str(Path(tailfence.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tailfence.cli", "chars", "--dist", "exp(lambda=1)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.startswith("family,params,")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", "--dist", "exp(lambda=1)", "--m", "abc", "--out", "x"],
         "argument --m: invalid int value: 'abc'"),
        (["simulate", "--dist", "exp(lambda=1)"], "the following arguments are required: --out"),
        (["estimate", "--in", "x", "--method", "bogus"], "argument --method: invalid choice"),
        (["frobnicate"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
        (["simulate", "--dist", "exp(lambda=1)", "--n-grid", "10:20:x", "--out", "x"],
         "invalid grid '10:20:x'; expected a:b:step"),
        (["simulate", "--dist", "exp(lambda=1)", "--n-grid", "10:5:1", "--out", "x"],
         "invalid grid '10:5:1'; need a <= b and step > 0"),
        (["simulate", "--dist", "exp(lambda=1)", "--k-grid", "2,x", "--out", "x"],
         "invalid grid '2,x'; expected a:b:step or comma-separated ints"),
        (["chars"], "the following arguments are required: --dist"),
        (["chars", "--dist", "A", "--dist"], "argument --dist: expected one argument"),
        (["chars", "--dist", "A", "--dist", "B", "--bogus"], "unrecognized arguments: --bogus"),
        (["chars", "--dist", "A", "--out", "--dist", "B", "C"], "argument --out: expected one argument"),
        (["chars", "--dist", "A", "--dist", "B", "--", "--dist", "C"], "unrecognized arguments:"),
        (["chars", "--dist", "A", "--dist", "B", "--o", "x"], "ambiguous option: --o could match"),
    ],
)
def test_usage_errors_are_one_json_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 72.8 TiB")])
def test_out_of_memory_is_one_json_line(error, tmp_path, capsys, monkeypatch):
    # a huge grid raises MemoryError (numpy's carries a message, a bare one none) deep in the engine
    def exhausted(config):
        raise error

    monkeypatch.setattr(cli, "run_study", exhausted)
    argv = ["simulate", "--dist", "pareto(alpha=0.5,delta=1)", "--m", "2", "--n-grid", "10000000000000",
            "--k-grid", "2", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == (str(error) or "MemoryError")
    assert not (tmp_path / "out").exists()


def test_parser_is_built_once_and_reused_after_an_error(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    code, out, err = run_cli(["simulate", "--dist", "exp(lambda=1)", "--m", "abc", "--out", "x"], capsys)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    code, out, err = run_cli(["table1", "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0 and err == ""
    assert (tmp_path / "t.csv").read_text().startswith("n,p_eR\n1,")


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tailfence simulate")


def test_bad_fence_multiplier_writes_no_partial_csv(tmp_path, capsys):
    argv = ["chars", "--dist", "exp(lambda=1)", "--outer-fence", "-1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "fence multipliers" in json.loads(err)["error"]
    out_path = tmp_path / "chars.csv"
    code, _, _ = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 1 and not out_path.exists()


def test_estimate_pickands_on_extreme_spacings(tmp_path, capsys):
    # the spacing ratio underflows to 0: an invalid row, not an error line
    data = tmp_path / "data.txt"
    data.write_text("-1e300\n0\n5e-324\n1e-323\n")
    code, out, err = run_cli(["estimate", "--in", str(data), "--method", "pickands", "--k", "1"],
                             capsys)
    assert code == 0 and err == ""
    row = read_rows(out)[0]
    assert row["valid"] == "false" and row["reason"] == "non-finite estimate"


@pytest.mark.parametrize("method", ["hill", "thill", "moment"])
def test_estimate_excess_overflow_is_invalid(method, tmp_path, capsys):
    # 1e300 / 1e-300 overflows (1e-300 / 1e300 underflows for thill): an
    # invalid row and no numpy warning
    data = tmp_path / "data.txt"
    data.write_text("1e-300\n1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["estimate", "--in", str(data), "--method", method, "--k", "1"],
                                 capsys)
    assert code == 0 and err == ""
    row = read_rows(out)[0]
    assert row["valid"] == "false" and row["reason"] == "non-finite estimate"
    assert row["alpha_hat"] == ""


def test_selftest_json(capsys):
    code = main(["selftest", "--json"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    *checks, summary = lines
    assert all(set(check) == {"name", "passed", "detail"} for check in checks)
    assert all(check["passed"] is True for check in checks)
    assert checks[0]["name"] == "t-table n=1" and "erratum" in checks[0]["detail"]
    assert summary == {"passed": True, "checks": len(checks), "failures": 0}
    # the same checks as the text report
    main(["selftest"])
    text = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in text[:-1]] == [f"PASS {c['name']}" for c in checks]


# One spec form per family; {s} and {t} are positive parameters, {n} the t degrees.
CHARS_FORMS = [
    "uniform(a=0,b={s})", "exp(lambda={s})", "gamma(alpha={s},beta={t})",
    "normal(mu=0,sigma2={s})", "t(n={n})", "pareto(alpha={s},delta={t})",
    "frechet(alpha={s},mu=0,sigma={t})", "negweibull(alpha={s},mu=0,sigma={t})",
    "gumbel(mu=0,gamma={s})", "hh(alpha={s})",
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    form=st.sampled_from(CHARS_FORMS),
    log_s=st.floats(-3.0, 3.0),
    log_t=st.floats(-3.0, 3.0),
    log_outer=st.one_of(st.none(), st.floats(-3.0, 308.0)),
    inner_share=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
)
def test_chars_gives_finite_row_or_one_error_line(form, log_s, log_t, log_outer, inner_share):
    # parameters log-uniform in [1e-3, 1e3], outer multiplier up to 1e308
    s, t = 10.0**log_s, 10.0**log_t
    argv = ["chars", "--dist", form.format(s=repr(s), t=repr(t), n=max(1, round(s)))]
    if log_outer is not None:
        outer = 10.0**log_outer
        inner = min(1.5, outer) if inner_share is None else inner_share * outer
        argv += ["--inner-fence", repr(inner), "--outer-fence", repr(outer)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    if code == 0:
        (row,) = read_rows(out.getvalue())
        numbers = [float(row[name]) for name in list(row)[2:]]
        assert all(math.isfinite(x) for x in numbers), (argv, row)
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == "", argv
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error"}


def test_chars_equal_quartiles_is_one_error_line(tmp_path, capsys):
    # the exact p_eR is about 1/108, but q1 = q3 = 1 in float64
    argv = ["chars", "--dist", "pareto(alpha=7e28,delta=1)"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert "quartiles equal in float64" in json.loads(line)["error"]
    out_path = tmp_path / "chars.csv"
    code, _, _ = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 1 and not out_path.exists()


# Tokens of a chars argv, every spelling that argparse maps to --dist among them.
ARGV_TOKENS = [
    "chars", "--dist", "--dist=X", "--d", "--di=X", "--dis", "--dist=",
    "-1", "-.5", "-x", " -x", "A B", "--", "--out", "--o", "--ou",
    "--inner-fence", "--outer-fence", "-h", "--bogus", "exp(lambda=1)", "t(n=4)", "2.5",
]


def parse_outcome(parse, argv):
    """What parsing argv gives: the namespace, the usage error, or the exit and its stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", vars(parse(argv))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def assert_parses_as_argparse(argv):
    assert parse_outcome(cli._parse_args, argv) == \
        parse_outcome(cli._build_parser().parse_args, argv), argv


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(
    # --dist and its values drawn more often, so that runs of them meet every
    # other token, a bare --out or --inner-fence among them
    tokens=st.lists(st.sampled_from(ARGV_TOKENS) | st.sampled_from(["--dist", "--dist=X", "A"]),
                    max_size=12),
    after_chars=st.booleans(),
    as_tuple=st.booleans(),
)
def test_chars_dist_scan_parses_as_argparse(tokens, after_chars, as_tuple):
    argv = ["chars", *tokens] if after_chars else tokens
    assert_parses_as_argparse(tuple(argv) if as_tuple else argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["chars", "--dist", "A", "--out", "o", "--dist=B", "--inner-fence", "2",
         "--dist", "C", "--dist=D", "--outer-fence", "4", "--dist", "E"],
        ("chars", "--dist=A", "--dist", "B", "--dist=", "--dist", "A B"),
        ["chars", "--dist", "A", "--di", "B", "--dist", "C"],
        ["chars", "--dist", "A", "--dist=B", "--dis=C", "--dist", "D"],
        ["chars", "--dist", "A", "--dist", "-1", "--dist", "-.5"],
        ["chars", "--dist", "A", "--out", "--dist", "B", "C"],
        ["chars", "--dist", "A", "--out", "--dist=B", "C"],
        ["chars", "--inner-fence", "--dist", "A", "--dist", "B", "2"],
        ["chars", "--dist", "A", "--dist", "B", "--", "--dist", "C"],
        ["chars", "--dist", "A", "--dist", "B", "--bogus", "--dist", "C", "-h"],
        ["chars", "--dist", "A", "--dist"],
    ],
)
def test_chars_dist_scan_parses_as_argparse_interleaved(argv):
    assert_parses_as_argparse(argv)


def test_chars_hands_argparse_one_dist_for_any_number(tmp_path, monkeypatch):
    # No timing: argparse's cost grows with the options it is given, and it is
    # given one --dist however many there are.
    pool = [form.format(s=s, t=t, n=n) for form in CHARS_FORMS
            for s, t, n in (("0.5", "1", 1), ("2", "3", 4), ("3.7", "0.2", 30))]
    specs = [pool[(7 * i) % len(pool)] for i in range(2000)]
    parser = cli._build_parser()
    parse = parser.parse_args
    seen = []

    def spy(args=None, namespace=None):
        seen.append(list(args))
        return parse(args, namespace)

    monkeypatch.setattr(parser, "parse_args", spy)
    argv = ["chars"]
    for spec in specs:
        argv += ["--dist", spec]
    out_path = tmp_path / "chars.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    (parsed,) = seen
    assert parsed.count("--dist") == 1
    alone = {}
    for spec in pool:
        assert main(["chars", "--dist", spec, "--out", str(out_path.with_suffix(".one"))]) == 0
        alone[spec] = out_path.with_suffix(".one").read_text().splitlines()[1]
    assert out_path.read_text().splitlines()[1:] == [alone[spec] for spec in specs]


# --- the chars output and its number format ---------------------------------------

def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOAT_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    999999999999.5, 9999999999995.0, 0.1, 1.0 / 3.0, 1e16, 1e-5, 1e-4, 123456789012.5,
]


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(value=st.one_of(
    st.sampled_from(FLOAT_EDGES),
    st.floats(),  # ±0, ±inf, NaN and subnormals among them
    st.integers(0, 2**64 - 1).map(_float_of_bits),  # every bit pattern, NaN payloads included
))
def test_fmt_number_format_is_the_format_spec(value):
    assert distributions.NUMBER_FORMAT % value == f"{value:.12g}"
    assert montecarlo._fmt(value) == f"{value:.12g}"
    row = (value,) * 11
    assert cli._CHARS_ROW % row == ",".join(f"{v:.12g}" for v in row)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(distributions.FAMILY_PARAMS)),
    values=st.lists(st.floats(), min_size=3, max_size=3),
    numbers=st.lists(st.floats(), min_size=11, max_size=11),
)
def test_fmt_param_and_chars_row_templates(family, values, numbers):
    params = dict(zip(distributions.FAMILY_PARAMS[family], values))
    text = ",".join(f"{k}={v:.12g}" for k, v in params.items())
    assert distributions._PARAM_TEXT[family] % tuple(params.values()) == text
    # csv's QUOTE_MINIMAL quotes the params field iff it holds a comma
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([family, text] + [f"{v:.12g}" for v in numbers])
    assert cli._CHARS_ROWS[family] % (*params.values(), *numbers) == out.getvalue()


def test_fmt_none_is_an_empty_field():
    assert montecarlo._fmt(None) == ""


def reference_chars_csv(specs, inner, outer):
    """The chars CSV as ``csv.writer`` wrote it from ``characteristics_table``, eleven fields a row."""
    def fmt(value):
        return f"{value:.12g}"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "params", "q1", "q3", "iqr", "outer_low", "outer_high",
                     "p_eL", "p_eR", "p_e2", "p_mL", "p_mR", "p_m2"])
    for spec, chars in zip(specs, characteristics_table(specs, inner, outer)):
        fen = chars.fences
        writer.writerow(
            [spec.family, ",".join(f"{k}={fmt(v)}" for k, v in spec.params.items())]
            + [fmt(v) for v in (fen.q1, fen.q3, fen.iqr, fen.outer_low, fen.outer_high)]
            + [fmt(v) for v in (chars.p_eL, chars.p_eR, chars.p_e2, chars.p_mL, chars.p_mR, chars.p_m2)]
        )
    return out.getvalue()


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


CHARS_TEXTS = st.builds(
    lambda form, log_s, log_t: form.format(s=repr(10.0**log_s), t=repr(10.0**log_t),
                                           n=max(1, round(10.0**log_s))),
    st.sampled_from(CHARS_FORMS), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    # families in random order, some specs given twice
    texts=st.lists(CHARS_TEXTS, min_size=1, max_size=24).flatmap(
        lambda texts: st.permutations(texts + texts[: len(texts) // 3])),
    multipliers=st.sampled_from([(1.5, 3.0), (0.2, 0.25), (2.0, 6.0), (1.0, 1.0), (0.5, 40.0)]),
)
def test_chars_output_equals_csv_writer_reference(texts, multipliers):
    inner, outer = multipliers
    argv = ["chars", "--inner-fence", repr(inner), "--outer-fence", repr(outer)]
    for text in texts:
        argv += ["--dist", text]
    code, out, err = run_quiet(argv)
    specs = [parse_spec(text) for text in texts]
    try:
        expected = reference_chars_csv(specs, inner, outer)
    except ValueError as exc:
        assert (code, out, json.loads(err)) == (1, "", {"error": str(exc)}), argv
        return
    assert (code, err) == (0, ""), argv
    assert out == expected, argv


def test_chars_rejected_spec_mid_list_is_one_error_line(tmp_path, capsys):
    argv = ["chars", "--dist", "exp(lambda=1)", "--dist", "gamma(alpha=2,beta=3)",
            "--dist", "pareto(alpha=0.001,delta=1)", "--dist", "t(n=3)",
            "--dist", "pareto(alpha=7e28,delta=1)"]
    error = {"error": "pareto(alpha=0.001,delta=1): quartiles not finite in float64 "
                      "(q1=8.6843358037739e+124, q3=inf)"}
    for out_args in ([], ["--out", str(tmp_path / "chars.csv")]):
        code, out, err = run_cli(argv + out_args, capsys)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == error
    assert not (tmp_path / "chars.csv").exists()


def test_chars_writes_its_text_once_to_a_write_only_handle(tmp_path, capsys, monkeypatch):
    # The benchmark's tracer hands cmd_chars a handle with a write method only.
    argv = ["chars", "--dist", "exp(lambda=1)", "--dist", "gamma(alpha=2,beta=3)", "--dist", "t(n=3)"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    writes = []

    class WriteOnly:
        __slots__ = ()

        def write(self, text):
            writes.append(text)
            return len(text)

    @contextlib.contextmanager
    def open_out(path):
        yield WriteOnly()

    monkeypatch.setattr(cli, "_open_out", open_out)
    assert run_cli(argv + ["--out", str(tmp_path / "chars.csv")], capsys) == (0, "", "")
    assert writes == [expected]
    assert not (tmp_path / "chars.csv").exists()
