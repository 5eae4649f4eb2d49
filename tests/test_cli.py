import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailfence.cli import main


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
    proc = subprocess.run(
        [sys.executable, "-m", "tailfence.cli", "chars", "--dist", "exp(lambda=1)"],
        capture_output=True,
        text=True,
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
    ],
)
def test_usage_errors_are_one_json_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert message in json.loads(err)["error"]


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
