"""Tests of the benchmark itself: inputs, metric names, oracle and tracing.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import csv
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import oracle
import run
from tracing import ROOT_SPAN, Tracer
from workloads import CHARS_SPECS, WORKLOADS, PassPlan, load_reference

ROOT = Path(run.__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_inputs_are_deterministic_per_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = [PassPlan(workload, 7).argv(i, tmp_path) for i in range(6)]
    again = [PassPlan(workload, 7).argv(i, tmp_path) for i in range(6)]
    other = [PassPlan(workload, 8).argv(i, tmp_path) for i in range(6)]
    assert first == again
    assert first != other


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert len(CHARS_SPECS) == len(set(CHARS_SPECS)) == 244
    assert set(load_reference("chars_grid")["rows"]) == set(CHARS_SPECS)


def _in_process(name, seed, seconds, trace):
    """run_in_child without the child, so that the patched pass minimums apply."""
    return json.loads(json.dumps(run.run_workload(name, seed, seconds, trace)))


def _run_bench(monkeypatch, argv):
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_PHASE_PASSES", 1)
    monkeypatch.setattr(run, "run_in_child", _in_process)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize(
    ("workload", "trace", "section"),
    [("chars_grid", 0, "end_to_end"), ("study_n_t4", 1, "per_layer")],
)
def test_printed_metrics_are_the_declared_ones(monkeypatch, workload, trace, section):
    result = _run_bench(monkeypatch, ["--workload", workload, "--seed", "3",
                                      "--seconds", "0.01", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME_RE.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_run_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "chars_grid", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _alter_digit(text: str, line: int, column: int, position: int) -> str:
    """Replace one digit of a CSV field; ``position`` indexes the field's digits."""
    lines = text.split("\n")
    fields = lines[line].split(",")
    digits = [i for i, ch in enumerate(fields[column]) if ch.isdigit()]
    i = digits[position]
    fields[column] = fields[column][:i] + str((int(fields[column][i]) + 1) % 10) + fields[column][i + 1:]
    lines[line] = ",".join(fields)
    return "\n".join(lines)


def test_oracle_flags_one_altered_digit_in_the_byte_exact_study(tmp_path):
    plan = PassPlan(WORKLOADS["study_k_pareto"], 5)
    runner = run.Runner(__import__("tailfence.cli").cli, plan, tmp_path / "work", float("inf"))
    assert runner.run_pass().error is None
    path = tmp_path / "work" / "pareto_k.csv"
    path.write_text(_alter_digit(path.read_text(), line=1, column=2, position=-1))
    assert "sha256" in oracle.check_pass(plan, 0, tmp_path / "work")


def test_oracle_flags_one_altered_digit_in_the_tolerance_checks():
    t4 = load_reference("study_n_t4")
    reference = next(iter(t4["expected"].values()))["studentt_n.csv"]["text"]
    assert oracle.compare_study_csv(reference, reference) is None
    rows = reference.split("\n")
    line = next(i for i in range(1, len(rows)) if rows[i].split(",")[2])  # first row with a mean
    altered = _alter_digit(reference, line, column=2, position=1)
    assert "not within" in oracle.compare_study_csv(altered, reference)
    altered = _alter_digit(reference, line, column=5, position=-1)
    assert "valid_fraction" in oracle.compare_study_csv(altered, reference)
    # the twelfth significant digit is a last-bit change and is accepted
    assert oracle.compare_study_csv(_alter_digit(reference, line, 2, -1), reference) is None

    chars = load_reference("chars_grid")
    want = [chars["header"]] + [chars["rows"][spec] for spec in CHARS_SPECS]

    def as_csv(rows):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()

    assert oracle.compare_chars_csv(as_csv(want), want) is None
    altered = [list(row) for row in want]
    altered[1][2] = _alter_digit(altered[1][2], line=0, column=0, position=1)
    assert "not within" in oracle.compare_chars_csv(as_csv(altered), want)


def _module_attributes():
    import tailfence

    names = ["cli", "distributions", "empirical", "estimators", "fences", "montecarlo", "tail_chars"]
    modules = [tailfence] + [getattr(tailfence, n) for n in names]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_traced_run_leaves_module_attributes_identical(tmp_path):
    import tailfence.cli as cli
    import tailfence.montecarlo as montecarlo

    before = _module_attributes()
    tracer = Tracer()
    serial = {("cli", "run_study"): lambda config: montecarlo.run_study(config, workers=1)}
    with tracer.installed(serial), redirect_stdout(io.StringIO()):
        with tracer.span(ROOT_SPAN):
            assert cli.main(["simulate", "--dist", "t(n=4)", "--m", "3", "--n-grid", "10,20",
                             "--k-grid", "2,3", "--out", str(tmp_path)]) == 0
        with tracer.span(ROOT_SPAN):
            assert cli.main(["chars", "--dist", "gamma(alpha=0.5,beta=1)",
                             "--out", str(tmp_path / "c.csv")]) == 0
    after = _module_attributes()
    assert before.keys() == after.keys()
    for module, attrs in before.items():
        assert attrs.keys() == after[module].keys(), module
        changed = [k for k in attrs if attrs[k] is not after[module][k]]
        assert changed == [], module

    assert not tracer.missing
    totals = tracer.totals()
    assert totals["estimators.evaluate.hill"]["calls"] == 2 * 3  # two k-points, m = 3
    assert totals["distributions.sample"]["calls"] == 4 * 3
    assert totals["tail_chars.characteristics"]["calls"] == 1
    assert tracer.bytes_written > 0
    assert all(entry["self_s"] >= -1e-9 for entry in totals.values())
    split = run.layer_split(totals)
    assert sum(split.values()) == pytest.approx(totals[ROOT_SPAN]["incl_s"])


def test_a_missing_target_leaves_its_metrics_absent(monkeypatch):
    import tailfence.cli as cli

    monkeypatch.delattr(cli, "characteristics")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == {"cli.characteristics"}
    assert not hasattr(cli, "characteristics")

    values = dict.fromkeys(run.LAYER_METRICS, 1.0)
    metrics = run.select_layer_metrics(values, tracer.missing, is_study=True)
    assert "tail_chars.characteristics_s" not in metrics
    assert "tail_chars.characteristics_calls" not in metrics
    assert metrics["cli.write_s"] == (1.0, "s")
    assert len(metrics) == len(run.LAYER_METRICS) - 2
