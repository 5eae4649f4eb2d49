#!/usr/bin/env python3
"""tailfence benchmark: closed-loop CLI passes with an output oracle.

Run from the repository root:

    python3 bench/run.py --workload study_k_pareto --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics: set-up time (fresh-interpreter
``import tailfence``), median pass wall time (p75 alongside), throughput,
CPU seconds of the passing process and its pool children, and their peak
RSS. ``--trace 1`` prints the per-layer metrics from three closed loops of a
third of ``--seconds`` each: untraced passes at the default worker count,
untraced serial passes and traced serial passes. Both modes check every pass
against the recorded reference output; the last stdout line is the JSON
result. Every workload's passes run in a fresh interpreter of their own, so
its peak RSS is its own. Times are scaled to a fixed machine speed (see
``calibration.py``). Spans, per-pass timings and the machine record go to
``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from calibration import CAL_REF_S, calibrate, scales
from oracle import check_pass
from tracing import ROOT_SPAN, Tracer, layer_of
from workloads import WORKLOADS, PassPlan

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Fresh-interpreter imports per run, half before and half after the passes;
# setup_s is their median. The host's slow spells last up to a few seconds,
# so imports taken at two times half a minute apart vary less than one block.
SETUP_RUNS = 12
MIN_PASSES = 40  # so that the p75 pass time has at least ten passes beyond it
MIN_PHASE_PASSES = 5  # per phase of a traced run
HARD_LIMIT_S = 140.0  # no pass starts later than this after the passes began
CHILD_TIMEOUT_S = 165.0  # the process running the passes is killed after this

METHODS = ("par_n", "par_q", "fr_n", "fr_q", "hh_n", "hh_q", "hill", "thill", "pickands", "moment")


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    error: str | None


def _cpu_seconds() -> float:
    """User plus system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child (Linux: KiB).

    Called in the process that runs one workload's passes, whose only
    children are the pool workers of run_study.
    """
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _p75(values: list[float]) -> float:
    """Nearest-rank 75th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-3 * len(ordered) // 4) - 1)]


@contextmanager
def _swapped(module, attr: str, value):
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Scaled and unscaled wall times of ``import tailfence`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import tailfence"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes the bytecode caches
    times, cal = [], [calibrate()]
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        cal.append(calibrate())
    return [t * f for t, f in zip(times, scales(cal))], times


class Runner:
    """Runs passes of one plan in-process and checks each against the oracle."""

    def __init__(self, cli, plan: PassPlan, workdir: Path, deadline: float):
        self.cli = cli
        self.plan = plan
        self.workdir = workdir
        self.deadline = deadline
        self.next_index = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        index = self.next_index
        self.next_index += 1
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        argv = self.plan.argv(index, self.workdir)
        error = None
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.span(ROOT_SPAN):
                        code = self.cli.main(argv)
        except Exception as exc:  # a pass that raises is counted as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            error = check_pass(self.plan, index, self.workdir)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"pass {index}: {error}")
        return PassResult(wall, cpu, error)

    def loop(self, seconds: float, min_passes: int, tracer: Tracer | None = None,
             on_pass=None) -> list[PassResult]:
        """Closed loop: the next pass starts when the previous one returns."""
        results = []
        start = time.perf_counter()
        while time.perf_counter() < self.deadline and (
            time.perf_counter() - start < seconds or len(results) < min_passes
        ):
            first = len(tracer.names) if tracer is not None else 0
            result = self.run_pass(tracer)
            results.append(result)
            if on_pass is not None:
                on_pass(result, first)
        return results


def timed_loop(runner: Runner, seconds: float, min_passes: int,
               tracer: Tracer | None = None, on_pass=None) -> tuple[list[PassResult], list[float]]:
    """Runner.loop with a calibration around every pass; also returns each pass's scale."""
    cal = [calibrate()]

    def after(result: PassResult, first: int) -> None:
        if on_pass is not None:
            on_pass(result, first)
        cal.append(calibrate())

    results = runner.loop(seconds, min_passes, tracer=tracer, on_pass=after)
    return results, scales(cal)


def _kept(results: list[PassResult]) -> list[int]:
    """Indices of the passes that timings are taken from: the correct ones, if any."""
    return [i for i, r in enumerate(results) if r.error is None] or list(range(len(results)))


def _scaled_median_wall(results: list[PassResult], scale: list[float]) -> float:
    return statistics.median(results[i].wall_s * scale[i] for i in _kept(results))


def observe_workers(runner: Runner, montecarlo) -> int | None:
    """Warm-up pass that also records the pool size run_study asks for.

    Returns None when montecarlo no longer has the pool class to observe.
    """
    created = []
    original = getattr(montecarlo, "ProcessPoolExecutor", None)
    if original is None:
        runner.run_pass()
        return None

    def probe(*args, **kwargs):
        created.append(kwargs.get("max_workers", args[0] if args else None))
        return original(*args, **kwargs)

    with _swapped(montecarlo, "ProcessPoolExecutor", probe):
        runner.run_pass()
    if created:
        return int(created[0])
    return 1 if runner.plan.workload.is_study else 0


def machine_record(workers: int | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_cpu_count": os.cpu_count(),
        "run_study_workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# --- per-layer metrics ------------------------------------------------------

# metric -> (unit, targets it needs as "module.attribute")
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "distributions.transform_s": ("s", ("distributions._quantile_array",)),
    "distributions.rng_s": ("s", ("distributions._generator", "distributions._uniform_open")),
    "distributions.sample_calls": ("count", ("distributions.sample",)),
    "distributions.sample_us_per_call": ("us", ("distributions.sample",)),
    "distributions.quantile_calls": ("count", ("distributions.quantile",)),
    "distributions.cdf_calls": ("count", ("distributions.cdf",)),
    "distributions.scalar_s": ("s", ("distributions.quantile", "distributions.cdf")),
    "empirical.sample_build_s": ("s", ("distributions.Sample",)),
    "empirical.quantile_calls": ("count", ("empirical.empirical_quantile",)),
    "empirical.quantile_s": ("s", ("empirical.empirical_quantile",)),
    "estimators.evaluate_calls": ("count", ("montecarlo.evaluate",)),
    "estimators.evaluate_s": ("s", ("montecarlo.evaluate",)),
    **{f"estimators.us_per_call.{m}": ("us", ("montecarlo.evaluate",)) for m in METHODS},
    "estimators.valid_fraction": ("fraction", ("montecarlo.evaluate",)),
    "montecarlo.points": ("count", ()),
    "montecarlo.replicates": ("count", ()),
    "montecarlo.workers": ("count", ("montecarlo.ProcessPoolExecutor",)),
    "montecarlo.self_s": ("s", ("cli.run_study",)),
    "montecarlo.summarize_ci_s": ("s", ("montecarlo.summarize_ci",)),
    "montecarlo.pool_speedup": ("ratio", ("cli.run_study",)),
    "tail_chars.characteristics_calls": ("count", ("cli.characteristics",)),
    "tail_chars.characteristics_s": ("s", ("cli.characteristics",)),
    "cli.write_s": ("s", ("cli.write_study_outputs", "cli._open_out")),
    "cli.bytes_written": ("bytes", ("cli.write_study_outputs", "cli._open_out")),
    "trace.overhead_ratio": ("ratio", ()),
}


def pass_layer_values(totals: dict, valid: int, bytes_written: int) -> dict[str, float]:
    """Per-layer values of one traced pass; a layer that made no calls reads 0."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def us_per_call(names):
        calls = sum(get(n, "calls") for n in names)
        return 1e6 * sum(get(n, "incl_s") for n in names) / calls if calls else 0.0

    evals = [n for n in totals if n.startswith("estimators.evaluate.")]
    eval_calls = sum(get(n, "calls") for n in evals)
    values = {
        "distributions.transform_s": get("distributions.transform", "incl_s"),
        "distributions.rng_s": get("distributions.rng", "incl_s") + get("distributions.uniform", "incl_s"),
        "distributions.sample_calls": get("distributions.sample", "calls"),
        "distributions.sample_us_per_call": us_per_call(["distributions.sample"]),
        "distributions.quantile_calls": get("distributions.quantile", "calls"),
        "distributions.cdf_calls": get("distributions.cdf", "calls"),
        "distributions.scalar_s": get("distributions.quantile", "incl_s") + get("distributions.cdf", "incl_s"),
        "empirical.sample_build_s": get("empirical.sample_build", "incl_s"),
        "empirical.quantile_calls": get("empirical.quantile", "calls"),
        "empirical.quantile_s": get("empirical.quantile", "incl_s"),
        "estimators.evaluate_calls": eval_calls,
        "estimators.evaluate_s": sum(get(n, "self_s") for n in evals),
        "estimators.valid_fraction": valid / eval_calls if eval_calls else 0.0,
        "montecarlo.self_s": get("montecarlo.run_study", "self_s"),
        "montecarlo.summarize_ci_s": get("montecarlo.summarize_ci", "incl_s"),
        "tail_chars.characteristics_calls": get("tail_chars.characteristics", "calls"),
        "tail_chars.characteristics_s": get("tail_chars.characteristics", "incl_s"),
        "cli.write_s": get("cli.write", "incl_s"),
        "cli.bytes_written": bytes_written,
    }
    for method in METHODS:
        values[f"estimators.us_per_call.{method}"] = us_per_call([f"estimators.evaluate.{method}"])
    return values


def select_layer_metrics(values: dict, missing: set[str], is_study: bool) -> dict:
    """(value, unit) per metric, leaving out each metric whose target is gone."""
    # chars writes through _open_out, a study through write_study_outputs
    missing = missing - {"cli._open_out" if is_study else "cli.write_study_outputs"}
    return {name: (values[name], unit) for name, (unit, needs) in LAYER_METRICS.items()
            if not missing.intersection(needs)}


def layer_split(totals: dict) -> dict[str, float]:
    """Self seconds per package module; the shares add up to the root span."""
    split: dict[str, float] = {}
    for name, entry in totals.items():
        split[layer_of(name)] = split.get(layer_of(name), 0.0) + entry["self_s"]
    return split


# --- the two kinds of run ---------------------------------------------------

def end_to_end(runner: Runner, seconds: float, montecarlo) -> tuple[dict, dict]:
    workers = observe_workers(runner, montecarlo)
    results, scale = timed_loop(runner, seconds, MIN_PASSES)
    kept = _kept(results)
    walls = [results[i].wall_s * scale[i] for i in kept]
    cpus = [results[i].cpu_s * scale[i] for i in kept]
    items = runner.plan.workload.items_per_pass
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    # The tail is reported next to the median but not gated: on a shared
    # 2-core host its run-to-run spread is about twice that of the median.
    p75 = _p75(walls)
    detail = {
        "machine": machine_record(workers),
        "passes": len(walls),
        "wall_p75_s": p75,
        "passes_beyond_p75": sum(1 for w in walls if w > p75),
        "items_per_pass": items,
        "raw_wall_s": statistics.median(results[i].wall_s for i in kept),
        "raw_cpu_s": statistics.median(results[i].cpu_s for i in kept),
        "pass_wall_s": [r.wall_s for r in results],
        "pass_cpu_s": [r.cpu_s for r in results],
        "pass_scale": scale,
    }
    return metrics, detail


def per_layer(runner: Runner, seconds: float, cli, montecarlo, spans_path: Path) -> tuple[dict, dict]:
    workload = runner.plan.workload
    workers = observe_workers(runner, montecarlo)
    phase = seconds / 3.0
    default, default_scale = timed_loop(runner, phase, MIN_PHASE_PASSES)

    def serial_run_study(config):
        return montecarlo.run_study(config, workers=1)

    if workload.is_study:
        with _swapped(cli, "run_study", serial_run_study):
            serial, serial_scale = timed_loop(runner, phase, MIN_PHASE_PASSES)
    else:  # chars_grid never reaches run_study: its default pass is the serial one
        serial, serial_scale = default, default_scale

    tracer = Tracer()
    per_pass: list[dict[str, float]] = []
    splits: list[dict[str, float]] = []
    counters = {"valid": 0, "bytes": 0}

    def on_pass(result: PassResult, first: int) -> None:
        totals = tracer.totals(first)
        valid = sum(tracer.valid.values())
        per_pass.append(pass_layer_values(totals, valid - counters["valid"],
                                          tracer.bytes_written - counters["bytes"]))
        splits.append(layer_split(totals))
        counters["valid"], counters["bytes"] = valid, tracer.bytes_written

    with tracer.installed({("cli", "run_study"): serial_run_study}):
        traced, traced_scale = timed_loop(runner, phase, MIN_PHASE_PASSES,
                                          tracer=tracer, on_pass=on_pass)
    tracer.write_spans(spans_path)

    # times of a traced pass are scaled like its wall time; counts are not
    for values, scale in zip(per_pass, traced_scale):
        for name in values:
            if LAYER_METRICS[name][0] in ("s", "us"):
                values[name] *= scale
    for split, scale in zip(splits, traced_scale):
        for layer in split:
            split[layer] *= scale
    serial_wall = _scaled_median_wall(serial, serial_scale)
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values.update({
        "montecarlo.points": workload.points,
        "montecarlo.replicates": workload.items_per_pass if workload.is_study else 0,
        "montecarlo.workers": workers,
        "montecarlo.pool_speedup": (serial_wall / _scaled_median_wall(default, default_scale)
                                    if workload.is_study else 0.0),
        "trace.overhead_ratio": _scaled_median_wall(traced, traced_scale) / serial_wall,
    })
    missing = set(tracer.missing)
    if workers is None:
        missing.add("montecarlo.ProcessPoolExecutor")
    metrics = select_layer_metrics(values, missing, workload.is_study)
    split = {layer: statistics.median(s.get(layer, 0.0) for s in splits)
             for layer in sorted({k for s in splits for k in s})}
    detail = {
        "machine": machine_record(workers),
        "passes": {"default": len(default), "serial": len(serial), "traced": len(traced)},
        "missing_targets": sorted(missing),
        "layer_self_s": split,
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The passes of one workload, in this process; returns the run record."""
    import tailfence.cli as cli
    import tailfence.montecarlo as montecarlo

    started = time.perf_counter()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    runner = Runner(cli, PassPlan(WORKLOADS[name], seed), workdir, started + HARD_LIMIT_S)
    try:
        if trace:
            metrics, detail = per_layer(runner, seconds, cli, montecarlo,
                                        OUT_DIR / f"{name}.spans.csv")
        else:
            metrics, detail = end_to_end(runner, seconds, montecarlo)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "failed_fraction": failed / runner.attempted, "failures": runner.failures[:20],
            **detail, "result": result}


def run_in_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """run_workload in a fresh interpreter, so that its peak RSS and CPU are its own."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)), "--child"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up time here, the passes in a child; writes the results file and the summary."""
    if not trace:
        setup_scaled, setup_raw = measure_setup(SETUP_RUNS // 2)
    record = run_in_child(name, seed, seconds, trace)
    if not trace:
        scaled, raw = measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
        setup_s = statistics.median(setup_scaled + scaled)
        record["result"]["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        record["raw_setup_s"] = setup_raw + raw
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_summary(record)
    return record["result"]


def _print_summary(record: dict) -> None:
    result = record["result"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_fraction':36s} {record['failed_fraction']:>14.6g} fraction "
          f"({result['failed']} of {result['attempted']} passes)")
    if record["trace"]:
        total = sum(record["layer_self_s"].values()) or 1.0
        shares = ", ".join(f"{layer} {100 * s / total:.1f}%"
                           for layer, s in sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1]))
        print(f"  traced self-time split: {shares}")
    else:
        print(f"  wall_s is the median of {record['passes']} passes; p75 {record['wall_p75_s']:.6g} s "
              f"with {record['passes_beyond_p75']} passes beyond it")
        print(f"  unscaled medians: setup {statistics.median(record['raw_setup_s']):.6g} s, "
              f"wall {record['raw_wall_s']:.6g} s, cpu {record['raw_cpu_s']:.6g} s; "
              f"median scale {statistics.median(record['pass_scale']):.4g} "
              f"(calibration reference {CAL_REF_S} s)")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # run one workload's passes in this process and print the run record
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tailfence" / "__init__.py").is_file():
        print(f"bench: no tailfence sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        if args.workload == "all":
            parser.error("--child runs a single workload")
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
