"""The bindings that the benchmark's tracer wraps stay where it looks for them.

``bench/tracing.py`` leaves out every metric whose target attribute is gone,
so a removed or renamed binding would drop metrics from a traced run without
failing it.
"""

import importlib
import importlib.util
from pathlib import Path

import tailfence as tf
from tailfence import distributions, estimators, montecarlo

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_exists():
    targets = traced_targets()
    assert len(targets) >= 14
    missing = [f"{module}.{attribute}" for module, attribute, _ in targets
               if not callable(getattr(importlib.import_module(f"tailfence.{module}"), attribute, None))]
    assert missing == []
    # the benchmark also observes the pool class and wraps the estimator entry point here
    assert callable(montecarlo.ProcessPoolExecutor)
    assert montecarlo.evaluate is estimators.evaluate


def test_traced_evaluate_returns_a_record_with_a_bool_valid():
    # the tracer's estimators.evaluate wrapper counts records by their .valid
    smp = tf.sample(tf.parse_spec("pareto(alpha=0.5,delta=1)"), tf.RngState(7, 0), 40)
    for method, k in (("par_n", None), ("hill", 5)):
        record = montecarlo.evaluate(method, smp, k)
        assert isinstance(record, estimators.EstimateRecord) and type(record.valid) is bool, record


def test_run_study_takes_workers_one():
    config = tf.StudyConfig(spec=tf.parse_spec("t(n=4)"), seed=3, m=4, n_grid=(10, 20),
                            k_grid=(2, 3), methods=("par_n", "hill"))
    result = montecarlo.run_study(config, workers=1)
    default = montecarlo.run_study(config)
    assert [row.axis for row in result.rows] == ["n", "n", "k", "k"]
    for axis in ("n", "k"):
        assert result.csv_for_axis(axis) == default.csv_for_axis(axis)


def test_every_draw_builds_its_generator_through_the_traced_binding(monkeypatch):
    # The tracer's distributions.rng_s wraps _generator and _uniform_open: a
    # draw call, a grid point's rows and a single sample alike, builds its one
    # PCG64 there from its first stream's words, and maps its raw words there,
    # once per draw as one flat run. Where _state_layout is None, each row
    # builds its own PCG64 there, one call per stream.
    calls, mapped = [], []
    original, original_map = distributions._generator, distributions._uniform_open

    def counting(words):
        calls.append(words.tolist())
        return original(words)

    def counting_map(raw):
        mapped.append(raw.shape)
        return original_map(raw)

    def draws():
        calls.clear()
        mapped.clear()
        rows = distributions.sample_blocks(spec, 11, [(range(1020, 1030), 6)])[0]
        yield list(calls), list(mapped)
        calls.clear()
        mapped.clear()
        smp = tf.sample(spec, tf.RngState(11, 1025), 6)
        assert smp.sorted.tobytes() == rows[5].tobytes()
        yield list(calls), list(mapped)
        # three blocks of different counts are still mapped in one call
        calls.clear()
        mapped.clear()
        distributions.sample_blocks(spec, 11, blocks)
        yield list(calls), list(mapped)

    monkeypatch.setattr(distributions, "_generator", counting)
    monkeypatch.setattr(distributions, "_uniform_open", counting_map)
    spec = tf.parse_spec("pareto(alpha=0.5,delta=1)")
    blocks = [(range(0, 4), 5), (range(4, 7), 9), (range(2000, 2002), 2)]
    words = distributions._stream_words
    assert distributions._state_layout() is not None
    assert list(draws()) == [
        ([words(11, range(1020, 1021))[0].tolist()], [(60,)]),
        ([words(11, range(1025, 1026))[0].tolist()], [(6,)]),
        ([words(11, range(0, 1))[0].tolist()], [(4 * 5 + 3 * 9 + 2 * 2,)]),
    ]
    monkeypatch.setattr(distributions, "_state_layout", lambda: None)
    assert list(draws()) == [
        (words(11, range(1020, 1030)).tolist(), [(60,)]),
        ([words(11, range(1025, 1026))[0].tolist()], [(6,)]),
        ([row for streams, _ in blocks for row in words(11, streams).tolist()], [(4 * 5 + 3 * 9 + 2 * 2,)]),
    ]
