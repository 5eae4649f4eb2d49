"""The bindings that the benchmark's tracer wraps stay where it looks for them.

``bench/tracing.py`` leaves out every metric whose target attribute is gone,
so a removed or renamed binding would drop metrics from a traced run without
failing it.
"""

import importlib
import importlib.util
from pathlib import Path

import tailfence as tf
from tailfence import estimators, montecarlo

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


def test_run_study_takes_workers_one():
    config = tf.StudyConfig(spec=tf.parse_spec("t(n=4)"), seed=3, m=4, n_grid=(10, 20),
                            k_grid=(2, 3), methods=("par_n", "hill"))
    result = montecarlo.run_study(config, workers=1)
    default = montecarlo.run_study(config)
    assert [row.axis for row in result.rows] == ["n", "n", "k", "k"]
    for axis in ("n", "k"):
        assert result.csv_for_axis(axis) == default.csv_for_axis(axis)
