import json
from dataclasses import replace

import numpy as np
import pytest

import tailfence as tf
from tailfence import distributions, montecarlo
from tailfence.distributions import RngState


def make_config(**overrides):
    base = dict(
        spec=tf.parse_spec("pareto(alpha=1,delta=1)"),
        seed=9,
        m=40,
        n_grid=(10, 15),
        k_grid=(2, 4),
        methods=("par_q", "hill"),
    )
    base.update(overrides)
    return tf.StudyConfig(**base)


def test_summarize_ci_examples():
    assert tf.summarize_ci([5.0]) == (5.0, 5.0, 5.0)
    # 1..1000: (n+1)*0.025 = 25.025 -> 25 + 0.025, (n+1)*0.975 = 975.975
    mean, lo, hi = tf.summarize_ci(np.arange(1.0, 1001.0))
    assert mean == pytest.approx(500.5, abs=0.0)
    assert lo == pytest.approx(25.025, abs=1e-12)
    assert hi == pytest.approx(975.975, abs=1e-12)
    assert tf.summarize_ci([3.3, 3.3, 3.3]) == (3.3, 3.3, 3.3)  # constants stay exact


@pytest.mark.parametrize(
    "overrides",
    [
        {"m": 1},
        {"n_grid": ()},
        {"n_grid": (4, 10)},
        {"n_grid": (15, 10)},
        {"methods": ()},
        {"methods": ("par_q", "par_q")},
        {"methods": ("nope",)},
        {"k_grid": (0, 2)},
        {"k_grid": (2, 99)},  # beyond n_for_k - 1 = 14
        {"methods": ("pickands",), "k_grid": (4, 8)},  # 4k > n_for_k = 15 at every k: no row
        {"seed": -3},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        make_config(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"m": 2.5},
        {"m": 40.0},
        {"m": True},
        {"n_grid": (10.5, 20)},
        {"n_grid": (10, np.float64(15))},
        {"k_grid": (2.5,)},
        {"k_grid": (2, 4.0)},
        {"seed": 1.5},
    ],
)
def test_config_rejects_non_integers(overrides):
    # rejected here, not later inside run_study with a TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        make_config(**overrides)


def test_config_takes_numpy_integers_as_python_ints(tmp_path):
    plain = make_config()
    numpy_ints = make_config(seed=np.uint64(9), m=np.int64(40), n_grid=np.array([10, 15]),
                             k_grid=(np.int32(2), np.int16(4)))
    assert numpy_ints == plain
    for value in (numpy_ints.seed, numpy_ints.m, *numpy_ints.n_grid, *numpy_ints.k_grid):
        assert type(value) is int
    paths = tf.write_study_outputs(tf.run_study(numpy_ints), tmp_path / "numpy")
    expected = tf.write_study_outputs(tf.run_study(plain), tmp_path / "plain")
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in expected]


def test_config_methods_list_is_checked_like_a_tuple():
    # the CLI passes a tuple; a list must meet the same pickands check, not run to no rows
    with pytest.raises(ValueError, match=r"pickands needs 4k <= n"):
        tf.StudyConfig(spec=tf.parse_spec("pareto(alpha=1,delta=1)"), seed=9, m=40,
                       n_grid=(10,), k_grid=(3,), methods=["pickands"])


def test_config_methods_list_equals_its_tuple_twin(tmp_path):
    as_list = make_config(methods=["par_q", "hill"])
    assert as_list == make_config() and as_list.methods == ("par_q", "hill")
    paths = tf.write_study_outputs(tf.run_study(as_list), tmp_path / "list")
    expected = tf.write_study_outputs(tf.run_study(make_config()), tmp_path / "tuple")
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in expected]


def test_default_grids():
    cfg = tf.StudyConfig(spec=tf.parse_spec("pareto(alpha=1,delta=1)"), seed=1, m=2,
                         n_grid=(10, 20), methods=("hill",))
    assert cfg.fixed_n == 20
    assert cfg.effective_k_grid == tuple(range(2, 20))
    assert tf.StudyConfig(spec=cfg.spec, seed=1).n_grid == tuple(range(10, 101, 5))


def test_study_is_deterministic():
    cfg = make_config()
    r1 = tf.run_study(cfg, workers=1)
    r2 = tf.run_study(cfg, workers=1)
    assert r1.csv_for_axis("n") == r2.csv_for_axis("n")
    assert r1.csv_for_axis("k") == r2.csv_for_axis("k")


def test_parallel_matches_serial(monkeypatch):
    pools = []
    real = montecarlo.ProcessPoolExecutor

    def recording(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", recording)
    cfg = make_config()
    serial = tf.run_study(cfg, workers=1)
    assert pools == []
    parallel = tf.run_study(cfg, workers=3)
    assert [type(pool).__module__ for pool in pools] == ["concurrent.futures.process"]
    assert serial.csv_for_axis("n") == parallel.csv_for_axis("n")
    assert serial.csv_for_axis("k") == parallel.csv_for_axis("k")


def test_output_bytes_do_not_depend_on_cache_state_or_point_order(tmp_path):
    # 4 points x m = 600 replicates: streams 0..2399 span three hash blocks
    cfg = make_config(m=600)
    other = replace(cfg, seed=cfg.seed + 1)

    def output_bytes(result, name):
        return {p.name: p.read_bytes() for p in tf.write_study_outputs(result, tmp_path / name)}

    def cold(config, name):
        distributions._seed_block.cache_clear()
        return output_bytes(tf.run_study(config), name)

    first, other_first = cold(cfg, "cold"), cold(other, "other_cold")
    # each study now runs right after the other seed's study filled the block cache
    assert output_bytes(tf.run_study(cfg), "warmed") == first
    assert output_bytes(tf.run_study(other), "other_warmed") == other_first
    points = montecarlo._grid_points(cfg)
    chunks = {g: montecarlo._evaluate_point(cfg, g, points[g]) for g in reversed(range(len(points)))}
    rows = tuple(row for g in range(len(points)) for row in chunks[g])
    assert output_bytes(montecarlo.StudyResult(cfg, rows), "reversed") == first
    assert len(first) == 3 and first["pareto_n.csv"] != other_first["pareto_n.csv"]


def test_replicate_streams_match_documented_mapping():
    # replicate r at grid point g draws with stream g*m + r
    cfg = make_config(methods=("par_q", "hill"), n_grid=(10, 15), k_grid=(2, 3), m=5)
    result = tf.run_study(cfg, workers=1)

    # grid point 1 is n=15; recompute its par_q aggregate by hand
    values = []
    for r in range(cfg.m):
        smp = tf.sample(cfg.spec, RngState(cfg.seed, 1 * cfg.m + r), 15)
        rec = tf.estimate_quartile_ratio(smp, "pareto")
        if rec.valid:
            values.append(rec.alpha_hat)
    mean, lo, hi = tf.summarize_ci(values)
    row = result.row("n", 15, "par_q")
    assert row.mean_alpha == mean and row.ci_low == lo and row.ci_high == hi

    # grid point 3 is k=3 at n_for_k=15 (points: n=10, n=15, k=2, k=3)
    values = []
    for r in range(cfg.m):
        smp = tf.sample(cfg.spec, RngState(cfg.seed, 3 * cfg.m + r), 15)
        rec = tf.hill(smp, 3)
        if rec.valid:
            values.append(rec.alpha_hat)
    row = result.row("k", 3, "hill")
    assert row.mean_alpha == tf.summarize_ci(values)[0]


def test_all_invalid_replicates_yield_empty_row():
    # uniform data at n=10 essentially never puts a point beyond the outer fence
    cfg = tf.StudyConfig(spec=tf.parse_spec("uniform(a=0,b=1)"), seed=4, m=20,
                         n_grid=(10,), methods=("par_n",))
    result = tf.run_study(cfg, workers=1)
    row = result.row("n", 10, "par_n")
    assert row.valid_fraction == 0.0
    assert row.mean_alpha is None and row.ci_low is None and row.ci_high is None
    line = result.csv_for_axis("n").splitlines()[1]
    assert line == f"10,par_n,,,,0,{cfg.m},{cfg.seed}"


def test_pickands_rows_respect_4k_limit():
    cfg = tf.StudyConfig(spec=tf.parse_spec("pareto(alpha=1,delta=1)"), seed=2, m=10,
                         n_grid=(20,), k_grid=(2, 5, 6), methods=("pickands", "hill"))
    result = tf.run_study(cfg, workers=1)
    pk = [row.value for row in result.rows if row.method == "pickands"]
    assert pk == [2, 5]  # 4*6 = 24 > 20 filtered out
    hill_rows = [row.value for row in result.rows if row.method == "hill"]
    assert hill_rows == [2, 5, 6]


def test_ci_brackets_mean_and_covers_truth():
    cfg = tf.StudyConfig(spec=tf.parse_spec("pareto(alpha=1,delta=1)"), seed=11, m=500,
                         n_grid=(1000,), methods=("par_q",))
    row = tf.run_study(cfg).row("n", 1000, "par_q")
    assert row.valid_fraction == 1.0
    assert row.ci_low <= row.mean_alpha <= row.ci_high
    assert row.ci_low <= 1.0 <= row.ci_high  # true tail index inside the band


def test_row_lookup_covers_every_row():
    result = tf.run_study(make_config(), workers=1)
    for row in result.rows:
        assert result.row(row.axis, row.value, row.method) is row
    with pytest.raises(KeyError, match="no row for axis='k' value=4 method='par_q'"):
        result.row("k", 4, "par_q")


def test_csv_shape_and_formatting():
    result = tf.run_study(make_config(), workers=1)
    lines = result.csv_for_axis("k").splitlines()
    assert lines[0] == "axis,method,mean,ci_low,ci_high,valid_fraction,m,seed"
    assert len(lines) == 1 + 2  # two k values, hill is the only k-axis method
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[1] == "hill"
        assert fields[6] == "40" and fields[7] == "9"


def test_write_study_outputs(tmp_path):
    result = tf.run_study(make_config(), workers=1)
    paths = tf.write_study_outputs(result, tmp_path)
    names = [p.name for p in paths]
    assert names == ["pareto_n.csv", "pareto_k.csv", "pareto_manifest.json"]
    manifest = json.loads((tmp_path / "pareto_manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["m"] == 40
    assert manifest["n_grid"] == [10, 15]
    assert manifest["k_grid"] == [2, 4]
    assert manifest["methods"] == ["par_q", "hill"]
    assert manifest["params"] == {"alpha": 1.0, "delta": 1.0}
    assert manifest["version"] == tf.__version__
    assert (tmp_path / "pareto_n.csv").read_text() == result.csv_for_axis("n")
