import itertools
import json
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
        {"k_grid": ()},
        {"k_grid": (5, 3)},
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


def test_config_refuses_a_string_of_methods():
    # a string is a sequence too, of one-letter "methods"
    with pytest.raises(ValueError, match="methods must be a sequence of method names, not the string 'hill'"):
        make_config(methods="hill")


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"n_grid": 100}, "n_grid must be a sequence of integers, got 100"),
        ({"n_grid": np.array(50)}, "n_grid must be a sequence of integers, got array"),
        ({"n_grid": "10,15"}, "n_grid must be a sequence of integers, not the string"),
        ({"k_grid": 5}, "k_grid must be a sequence of integers, got 5"),
        ({"methods": None}, "methods must be a sequence of method names, got None"),
        ({"methods": b"hill"}, "methods must be a sequence of method names, not the string b'hill'"),
    ],
)
def test_config_refuses_a_grid_or_method_list_that_is_not_a_sequence(overrides, fragment):
    # one ValueError each, not a TypeError from iterating a scalar or a bytes "method" 104
    with pytest.raises(ValueError, match=fragment):
        make_config(**overrides)


def test_config_without_a_k_grid_equals_its_default_grid_twin(tmp_path):
    default = make_config(k_grid=None)
    explicit = make_config(k_grid=tuple(range(2, 15)))
    assert default == explicit
    paths = tf.write_study_outputs(tf.run_study(default), tmp_path / "default")
    expected = tf.write_study_outputs(tf.run_study(explicit), tmp_path / "explicit")
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in expected]


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
    assert cfg.k_grid == tuple(range(2, 20))
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


def output_bytes(result, outdir):
    return {p.name: p.read_bytes() for p in tf.write_study_outputs(result, outdir)}


def test_output_bytes_do_not_depend_on_cache_state_or_point_order(tmp_path):
    # 4 points x m = 600 replicates: streams 0..2399 span three hash blocks
    cfg = make_config(m=600)
    other = replace(cfg, seed=cfg.seed + 1)

    def cold(config, name):
        distributions._seed_block.cache_clear()
        distributions._state_block.cache_clear()
        return output_bytes(tf.run_study(config), tmp_path / name)

    first, other_first = cold(cfg, "cold"), cold(other, "other_cold")
    # each study now runs right after the other seed's study filled the block cache
    assert output_bytes(tf.run_study(cfg), tmp_path / "warmed") == first
    assert output_bytes(tf.run_study(other), tmp_path / "other_warmed") == other_first
    chunks = montecarlo._chunks(cfg)
    assert [points[0].g for points in chunks] == [0, 2]  # one chunk per axis
    rows = {points[0].g: montecarlo._evaluate_chunk(cfg, points) for points in reversed(chunks)}
    result = montecarlo.StudyResult(cfg, tuple(row for points in chunks for row in rows[points[0].g]))
    assert output_bytes(result, tmp_path / "reversed") == first
    assert len(first) == 3 and first["pareto_n.csv"] != other_first["pareto_n.csv"]


def engine_batches(points, m):
    """A chunk's batches as ``_evaluate_chunk`` cuts them: the chunks' rule with the draw bound."""
    return montecarlo._runs(points, lambda point: m * point.n, montecarlo._BATCH_DRAWS)


def oracle_chunks(points, m):
    # a count of points per chunk, cut again at each change of axis
    per_chunk = max(1, 2048 // m)
    chunks = []
    for point in points:
        if not chunks or len(chunks[-1]) == per_chunk or chunks[-1][0].axis != point.axis:
            chunks.append([])
        chunks[-1].append(point)
    return [tuple(chunk) for chunk in chunks]


def oracle_batches(points, m):
    # a running sum of draws
    batches, size = [], 0
    for point in points:
        if not batches or size + m * point.n > 2**14:
            batches.append([])
            size = 0
        batches[-1].append(point)
        size += m * point.n
    return [tuple(batch) for batch in batches]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.one_of(st.sampled_from([2, 3, 39, 40, 41, 100, 600, 1000, 1024, 2047, 2048, 2049, 5000]),
                   st.integers(2, 5000)),
       n_grid=st.lists(st.integers(5, 400), min_size=1, max_size=8, unique=True).map(sorted),
       ks=st.lists(st.integers(1, 399), min_size=1, max_size=40, unique=True),
       methods=st.lists(st.sampled_from(tf.ALL_METHODS), min_size=1, unique=True))
# m*n exactly at, just below and just above 2**14, and m at 2048 +- 1
@example(m=1024, n_grid=[15, 16, 17], ks=[3, 4], methods=["par_q", "hill"])
@example(m=2048, n_grid=[8], ks=[1, 2, 7], methods=["fr_n", "pickands"])
@example(m=2049, n_grid=[5, 6], ks=[1, 2], methods=["hh_q", "moment"])
@example(m=2047, n_grid=[8, 9], ks=[1, 2], methods=["thill"])
def test_chunks_and_batches_keep_their_bounds_property(m, n_grid, ks, methods):
    k_grid = sorted({min(k, n_grid[-1] - 1) for k in ks})
    assume(methods != ["pickands"] or 4 * k_grid[0] <= n_grid[-1])
    cfg = make_config(m=m, n_grid=tuple(n_grid), k_grid=tuple(k_grid), methods=tuple(methods))
    grid = montecarlo._grid_points(cfg)
    chunks = montecarlo._chunks(cfg)
    assert [point for chunk in chunks for point in chunk] == grid
    assert [point.g for point in grid] == list(range(len(grid)))
    for chunk in chunks:
        assert len({point.axis for point in chunk}) == 1
        assert len(chunk) * m <= 2048 or len(chunk) == 1
        for batch in engine_batches(chunk, m):
            assert sum(m * point.n for point in batch) <= 2**14 or len(batch) == 1
    assert chunks == oracle_chunks(grid, m)
    assert [engine_batches(chunk, m) for chunk in chunks] == [oracle_batches(chunk, m) for chunk in chunks]


@pytest.mark.parametrize("text", ["pareto(alpha=1,delta=1)", "t(n=4)", "gamma(alpha=0.5,beta=1)"])
def test_output_bytes_do_not_depend_on_chunking(text, tmp_path, monkeypatch):
    # 5 n-points and 6 k-points of m = 100: streams 0..1099 cross the first 1024-stream hash block
    cfg = make_config(spec=tf.parse_spec(text), m=100, n_grid=(10, 15, 20, 25, 30), k_grid=(2, 3, 5, 7, 9, 11),
                      methods=("par_n", "hh_q", "hill", "pickands", "moment"))
    chunks = montecarlo._chunks(cfg)
    assert [len(points) for points in chunks] == [5, 6]
    # at the default cap: the n-points in one batch of 10000 draws, the k-points in 15000 + 3000
    assert [len(batch) for points in chunks for batch in engine_batches(points, cfg.m)] == [5, 5, 1]
    original = distributions._quantile_array
    original_batch = montecarlo._batch_statistics
    worker_blocks, batches = [], []

    def recording(spec, u):
        if threading.current_thread() is not threading.main_thread():
            worker_blocks.append(u.size)
        return original(spec, u)

    def recording_batch(config, batch):
        batches.append([point.g for point in batch])
        return original_batch(config, batch)

    monkeypatch.setattr(distributions, "_quantile_array", recording)
    monkeypatch.setattr(montecarlo, "_batch_statistics", recording_batch)
    outputs = {}
    # a cap of 1 draw makes every point a batch of its own: at 3 threads only points
    # of 2048 draws and more split, so both split and unsplit points are drawn
    settings = itertools.product((montecarlo._CHUNK_REPLICATES, 1), (montecarlo._BATCH_DRAWS, 1), (1, 3))
    for chunk, cap, threads in settings:
        monkeypatch.setattr(montecarlo, "_CHUNK_REPLICATES", chunk)
        monkeypatch.setattr(montecarlo, "_BATCH_DRAWS", cap)
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: threads)
        assert len(montecarlo._chunks(cfg)) == (2 if chunk > 1 else 11)
        worker_blocks.clear()
        batches.clear()
        outputs[chunk, cap, threads] = output_bytes(tf.run_study(cfg), tmp_path / f"{chunk}-{cap}-{threads}")
        assert bool(worker_blocks) is (threads > 1 and cfg.spec.family != "pareto")
        # the engine draws the helper's batches, each point once and in grid order
        grouped = chunk > 1 and cap > 1
        assert batches == ([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10]] if grouped else [[g] for g in range(11)])
    reference = outputs[montecarlo._CHUNK_REPLICATES, montecarlo._BATCH_DRAWS, 1]
    assert [key for key, got in outputs.items() if got != reference] == []
    family = cfg.spec.family
    assert set(reference) == {f"{family}_n.csv", f"{family}_k.csv", f"{family}_manifest.json"}


@pytest.mark.parametrize("workers", ["2", 2.5, -3, 0, True, np.float64(2.0)])
def test_run_study_refuses_a_bad_worker_count(workers):
    # one ValueError each: neither a TypeError nor a quietly serial run
    with pytest.raises(ValueError, match="workers must be"):
        tf.run_study(make_config(), workers=workers)


def test_run_study_takes_numpy_integer_workers():
    cfg = make_config()
    assert tf.run_study(cfg, workers=np.int64(1)) == tf.run_study(cfg)


def summarize_ci_reference(values):
    """The summary as one sample's statistics: its order-kept mean and type-6 quantiles."""
    smp = tf.Sample(values)
    if smp.sorted[0] == smp.sorted[-1]:
        return (float(smp.sorted[0]),) * 3
    mean = float(np.add.reduce(smp.values)) / smp.n
    return mean, tf.empirical_quantile(smp, 0.025), tf.empirical_quantile(smp, 0.975)


def test_batched_summary_equals_summarize_ci_row_by_row():
    rng = np.random.default_rng(5)
    checked = set()
    for m in range(2, 41):  # the 2.5% quantile clamps below m = 39
        values = 1.0 / rng.pareto(0.7, size=(12, m)) * rng.uniform(0.1, 10.0, size=(12, 1))
        code = np.zeros((12, m), dtype=int)
        code[1, :] = 8  # no valid value
        code[2, 1:] = 3  # exactly one
        code[3, rng.random(m) < 0.5] = 2  # a random share
        code[4, rng.random(m) < 0.5] = 2  # the same count as row 3 or not
        values[5] = 3.3  # constant, whose sum would round
        values[6, ::2] = 0.1  # constant among its valid values
        code[6, 1::2] = 3
        values[7, ::3] *= -1.0  # non-heavy negative estimates, left out by their code
        code[7, ::3] = 5
        values[8, ::2] = np.nan  # no estimate
        code[8, ::2] = 2
        values[9] = values[10]  # two rows alike
        summaries = montecarlo._summarize_rows(values, code == 0)
        assert len(summaries) == 12
        for row, valid, summary in zip(values, code == 0, summaries):
            kept = row[valid]
            checked.add(min(kept.size, 2))
            if kept.size == 0:
                assert summary == (None, None, None, 0)
                continue
            expected = summarize_ci_reference(kept)
            assert summary[3] == kept.size
            assert [v.hex() for v in summary[:3]] == [v.hex() for v in expected], (m, row, valid)
            assert tf.summarize_ci(kept) == summary[:3]
            assert all(type(v) is float for v in summary[:3])
    assert checked == {0, 1, 2}


def test_a_batch_draws_each_run_of_same_n_points_as_one_block(monkeypatch):
    # the n-points' n differ: one block each; the k-points share n = 20: one block
    cfg = make_config(n_grid=(10, 15, 20), k_grid=(2, 3, 4, 5, 6, 7), methods=("par_n", "hill", "moment"))
    calls, original = [], distributions.sample_blocks

    def counting(spec, seed, blocks):
        calls.append(list(blocks))
        return original(spec, seed, blocks)

    monkeypatch.setattr(distributions, "sample_blocks", counting)
    tf.run_study(cfg)
    assert calls == [[(range(0, 40), 10), (range(40, 80), 15), (range(80, 120), 20)], [(range(120, 360), 20)]]


def per_point_batch_statistics(config, batch):
    """``_batch_statistics`` with one block per point, each scored on its whole matrix."""
    m = config.m
    blocks = [(range(point.g * m, (point.g + 1) * m), point.n) for point in batch]
    samples = distributions.sample_blocks(config.spec, config.seed, blocks)
    return [montecarlo.row_statistics(point.methods, rows, point.k) for rows, point in zip(samples, batch)]


def test_a_block_across_a_hash_block_edge_gives_each_point_its_own_rows(monkeypatch, tmp_path):
    # m = 40 at n = 100: four k-points per batch, one block of 160 streams; the
    # batch of points 24..27 holds streams 960..1119, and point 25 streams 1000..1039
    cfg = make_config(m=40, n_grid=(100,), k_grid=tuple(range(2, 40)),
                      methods=("hill", "thill", "pickands", "moment"))
    seen, original = {}, montecarlo.row_statistics

    def recording(methods, rows, k=None):
        seen[k] = rows.copy()
        return original(methods, rows, k)

    monkeypatch.setattr(montecarlo, "row_statistics", recording)
    blocked = output_bytes(tf.run_study(cfg), tmp_path / "blocked")
    assert sorted(seen) == list(cfg.k_grid)
    for point in montecarlo._grid_points(cfg):
        own = distributions.sample_blocks(cfg.spec, cfg.seed, [(range(point.g * 40, point.g * 40 + 40), 100)])[0]
        assert seen[point.k].tobytes() == own.tobytes(), point
    monkeypatch.setattr(montecarlo, "_batch_statistics", per_point_batch_statistics)
    assert output_bytes(tf.run_study(cfg), tmp_path / "per-point") == blocked


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


@pytest.mark.parametrize("chunk", [montecarlo._CHUNK_REPLICATES, 1])
def test_pickands_rows_respect_4k_limit(chunk, monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK_REPLICATES", chunk)
    cfg = tf.StudyConfig(spec=tf.parse_spec("pareto(alpha=1,delta=1)"), seed=2, m=10,
                         n_grid=(20,), k_grid=(2, 5, 6), methods=("pickands", "hill"))
    result = tf.run_study(cfg, workers=1)
    pk = [row.value for row in result.rows if row.method == "pickands"]
    assert pk == [2, 5]  # 4*6 = 24 > 20 filtered out
    hill_rows = [row.value for row in result.rows if row.method == "hill"]
    assert hill_rows == [2, 5, 6]
    # pickands alone: the k = 6 point scores nothing, in a chunk of its own or not
    alone = tf.run_study(replace(cfg, methods=("pickands",)))
    assert [(row.value, row.method) for row in alone.rows] == [(2, "pickands"), (5, "pickands")]
    assert alone.rows == tuple(row for row in result.rows if row.method == "pickands")


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


def csv_reference(result, axis):
    """``csv_for_axis`` as an f-string per row, with ``_fmt`` for every number field."""

    def fmt(value):
        return "" if value is None else "%.12g" % value

    lines = ["axis,method,mean,ci_low,ci_high,valid_fraction,m,seed"]
    for row in result.rows_for_axis(axis):
        lines.append(f"{row.value},{row.method},{fmt(row.mean_alpha)},{fmt(row.ci_low)},"
                     f"{fmt(row.ci_high)},{fmt(row.valid_fraction)},{result.config.m},{result.config.seed}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [0, 9, 2**63, 2**64 - 2, 2**64 - 1])
def test_csv_templates_equal_the_reference_builder(seed):
    # uniform data: par_n rows with no valid estimate, valid fractions of 0, 1 and between
    cfg = make_config(spec=tf.parse_spec("uniform(a=0,b=1)"), seed=seed, m=7, n_grid=(10, 40),
                      k_grid=(2, 5, 9), methods=("par_n", "hh_q", "hill", "moment"))
    result = tf.run_study(cfg)
    fractions = {row.valid_fraction for row in result.rows}
    assert 0.0 in fractions and 1.0 in fractions
    for axis in result.axes():
        assert result.csv_for_axis(axis) == csv_reference(result, axis)
    # crafted rows: extreme and negative statistics, exact and inexact fractions, every axis value kind
    rows = (
        montecarlo.StudyRow("n", 10, "par_n", None, None, None, 0.0),
        montecarlo.StudyRow("n", 2**40, "par_q", 5e-324, -0.0, 1.7976931348623157e308, 1.0),
        montecarlo.StudyRow("k", 3, "hill", -2.5, 1 / 3, 2 / 3, 3 / 7),
        montecarlo.StudyRow("k", 4, "thill", 1e-300, 1e-300, 1e-300, 1 / 7),
        montecarlo.StudyRow("k", 5, "moment", None, None, None, 0),
    )
    crafted = montecarlo.StudyResult(cfg, rows)
    for axis in ("n", "k"):
        assert crafted.csv_for_axis(axis) == csv_reference(crafted, axis)
    assert crafted.csv_for_axis("n").splitlines()[1] == f"10,par_n,,,,0,7,{seed}"


def test_study_row_is_a_read_only_named_tuple():
    result = tf.run_study(make_config(), workers=1)
    row = result.rows[0]
    assert montecarlo.StudyRow._fields == ("axis", "value", "method", "mean_alpha", "ci_low", "ci_high",
                                           "valid_fraction")
    assert tf.StudyRow is montecarlo.StudyRow and isinstance(row, tuple)
    for field in montecarlo.StudyRow._fields:
        with pytest.raises(AttributeError):
            setattr(row, field, None)
    assert result.row(row.axis, row.value, row.method) is row


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
