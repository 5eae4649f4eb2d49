"""Seeded replication engine for estimator-comparison studies.

A study sweeps sample size n for the fence/quartile estimators and the
order-statistic count k for the classical ones, at the largest n of the n
grid, drawing m replicates per grid point and reporting the mean estimate
with empirical 95% bands over the valid replicates.

Each grid point carries its index g in the grid, and its replicate r
always uses ``RngState(seed, stream=g*m + r)``, so results are
bit-identical for identical configs no matter how many workers evaluate the
grid. Chunks and batches are cut by one rule with two bounds (``_runs``):
consecutive points of one axis whose sizes sum to at most the bound, or a
larger point alone. A chunk holds at most ``_CHUNK_REPLICATES`` replicates,
and its points are drawn in batches of at most ``_BATCH_DRAWS`` draws, by
one ``distributions.sample_blocks`` call each. A batch's points are
consecutive in the grid, so a run of them with the same n has consecutive
streams and is drawn as one block: a k-axis batch is one block, an n-axis
batch one block per point. Point i of a run gets the run's rows i*m up to
(i + 1)*m, its m replicates as an (m, n) matrix of sorted rows, row r equal
to ``sample(spec, RngState(seed, g*m + r), n).sorted``: the streams' PCG64
seed words are sliced out of their hash blocks once per block, each row's
uniforms are drawn from its own stream straight into the batch's one float
run (one PCG64 per call, into which each later row writes its stream's
seeded state), and the run is mapped onto the open interval in place and
inverse-transformed in one pass (split over threads for gamma and Student-t).

Scoring runs in two stages. Each grid point's rows are reduced to its
methods' per-row statistics, taken at the point's k or n, by one
``estimators.row_statistics`` call, and each batch's draws are freed before
the next batch is drawn. Each method finishes the rows of the chunk's points
in one elementwise ``estimators.finish_rows`` pass, and all the chunk's
(point, method) rows are summarized in one batch. A row gets the estimate
and reason code (into ``estimators.ROW_REASONS``) that ``evaluate`` gives
its sample, and each (point, method) row is summarized over its estimates
with code 0 in replicate order, exactly as ``summarize_ci`` summarizes them
alone. So neither the chunk size, the batch size, the thread count nor the
order in which chunks run changes a byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from .distributions import NUMBER_FORMAT, DistributionSpec, RngState, checked_int
from .empirical import Sample, row_quantiles
# evaluate is not called here; the benchmark's tracer wraps this binding
from .estimators import (ALL_METHODS, CLASSICAL_METHODS, NEW_METHODS, evaluate, finish_rows,  # noqa: F401
                         row_statistics)

DEFAULT_N_GRID = tuple(range(10, 101, 5))


def _sequence(values, what: str, items: str) -> tuple:
    """``values`` as a tuple; ValueError for a string, bytes or anything not iterable."""
    if isinstance(values, (str, bytes)):  # a sequence too, of one-letter entries
        raise ValueError(f"{what} must be a sequence of {items}, not the string {values!r}")
    try:
        return tuple(values)
    except TypeError:  # an int, None, a 0-d array
        raise ValueError(f"{what} must be a sequence of {items}, got {values!r}") from None


@dataclass(frozen=True)
class StudyConfig:
    """Study definition; fully determines the output bytes."""

    spec: DistributionSpec
    seed: int
    m: int = 1000
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    k_grid: tuple[int, ...] | None = None  # None stores the default, 2..fixed_n-1
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        # Integer fields become Python ints here, so a float fails now rather
        # than deep in the engine, and a numpy integer reaches the manifest as an int.
        object.__setattr__(self, "seed", RngState(self.seed).seed)  # validates the seed range
        object.__setattr__(self, "m", checked_int(self.m, "m"))
        n_grid = _sequence(self.n_grid, "n_grid", "integers")
        object.__setattr__(self, "n_grid", tuple(checked_int(n, "n_grid entry") for n in n_grid))
        # a bad n_grid, which the default would come from, is refused below before the k_grid checks
        k_grid = (range(2, max(self.n_grid, default=2)) if self.k_grid is None
                  else _sequence(self.k_grid, "k_grid", "integers"))
        object.__setattr__(self, "k_grid", tuple(checked_int(k, "k_grid entry") for k in k_grid))
        object.__setattr__(self, "methods", _sequence(self.methods, "methods", "method names"))
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if any(n < 5 for n in self.n_grid):
            raise ValueError(f"every n must be >= 5, got {self.n_grid}")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly ascending")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for method in self.methods:
            if method not in ALL_METHODS:
                raise ValueError(f"unknown method {method!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate methods")
        n_fixed = self.fixed_n
        if not self.k_grid:
            raise ValueError("k_grid must be nonempty when given")
        if list(self.k_grid) != sorted(set(self.k_grid)):
            raise ValueError("k_grid must be strictly ascending")
        if any(not 1 <= k <= n_fixed - 1 for k in self.k_grid):
            raise ValueError(f"k_grid must lie in [1, {n_fixed - 1}], got {self.k_grid}")
        if not _grid_points(self):
            # only pickands alone can score nothing: _grid_points drops it wherever 4k > n
            raise ValueError(f"pickands needs 4k <= n = {n_fixed}, but the smallest k is {self.k_grid[0]}")

    @property
    def fixed_n(self) -> int:
        return self.n_grid[-1]


class StudyRow(NamedTuple):
    """One (axis value, method) aggregate; statistics empty when nothing was valid."""

    axis: str  # "n" or "k"
    value: int
    method: str
    mean_alpha: float | None
    ci_low: float | None
    ci_high: float | None
    valid_fraction: float


class _GridPoint(NamedTuple):
    g: int  # index in the grid: replicate r uses stream g*m + r
    axis: str
    value: int
    n: int
    k: int | None
    methods: tuple[str, ...]


def _summarize_rows(values: np.ndarray, valid: np.ndarray) -> list[tuple]:
    """Per row of ``values``: ``(mean, ci_low, ci_high, count)`` over its ``valid`` entries.

    Row by row ``summarize_ci`` of the valid entries in order, and their
    count; the three statistics are None for a row with none. Rows with the
    same count are summarized together, compacted in order into one matrix.
    """
    counts = np.count_nonzero(valid, axis=1)
    stats = np.empty((3, len(values)))
    for count in set(counts.tolist()) - {0}:
        at = counts == count
        kept = values[at][valid[at]].reshape(-1, count)  # row-major: each row in replicate order
        mean = np.add.reduce(kept, axis=1) / count
        kept.sort(axis=1)
        low = row_quantiles(kept, 0.025)
        high = row_quantiles(kept, 0.975)
        # keep mean == ci bounds exact for constant rows
        constant = kept[:, 0] == kept[:, -1]
        stats[:, at] = [np.where(constant, kept[:, 0], column) for column in (mean, low, high)]
    return [(mean, low, high, count) if count else (None, None, None, 0)
            for mean, low, high, count in zip(*stats.tolist(), counts.tolist())]


def summarize_ci(values) -> tuple[float, float, float]:
    """Mean plus empirical 2.5%/97.5% type-6 quantiles (clamped at small m)."""
    smp = Sample(values)
    mean, low, high, _ = _summarize_rows(smp.values[None, :], np.ones((1, smp.n), dtype=bool))[0]
    return mean, low, high


def _grid_points(config: StudyConfig) -> list[_GridPoint]:
    new = tuple(m for m in config.methods if m in NEW_METHODS)
    classical = tuple(m for m in config.methods if m in CLASSICAL_METHODS)
    points: list[_GridPoint] = []
    if new:
        for n in config.n_grid:
            points.append(_GridPoint(len(points), "n", n, n, None, new))
    if classical:
        n_fixed = config.fixed_n
        without_pickands = tuple(m for m in classical if m != "pickands")
        for k in config.k_grid:
            usable = classical if 4 * k <= n_fixed else without_pickands
            if usable:  # only pickands alone drops a point: the grid's tail, so no kept point's g moves
                points.append(_GridPoint(len(points), "k", k, n_fixed, k, usable))
    return points


# At most this many replicates' per-row statistics are finished and summarized
# together; a chunk is one grid point when m is larger.
_CHUNK_REPLICATES = 2048

# Consecutive points of a chunk are drawn as one batch of at most this many
# draws, and a larger point alone. 2**14 float64 values are 128 KB, glibc's
# mmap threshold: above it every temporary of the transform is mapped afresh,
# and a Pareto transform costs twice as much per draw.
_BATCH_DRAWS = 2**14


def _runs(points, size, limit: int) -> list[tuple[_GridPoint, ...]]:
    """Consecutive points of one axis in runs whose ``size`` sums to at most ``limit``, or of one point."""
    runs: list[list[_GridPoint]] = []
    total = 0
    for point in points:
        if not runs or runs[-1][-1].axis != point.axis or total + size(point) > limit:
            runs.append([])
            total = 0
        runs[-1].append(point)
        total += size(point)
    return [tuple(run) for run in runs]


def _chunks(config: StudyConfig) -> list[tuple[_GridPoint, ...]]:
    """The grid in runs of at most ``_CHUNK_REPLICATES`` replicates, or of one point."""
    return _runs(_grid_points(config), lambda point: config.m, _CHUNK_REPLICATES)


def _batch_statistics(config: StudyConfig, batch: tuple[_GridPoint, ...]) -> list[dict[str, tuple]]:
    """Per point of a batch, its methods' rows' statistics.

    A batch's points are consecutive in the grid, so the streams of a run of
    same-n points, g*m up to (g' + 1)*m, are consecutive too: each such run
    is one block of the draw (a k-axis batch is one block; an n-axis batch,
    whose points' n differ, one block per point), and point i of the run is
    scored on its rows i*m up to (i + 1)*m. The batch's draws are freed on
    return.
    """
    m = config.m
    runs = [tuple(run) for _, run in groupby(batch, key=lambda point: point.n)]
    blocks = [(range(run[0].g * m, (run[-1].g + 1) * m), run[0].n) for run in runs]
    statistics = []
    for rows, run in zip(dist.sample_blocks(config.spec, config.seed, blocks), runs):
        statistics += [row_statistics(point.methods, rows[i * m : (i + 1) * m], point.k)
                       for i, point in enumerate(run)]
    return statistics


def _evaluate_chunk(config: StudyConfig, points: tuple[_GridPoint, ...]) -> list[StudyRow]:
    """The rows of a chunk's points in grid order.

    The points are drawn in runs of at most ``_BATCH_DRAWS`` draws, the
    chunks' rule with a second bound, and each batch is reduced to its
    points' statistics before the next is drawn. Each method then finishes
    the rows of every point that scores it in one pass, and all (point,
    method) rows are summarized in one batch.
    """
    m = config.m
    statistics = []
    for batch in _runs(points, lambda point: m * point.n, _BATCH_DRAWS):
        statistics += _batch_statistics(config, batch)
    alphas, codes, owners = [], [], []
    for method in dict.fromkeys(method for point in points for method in point.methods):
        having = [i for i, point in enumerate(points) if method in point.methods]
        columns = tuple(map(np.concatenate, zip(*(statistics[i][method] for i in having))))
        alpha, code = finish_rows(method, columns)
        alphas.append(alpha.reshape(len(having), m))
        codes.append(code.reshape(len(having), m))
        owners.extend((i, method) for i in having)
    summaries = dict(zip(owners, _summarize_rows(np.concatenate(alphas), np.concatenate(codes) == 0)))
    rows = []
    for i, point in enumerate(points):
        for method in point.methods:
            mean, low, high, count = summaries[i, method]
            rows.append(StudyRow(point.axis, point.value, method, mean, low, high, count / m))
    return rows


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    rows: tuple[StudyRow, ...]

    def axes(self) -> tuple[str, ...]:
        seen = []
        for row in self.rows:
            if row.axis not in seen:
                seen.append(row.axis)
        return tuple(seen)

    def rows_for_axis(self, axis: str) -> tuple[StudyRow, ...]:
        return tuple(row for row in self.rows if row.axis == axis)

    def row(self, axis: str, value: int, method: str) -> StudyRow:
        for row in self.rows:
            if (row.axis, row.value, row.method) == (axis, value, method):
                return row
        raise KeyError(f"no row for axis={axis!r} value={value} method={method!r}")

    def csv_for_axis(self, axis: str) -> str:
        # one template for rows with statistics, filled from the row's fields after its axis,
        # and one for rows without, whose three statistics fields are empty
        number, tail = NUMBER_FORMAT, f"{self.config.m},{self.config.seed}"
        full = f"%d,%s,{number},{number},{number},{number},{tail}"
        empty = f"%d,%s,,,,{number},{tail}"
        lines = ["axis,method,mean,ci_low,ci_high,valid_fraction,m,seed"]
        lines += [full % row[1:] if row.mean_alpha is not None
                  else empty % (row.value, row.method, row.valid_fraction) for row in self.rows_for_axis(axis)]
        return "\n".join(lines) + "\n"


def _fmt(value: float | None) -> str:
    """CSV number format shared with the CLI; None is an empty field."""
    return "" if value is None else NUMBER_FORMAT % value


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported on first use.

    A serial study, the default, never loads ``multiprocessing``.
    """
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def run_study(config: StudyConfig, workers: int | None = None) -> StudyResult:
    """Run the full study; deterministic CSV bytes for a given config.

    Chunks of grid points (``_chunks``) run in this process by default
    (workers=None or 1), where a gamma or Student-t inverse transform is
    still split over threads. An explicit workers > 1 spreads the chunks over
    a process pool, whose workers each split over 1/workers of the CPUs; it
    pays only on large studies, such as the default grids (117 points at
    m=1000) of a family with a costly inverse transform. ``tailfence
    simulate`` always runs in one process; only ``run_study(config,
    workers=k)`` reaches the pool. A study of one chunk always runs in one
    process. A point's grid index g fixes its streams, and results are
    gathered in chunk order, so the bytes do not depend on ``workers``.
    ValueError unless ``workers`` is None or an integer >= 1.
    """
    if workers is not None:
        workers = checked_int(workers, "workers")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = _chunks(config)
    if workers is not None and workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=dist._share_cpus, initargs=(workers,)) as pool:
            results = list(pool.map(_evaluate_chunk, [config] * len(chunks), chunks))
    else:
        results = [_evaluate_chunk(config, points) for points in chunks]
    rows: list[StudyRow] = []
    for chunk in results:
        rows.extend(chunk)
    return StudyResult(config=config, rows=tuple(rows))


def write_study_outputs(result: StudyResult, outdir) -> list[Path]:
    """Write one CSV per axis type plus a JSON run manifest; returns the paths."""
    from . import __version__

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = result.config
    prefix = config.spec.family
    paths = []
    for axis in result.axes():
        path = outdir / f"{prefix}_{axis}.csv"
        path.write_text(result.csv_for_axis(axis))
        paths.append(path)
    manifest = {
        "family": config.spec.family,
        "params": config.spec.params,
        "seed": config.seed,
        "m": config.m,
        "n_grid": list(config.n_grid),
        "k_grid": list(config.k_grid),
        "n_for_k": config.fixed_n,
        "methods": list(config.methods),
        "files": [p.name for p in paths],
        "version": __version__,
    }
    manifest_path = outdir / f"{prefix}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    paths.append(manifest_path)
    return paths
