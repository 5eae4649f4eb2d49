"""Seeded replication engine for estimator-comparison studies.

A study sweeps sample size n for the fence/quartile estimators and the
order-statistic count k for the classical ones, at the largest n of the n
grid, drawing m replicates per grid point and reporting the mean estimate
with empirical 95% bands over the valid replicates.

Replicate r at grid point g always uses ``RngState(seed, stream=g*m + r)``,
so results are bit-identical for identical configs no matter how many
workers evaluate the grid. ``distributions.sample_rows`` draws a grid
point's m replicates as one (m, n) matrix of sorted rows, row r equal to
``sample(spec, RngState(seed, g*m + r), n).sorted``: the m streams' PCG64
seed words are sliced out of their hash blocks once, each row's raw words
come from its own stream's PCG64, and the mapping to uniforms, the inverse
transform and the sort run once over the matrix. At an n-point,
``evaluate_rows`` scores the matrix: it computes every row's quartiles,
upper outer fence and count above it at once, then runs each method's
inversion once per row. At a k-point, one ``classical_rows`` call scores
all its classical methods from one shared block of top order statistics
(and one set of log-excesses for Hill and moment). Either way a row gets
the estimate and reason code (into ``estimators.ROW_REASONS``) that
``evaluate`` gives its sample, and the estimates with code 0 reach
``summarize_ci`` in replicate order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from . import distributions as dist
from .distributions import DistributionSpec, RngState, checked_int
from .empirical import Sample, empirical_quantile
# evaluate is not called here; the benchmark's tracer wraps this binding
from .estimators import (ALL_METHODS, CLASSICAL_METHODS, NEW_METHODS, _mean, classical_rows,  # noqa: F401
                         evaluate, evaluate_rows)

DEFAULT_N_GRID = tuple(range(10, 101, 5))


@dataclass(frozen=True)
class StudyConfig:
    """Study definition; fully determines the output bytes."""

    spec: DistributionSpec
    seed: int
    m: int = 1000
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    k_grid: tuple[int, ...] | None = None  # default 2..fixed_n-1, fixed_n = max(n_grid)
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        # Integer fields become Python ints here, so a float fails now rather
        # than deep in the engine, and a numpy integer reaches the manifest as an int.
        object.__setattr__(self, "seed", RngState(self.seed).seed)  # validates the seed range
        object.__setattr__(self, "m", checked_int(self.m, "m"))
        object.__setattr__(self, "n_grid", tuple(checked_int(n, "n_grid entry") for n in self.n_grid))
        if self.k_grid is not None:
            object.__setattr__(self, "k_grid", tuple(checked_int(k, "k_grid entry") for k in self.k_grid))
        object.__setattr__(self, "methods", tuple(self.methods))  # a list must not skip the pickands check
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
        if self.k_grid is not None:
            if not self.k_grid:
                raise ValueError("k_grid must be nonempty when given")
            if list(self.k_grid) != sorted(set(self.k_grid)):
                raise ValueError("k_grid must be strictly ascending")
            if any(not 1 <= k <= n_fixed - 1 for k in self.k_grid):
                raise ValueError(f"k_grid must lie in [1, {n_fixed - 1}], got {self.k_grid}")
        k_min = self.effective_k_grid[0]
        if self.methods == ("pickands",) and 4 * k_min > n_fixed:
            # _grid_points drops pickands wherever 4k > n: no row would be written
            raise ValueError(f"pickands needs 4k <= n = {n_fixed}, but the smallest k is {k_min}")

    @property
    def fixed_n(self) -> int:
        return self.n_grid[-1]

    @property
    def effective_k_grid(self) -> tuple[int, ...]:
        if self.k_grid is not None:
            return self.k_grid
        return tuple(range(2, self.fixed_n))


@dataclass(frozen=True)
class StudyRow:
    """One (axis value, method) aggregate; statistics empty when nothing was valid."""

    axis: str  # "n" or "k"
    value: int
    method: str
    mean_alpha: float | None
    ci_low: float | None
    ci_high: float | None
    valid_fraction: float


class _GridPoint(NamedTuple):
    axis: str
    value: int
    n: int
    k: int | None
    methods: tuple[str, ...]


def summarize_ci(values) -> tuple[float, float, float]:
    """Mean plus empirical 2.5%/97.5% type-6 quantiles (clamped at small m)."""
    smp = Sample(values)
    if smp.sorted[0] == smp.sorted[-1]:
        # keep mean == ci bounds exact for constant collections
        return (float(smp.sorted[0]),) * 3
    return (
        _mean(smp.values),
        empirical_quantile(smp, 0.025),
        empirical_quantile(smp, 0.975),
    )


def _grid_points(config: StudyConfig) -> list[_GridPoint]:
    new = tuple(m for m in config.methods if m in NEW_METHODS)
    classical = tuple(m for m in config.methods if m in CLASSICAL_METHODS)
    points: list[_GridPoint] = []
    if new:
        for n in config.n_grid:
            points.append(_GridPoint("n", n, n, None, new))
    if classical:
        n_fixed = config.fixed_n
        for k in config.effective_k_grid:
            usable = tuple(m for m in classical if m != "pickands" or 4 * k <= n_fixed)
            points.append(_GridPoint("k", k, n_fixed, k, usable))
    return points


def _evaluate_point(config: StudyConfig, g: int, point: _GridPoint) -> list[StudyRow]:
    if not point.methods:
        return []
    first = g * config.m
    samples = dist.sample_rows(config.spec, config.seed, range(first, first + config.m), point.n)
    if point.k is None:
        scored = evaluate_rows(point.methods, samples)
    else:
        scored = classical_rows(point.methods, samples, point.k)
    rows = []
    for method, (alpha, code) in scored.items():
        values = alpha[code == 0]
        if values.size:
            mean, lo, hi = summarize_ci(values)
        else:
            mean = lo = hi = None
        rows.append(
            StudyRow(
                axis=point.axis,
                value=point.value,
                method=method,
                mean_alpha=mean,
                ci_low=lo,
                ci_high=hi,
                valid_fraction=values.size / config.m,
            )
        )
    return rows


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    rows: tuple[StudyRow, ...]

    @cached_property
    def _index(self) -> dict[tuple[str, int, str], StudyRow]:
        return {(row.axis, row.value, row.method): row for row in self.rows}

    def axes(self) -> tuple[str, ...]:
        seen = []
        for row in self.rows:
            if row.axis not in seen:
                seen.append(row.axis)
        return tuple(seen)

    def rows_for_axis(self, axis: str) -> tuple[StudyRow, ...]:
        return tuple(row for row in self.rows if row.axis == axis)

    def row(self, axis: str, value: int, method: str) -> StudyRow:
        try:
            return self._index[(axis, value, method)]
        except KeyError:
            raise KeyError(f"no row for axis={axis!r} value={value} method={method!r}") from None

    def csv_for_axis(self, axis: str) -> str:
        lines = ["axis,method,mean,ci_low,ci_high,valid_fraction,m,seed"]
        for row in self.rows_for_axis(axis):
            lines.append(
                f"{row.value},{row.method},{_fmt(row.mean_alpha)},{_fmt(row.ci_low)},"
                f"{_fmt(row.ci_high)},{_fmt(row.valid_fraction)},{self.config.m},{self.config.seed}"
            )
        return "\n".join(lines) + "\n"


def _fmt(value: float | None) -> str:
    """CSV number format shared with the CLI; None is an empty field."""
    return "" if value is None else f"{value:.12g}"


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported on first use.

    A serial study, the default, never loads ``multiprocessing``.
    """
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def run_study(config: StudyConfig, workers: int | None = None) -> StudyResult:
    """Run the full study; deterministic CSV bytes for a given config.

    Grid points run in this process by default (workers=None or 1). An
    explicit workers > 1 spreads them over a process pool, which pays only on
    large studies: on a 2-core x86 host, serial vs 2 workers took 0.057 s vs
    0.081 s for the 98-point Pareto k-sweep at m=40, 0.013 s vs 0.031 s for
    the 19-point t(4) n-sweep at m=8, and for a default `simulate` (117
    points, m=1000) 1.26 s vs 0.70 s on Pareto(0.5, 1) and 8.8 s vs 4.3 s on
    t(4) (medians of 9, 9, 3 and 3 interleaved runs). A one-point study
    always runs in one process. Results are gathered by grid-point index,
    never by completion order, so the bytes do not depend on ``workers``.
    """
    points = _grid_points(config)
    if workers is not None and workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_point, [config] * len(points),
                                   range(len(points)), points))
    else:
        chunks = [_evaluate_point(config, g, point) for g, point in enumerate(points)]
    rows: list[StudyRow] = []
    for chunk in chunks:
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
        "k_grid": list(config.effective_k_grid),
        "n_for_k": config.fixed_n,
        "methods": list(config.methods),
        "files": [p.name for p in paths],
        "version": __version__,
    }
    manifest_path = outdir / f"{prefix}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    paths.append(manifest_path)
    return paths
