"""Order statistics, the type-6 empirical quantile, and empirical outlier rates.

The quantile convention interpolates linearly between order statistics at
plotting positions k/(n+1) (R's ``quantile(..., type = 6)``), so the k-th
order statistic is returned exactly at p = k/(n+1).

A sample's fences are always the paper's standard Tukey fences (1.5*IQR and
3*IQR beyond the quartiles); only the theoretical characteristics in
``tail_chars`` take other multipliers. The four outlier rates are read off
the band counts of ``outlier_band_counts``. ``row_quantiles`` and
``row_fence_characteristics`` do the same for every row of a matrix of
sorted samples at once, in the same float steps as for one sample; the
fence/quartile estimators read even a single sample's quartiles, fence and
count through them, as a 1-row matrix.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .fences import DEFAULT_OUTER, Fences, fence_pair, fences_from_quartiles


_KNOT_FUZZ = 8.0 * float(np.finfo(float).eps)


class Sample:
    """Immutable collection of finite observations and their order statistics.

    ``values`` keeps the input order and ``sorted`` the ascending order, both
    read-only. Every estimator reads a sample as the 1-row matrix
    ``sorted[None, :]``; the study engine draws its replicates as one such
    matrix per grid point and builds no Sample for them.
    """

    __slots__ = ("values", "sorted")

    def __init__(self, values):
        arr = np.array(values, dtype=float, ndmin=1)  # a copy: the caller's array stays theirs
        if arr.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if arr.size < 1:
            raise ValueError("sample must contain at least one observation")
        ordered = arr.copy()
        ordered.sort()
        # NaN sorts last and -inf/+inf to the ends, so the extremes decide.
        if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
            raise ValueError("sample contains NaN or infinite values")
        arr.flags.writeable = False
        ordered.flags.writeable = False
        self.values = arr
        self.sorted = ordered

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self.sorted[0]:g}, max={self.sorted[-1]:g})"


def _type6_knot(n: int, p: float) -> tuple[int, float, bool]:
    """Where the type-6 p-quantile of n order statistics lies: ``(i, g, clamped)``.

    The quantile is ``x[i] + g * (x[i + 1] - x[i])`` of the sorted values
    ``x``, and ``x[i]`` itself when g == 0. clamped marks p outside
    [1/(n+1), n/(n+1)], infinite p included; NaN p raises ValueError.
    """
    if math.isnan(p):
        raise ValueError(f"quantile level p must not be NaN, got p={p}")
    h = p * (n + 1)
    # Snap to the plotting-position knots: p = k/(n+1) must return X_(k:n)
    # bit-exactly even though h = p*(n+1) carries rounding error.
    fuzz = _KNOT_FUZZ * max(1.0, abs(h))
    if h < 1.0 - fuzz or h == -math.inf:
        return 0, 0.0, True
    if h > n + fuzz or h == math.inf:
        return n - 1, 0.0, True
    j = int(math.floor(h + fuzz))
    g = h - j
    if g < fuzz or j >= n:
        return min(j, n) - 1, 0.0, False
    return j - 1, g, False


def empirical_quantile_flagged(sample: Sample, p: float) -> tuple[float, bool]:
    """Type-6 quantile with a flag marking p outside [1/(n+1), n/(n+1)].

    Out-of-range p, infinite p included, is clamped to the nearest extreme
    order statistic instead of raising, so small-sample pipelines degrade
    gracefully. NaN p raises ValueError.
    """
    x = sample.sorted
    i, g, clamped = _type6_knot(x.size, p)
    if g == 0.0:
        return float(x[i]), clamped
    return float(x[i] + g * (x[i + 1] - x[i])), clamped


def empirical_quantile(sample: Sample, p: float) -> float:
    """Type-6 empirical quantile (clamped outside the valid p-range)."""
    value, _ = empirical_quantile_flagged(sample, p)
    return value


def empirical_fences(sample: Sample) -> Fences:
    """Standard Tukey fences from the type-6 empirical quartiles; requires n >= 3."""
    if sample.n < 3:
        raise ValueError("sample too small for quartile fences")
    return fences_from_quartiles(empirical_quantile(sample, 0.25), empirical_quantile(sample, 0.75))


def row_quantiles(rows: np.ndarray, p: float) -> np.ndarray:
    """Type-6 p-quantile of each row of a matrix whose rows are sorted samples.

    Row by row the same value as ``empirical_quantile(Sample(row), p)``.
    """
    i, g, _ = _type6_knot(rows.shape[1], p)
    if g == 0.0:
        return rows[:, i]
    return rows[:, i] + g * (rows[:, i + 1] - rows[:, i])


def row_fence_characteristics(rows: np.ndarray):
    """Quartiles, upper outer fence and the count above it, per sorted row.

    Returns the arrays ``(q1, q3, outer_high, above)``; row by row they equal
    the quartiles and upper outer fence of ``empirical_fences(Sample(row))``
    and the extreme-right count of ``outlier_band_counts(Sample(row))``.
    Requires rows of at least 3 observations.
    """
    if rows.shape[1] < 3:
        raise ValueError("sample too small for quartile fences")
    q1 = row_quantiles(rows, 0.25)
    q3 = row_quantiles(rows, 0.75)
    with np.errstate(over="ignore"):  # as the Python floats of one sample: inf, no warning
        _, outer_high = fence_pair(q1, q3, DEFAULT_OUTER)
    above = np.count_nonzero(rows > outer_high[:, None], axis=1)
    return q1, q3, outer_high, above


def outlier_band_counts(sample: Sample) -> tuple[int, int, int, int, int]:
    """Counts in the five bands (extreme-left, mild-left, in-fence, mild-right, extreme-right).

    The bands partition the sample exactly: fence-equal points count as in-fence
    (strict inequalities on both sides, mirroring the theoretical definitions).
    """
    fen = empirical_fences(sample)
    x = sample.sorted
    n = sample.n
    below_outer = int(np.searchsorted(x, fen.outer_low, side="left"))
    below_inner = int(np.searchsorted(x, fen.inner_low, side="left"))
    above_inner = n - int(np.searchsorted(x, fen.inner_high, side="right"))
    above_outer = n - int(np.searchsorted(x, fen.outer_high, side="right"))
    inside = n - below_inner - above_inner
    return (
        below_outer,
        below_inner - below_outer,
        inside,
        above_inner - above_outer,
        above_outer,
    )


def empirical_p_eR(sample: Sample) -> float:
    """Fraction of extreme right outliers: observations above the outer fence."""
    return outlier_band_counts(sample)[4] / sample.n


def empirical_p_eL(sample: Sample) -> float:
    """Fraction of extreme left outliers: observations below the outer fence."""
    return outlier_band_counts(sample)[0] / sample.n


def empirical_p_mR(sample: Sample) -> float:
    """Fraction of mild right outliers: between the inner and outer fences."""
    *_, mild, extreme = outlier_band_counts(sample)
    # P(X > inner fence) - P(X > outer fence), each estimated by its own fraction
    return (mild + extreme) / sample.n - extreme / sample.n


def empirical_p_mL(sample: Sample) -> float:
    """Fraction of mild left outliers: between the inner and outer fences."""
    extreme, mild, *_ = outlier_band_counts(sample)
    return (extreme + mild) / sample.n - extreme / sample.n


def load_sample(path) -> Sample:
    """Read a sample from newline-delimited decimal text or single-column CSV.

    A non-numeric first line is treated as a header and skipped.
    """
    lines = Path(path).read_text().splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data")
    start = 0
    try:
        float(rows[0][1])
    except ValueError:
        start = 1  # header
    values = []
    for lineno, text in rows[start:]:
        try:
            values.append(float(text))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse {text!r} as a number") from None
    if not values:
        raise ValueError(f"{path}: no data after header")
    return Sample(values)
