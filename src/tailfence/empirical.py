"""Order statistics, the type-6 empirical quantile, and empirical outlier rates.

The quantile convention interpolates linearly between order statistics at
plotting positions k/(n+1) (R's ``quantile(..., type = 6)``), so the k-th
order statistic is returned exactly at p = k/(n+1).

A sample's fences are always the paper's standard Tukey fences (1.5*IQR and
3*IQR beyond the quartiles); only the theoretical characteristics in
``tail_chars`` take other multipliers. The four outlier rates are read off
the band counts of ``outlier_band_counts``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .fences import Fences, fences_from_quartiles


_KNOT_FUZZ = 8.0 * float(np.finfo(float).eps)


class Sample:
    """Immutable collection of finite observations with cached order statistics.

    The standard fences and the count above the upper outer fence are computed
    on first use and cached too, so the six fence/quartile estimators of one
    sample share one pair of quartiles and one count. So are the log-excesses
    over the (n-k)-th order statistic, for the last k asked for, which Hill
    and the moment estimator share.
    """

    __slots__ = ("values", "sorted", "_fences", "_above_outer", "_log_excess")

    def __init__(self, values):
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        if arr.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if arr.size < 1:
            raise ValueError("sample must contain at least one observation")
        ordered = arr.copy()
        ordered.sort()
        # NaN sorts last and -inf/+inf to the ends, so the extremes decide.
        if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
            raise ValueError("sample contains NaN or infinite values")
        self.values = arr.copy()
        self.sorted = ordered
        self.values.flags.writeable = False
        self.sorted.flags.writeable = False
        self._fences = None
        self._above_outer = None
        self._log_excess = None  # (k, log-excesses), filled by estimators.hill/moment_dedh

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self.sorted[0]:g}, max={self.sorted[-1]:g})"


def empirical_quantile_flagged(sample: Sample, p: float) -> tuple[float, bool]:
    """Type-6 quantile with a flag marking p outside [1/(n+1), n/(n+1)].

    Out-of-range p is clamped to the nearest extreme order statistic
    instead of raising, so small-sample pipelines degrade gracefully.
    """
    x = sample.sorted
    n = x.size
    h = p * (n + 1)
    # Snap to the plotting-position knots: p = k/(n+1) must return X_(k:n)
    # bit-exactly even though h = p*(n+1) carries rounding error.
    fuzz = _KNOT_FUZZ * max(1.0, abs(h))
    if h < 1.0 - fuzz:
        return float(x[0]), True
    if h > n + fuzz:
        return float(x[-1]), True
    j = int(math.floor(h + fuzz))
    g = h - j
    if g < fuzz or j >= n:
        j = min(j, n)
        return float(x[j - 1]), False
    return float(x[j - 1] + g * (x[j] - x[j - 1])), False


def empirical_quantile(sample: Sample, p: float) -> float:
    """Type-6 empirical quantile (clamped outside the valid p-range)."""
    value, _ = empirical_quantile_flagged(sample, p)
    return value


def empirical_fences(sample: Sample) -> Fences:
    """Standard Tukey fences from the type-6 empirical quartiles; requires n >= 3."""
    if sample.n < 3:
        raise ValueError("sample too small for quartile fences")
    if sample._fences is None:
        q1 = empirical_quantile(sample, 0.25)
        q3 = empirical_quantile(sample, 0.75)
        sample._fences = fences_from_quartiles(q1, q3)
    return sample._fences


def extreme_right_count(sample: Sample) -> int:
    """Number of observations strictly above the upper outer fence; requires n >= 3."""
    if sample._above_outer is None:
        fen = empirical_fences(sample)
        below = int(np.searchsorted(sample.sorted, fen.outer_high, side="right"))
        sample._above_outer = sample.n - below
    return sample._above_outer


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
    above_outer = extreme_right_count(sample)
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
