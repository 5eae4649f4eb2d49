"""Tail-index estimators.

Six fence/quartile estimators invert the outer-fence exceedance rate or the
quartile ratio of an assumed family (Pareto, Frechet, Hill-horror), using the
type-6 empirical quartiles and the standard 3*IQR outer fence baked into
their derivations. The classical comparators (Hill, t-Hill, Pickands,
moment) use the usual upper-order-statistic forms from the literature.

Every estimator returns an :class:`EstimateRecord`; data-dependent failures
(no outliers, tied order statistics, family mismatch) are reported as
invalid records rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, empirical_fences, extreme_right_count

_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)
_LOGLOG4 = math.log(math.log(4.0))
_LOGLOG43 = math.log(math.log(4.0 / 3.0))

FENCE_FAMILIES = ("pareto", "frechet", "hillhorror")
FENCE_METHODS = ("par_n", "fr_n", "hh_n")
QUARTILE_METHODS = ("par_q", "fr_q", "hh_q")
NEW_METHODS = ("par_n", "par_q", "fr_n", "fr_q", "hh_n", "hh_q")
CLASSICAL_METHODS = ("hill", "thill", "pickands", "moment")
ALL_METHODS = NEW_METHODS + CLASSICAL_METHODS

_FENCE_METHOD_BY_FAMILY = dict(zip(FENCE_FAMILIES, FENCE_METHODS))
_QUARTILE_METHOD_BY_FAMILY = dict(zip(FENCE_FAMILIES, QUARTILE_METHODS))


@dataclass(frozen=True)
class EstimateRecord:
    """One estimator outcome: point estimate plus validity diagnostics.

    alpha_hat may carry a non-positive value alongside valid=False (reason
    "family mismatch" / "non-heavy tail estimate") as diagnostic evidence;
    valid=True always implies a finite positive estimate.
    """

    method: str
    alpha_hat: float | None
    valid: bool
    reason: str = ""
    k: int | None = None


def _invalid(method: str, reason: str, k: int | None = None) -> EstimateRecord:
    return EstimateRecord(method=method, alpha_hat=None, valid=False, reason=reason, k=k)


def _checked(method: str, alpha: float, k: int | None = None) -> EstimateRecord:
    if not math.isfinite(alpha):
        return _invalid(method, "non-finite estimate", k)
    if alpha <= 0.0:
        # Surfaced, not clamped: diagnostic evidence of misclassified data.
        return EstimateRecord(method, alpha, False, "family mismatch", k)
    return EstimateRecord(method, alpha, True, "", k)


def estimate_fence_prob(sample: Sample, family: str) -> EstimateRecord:
    """Invert the outer-fence exceedance rate under the assumed family."""
    if family not in FENCE_FAMILIES:
        raise ValueError(f"family must be one of {FENCE_FAMILIES}, got {family!r}")
    method = _FENCE_METHOD_BY_FAMILY[family]
    fen = empirical_fences(sample)
    p = extreme_right_count(sample) / sample.n
    if p == 0.0:
        return _invalid(method, "no extreme outliers observed")
    if fen.outer_high <= 0.0:
        return _invalid(method, "outer fence not positive")
    if family == "hillhorror":
        denom = math.log(-math.log(p) / fen.outer_high)
        if denom == 0.0:
            return _invalid(method, "outer fence equals -log(p_eR)")
        return _checked(method, math.log(p) / denom)
    denom = math.log(fen.outer_high)
    if denom == 0.0:
        return _invalid(method, "outer fence equals 1")
    if family == "pareto":
        return _checked(method, -math.log(p) / denom)
    return _checked(method, -math.log(-math.log1p(-p)) / denom)


def estimate_quartile_ratio(sample: Sample, family: str) -> EstimateRecord:
    """Invert the theoretical quartile ratio of the assumed family."""
    if family not in FENCE_FAMILIES:
        raise ValueError(f"family must be one of {FENCE_FAMILIES}, got {family!r}")
    method = _QUARTILE_METHOD_BY_FAMILY[family]
    fen = empirical_fences(sample)
    if fen.q1 <= 0.0:
        return _invalid(method, "needs positive quartiles")
    if fen.q1 == fen.q3:
        return _invalid(method, "equal quartiles")
    spread = math.log(fen.q3) - math.log(fen.q1)
    if family == "hillhorror":
        # The denominator is never 0: that needs spread + loglog(4/3) to equal
        # loglog(4), so spread ~ 1.57 and the sum is an exact multiple of
        # 2^-52, which loglog(4) is not.
        return _checked(method, _LOG3 / (spread + _LOGLOG43 - _LOGLOG4))
    if spread == 0.0:
        # q1 < q3 so close (e.g. adjacent floats near 1e300) that their logs agree
        return _invalid(method, "non-finite estimate")
    if family == "pareto":
        return _checked(method, _LOG3 / spread)
    return _checked(method, (_LOGLOG4 - _LOGLOG43) / spread)


def _mean(values: np.ndarray) -> float:
    # np.mean's sum and division without its per-call dispatch: same bits
    return float(np.add.reduce(values)) / values.size


def _top_order_stats(sample: Sample, k: int):
    n = sample.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    x = sample.sorted
    return x[n - k :], x.item(n - k - 1)  # top k values and the (n-k)-th order statistic


def _log_excesses(sample: Sample, k: int, tail: np.ndarray, base: float) -> np.ndarray:
    # log(tail / base), which hill and moment share: cached on the sample for
    # the last k. Callers do not write into it.
    cached = sample._log_excess
    if cached is None or cached[0] != k:
        cached = sample._log_excess = (k, np.log(tail / base))
    return cached[1]


def hill(sample: Sample, k: int) -> EstimateRecord:
    """Hill estimator: reciprocal mean log-excess over the (n-k)-th order statistic."""
    tail, base = _top_order_stats(sample, k)
    if base <= 0.0:
        return _invalid("hill", "requires positive order statistics", k)
    if tail.item(-1) / base == math.inf:  # the largest excess ratio overflows (no numpy warning)
        return _invalid("hill", "non-finite estimate", k)
    gamma = _mean(_log_excesses(sample, k, tail, base))
    if gamma == 0.0:
        return _invalid("hill", "degenerate tail", k)
    return EstimateRecord("hill", 1.0 / gamma, True, "", k)


def t_hill(sample: Sample, k: int) -> EstimateRecord:
    """t-Hill estimator via the harmonic-mean ratio T = mean(base/tail).

    For a Pareto tail E[t/X | X > t] = alpha/(alpha+1), so alpha is
    recovered as T/(1-T). Kept as the single place encoding that
    normalization in case a different convention is ever preferred.
    """
    tail, base = _top_order_stats(sample, k)
    if base <= 0.0:
        return _invalid("thill", "requires positive order statistics", k)
    t = _mean(base / tail)
    if t == 0.0:  # every ratio base / tail underflows (no numpy warning): t > 0 in exact arithmetic
        return _invalid("thill", "non-finite estimate", k)
    if t >= 1.0:
        return _invalid("thill", "degenerate tail", k)
    return _checked("thill", t / (1.0 - t), k)


def pickands(sample: Sample, k: int) -> EstimateRecord:
    """Pickands estimator from the (k, 2k, 4k) upper order statistics."""
    n = sample.n
    if k < 1 or 4 * k > n:
        raise ValueError(f"k must satisfy 1 <= k and 4k <= n, got k={k}, n={n}")
    x = sample.sorted
    # Python floats: an overflowing spacing ratio becomes inf without a numpy warning
    a, b, c = x.item(n - k), x.item(n - 2 * k), x.item(n - 4 * k)
    upper, lower = a - b, b - c
    if upper == 0.0 or lower == 0.0:
        return _invalid("pickands", "tied order statistics", k)
    ratio = upper / lower
    if not 0.0 < ratio < math.inf:
        # the spacings are so far apart in scale that their ratio under- or overflows
        return _invalid("pickands", "non-finite estimate", k)
    gamma = math.log(ratio) / _LOG2
    if gamma == 0.0:
        return _invalid("pickands", "zero tail-index estimate", k)
    alpha = 1.0 / gamma
    if gamma < 0.0:
        return EstimateRecord("pickands", alpha, False, "non-heavy tail estimate", k)
    return EstimateRecord("pickands", alpha, True, "", k)


def moment_dedh(sample: Sample, k: int) -> EstimateRecord:
    """Moment (Dekkers-Einmahl-de Haan) estimator from log-excess moments."""
    tail, base = _top_order_stats(sample, k)
    if base <= 0.0:
        return _invalid("moment", "requires positive order statistics", k)
    if tail.item(-1) / base == math.inf:  # as in hill: the largest excess ratio overflows
        return _invalid("moment", "non-finite estimate", k)
    logs = _log_excesses(sample, k, tail, base)
    m1 = _mean(logs)
    m2 = _mean(logs * logs)
    if m2 == 0.0:
        return _invalid("moment", "degenerate tail", k)
    ratio = m1 * m1 / m2
    if ratio == 1.0:
        return _invalid("moment", "degenerate moment ratio", k)
    gamma = m1 + 1.0 - 0.5 / (1.0 - ratio)
    if gamma == 0.0:
        return _invalid("moment", "non-heavy tail estimate", k)
    alpha = 1.0 / gamma
    if gamma < 0.0:
        return EstimateRecord("moment", alpha, False, "non-heavy tail estimate", k)
    return EstimateRecord("moment", alpha, True, "", k)


_CLASSICAL = {"hill": hill, "thill": t_hill, "pickands": pickands, "moment": moment_dedh}


def evaluate(method: str, sample: Sample, k: int | None = None) -> EstimateRecord:
    """Dispatch by CLI method name; classical methods require k."""
    if method in FENCE_METHODS:
        family = FENCE_FAMILIES[FENCE_METHODS.index(method)]
        return estimate_fence_prob(sample, family)
    if method in QUARTILE_METHODS:
        family = FENCE_FAMILIES[QUARTILE_METHODS.index(method)]
        return estimate_quartile_ratio(sample, family)
    if method in _CLASSICAL:
        if k is None:
            raise ValueError(f"method {method!r} requires k")
        return _CLASSICAL[method](sample, k)
    raise ValueError(f"unknown method {method!r}")
