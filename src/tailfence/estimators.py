"""Tail-index estimators.

Six fence/quartile estimators invert the outer-fence exceedance rate or the
quartile ratio of an assumed family (Pareto, Frechet, Hill-horror), using the
type-6 empirical quartiles and the standard 3*IQR outer fence baked into
their derivations. Each inversion is a function of characteristics,
``alpha_from_fence_prob(family, p_eR, outer_high)`` or
``alpha_from_quartiles(family, q1, q3)``. ``evaluate_rows`` runs it on the
characteristics of every row of a matrix of sorted samples. The classical
comparators (Hill, t-Hill, Pickands, moment) use the usual upper-order-statistic
forms from the literature, each written once as a row form that
``classical_rows`` runs on every row of such a matrix at once; the methods
scored together share one block of top order statistics, and Hill and moment
one set of log-excesses.

All ten methods return one row result, ``{method: (alpha, code)}``: per row
the estimate (NaN where there is none) and its reason's index in
``ROW_REASONS`` (0: valid), so data-dependent failures are codes, never
exceptions. ``evaluate``, the named estimators and the two inversions
return a 1-row result as an :class:`EstimateRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .distributions import checked_int
from .empirical import Sample, row_fence_characteristics

_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)
_LOGLOG4 = math.log(math.log(4.0))
_LOGLOG43 = math.log(math.log(4.0 / 3.0))

CLASSICAL_METHODS = ("hill", "thill", "pickands", "moment")


@dataclass(frozen=True)
class EstimateRecord:
    """One sample's estimator outcome, built from its 1-row result.

    alpha_hat is None where the row's estimate is NaN, and reason is the
    row's ``ROW_REASONS`` entry. A non-positive alpha_hat comes with
    valid=False (reason "family mismatch" / "non-heavy tail estimate") as
    diagnostic evidence; valid=True always implies a finite positive estimate.
    """

    method: str
    alpha_hat: float | None
    valid: bool
    reason: str = ""
    k: int | None = None


ROW_REASONS = (
    "",
    "requires positive order statistics",
    "non-finite estimate",
    "degenerate tail",
    "degenerate moment ratio",
    "non-heavy tail estimate",
    "tied order statistics",
    "zero tail-index estimate",
    "no extreme outliers observed",
    "outer fence not positive",
    "outer fence equals -log(p_eR)",
    "outer fence equals 1",
    "needs positive quartiles",
    "equal quartiles",
    "family mismatch",
)
(_VALID, _NOT_POSITIVE, _NON_FINITE, _DEGENERATE, _DEGENERATE_RATIO, _NON_HEAVY, _TIED, _ZERO_INDEX,
 _NO_OUTLIERS, _FENCE_NOT_POSITIVE, _FENCE_AT_LOG_P, _FENCE_AT_ONE, _QUARTILES_NOT_POSITIVE,
 _EQUAL_QUARTILES, _MISMATCH) = range(len(ROW_REASONS))


def _record(method: str, alpha: float, code: int, k: int | None) -> EstimateRecord:
    return EstimateRecord(method, None if math.isnan(alpha) else alpha, code == _VALID, ROW_REASONS[code], k)


def _graded(alpha: float) -> tuple[float, int]:
    if not math.isfinite(alpha):
        return math.nan, _NON_FINITE
    # A non-positive estimate is surfaced, not clamped: diagnostic evidence of misclassified data.
    return alpha, _VALID if alpha > 0.0 else _MISMATCH


def _fence_row(family: str, p_eR: float, outer_high: float) -> tuple[float, int]:
    if p_eR == 0.0:
        return math.nan, _NO_OUTLIERS
    if outer_high <= 0.0:
        return math.nan, _FENCE_NOT_POSITIVE
    if family == "hillhorror":
        denom = math.log(-math.log(p_eR) / outer_high)
        if denom == 0.0:
            return math.nan, _FENCE_AT_LOG_P
        return _graded(math.log(p_eR) / denom)
    denom = math.log(outer_high)
    if denom == 0.0:
        return math.nan, _FENCE_AT_ONE
    if family == "pareto":
        return _graded(-math.log(p_eR) / denom)
    return _graded(-math.log(-math.log1p(-p_eR)) / denom)


def _quartile_row(family: str, q1: float, q3: float) -> tuple[float, int]:
    if q1 <= 0.0:
        return math.nan, _QUARTILES_NOT_POSITIVE
    if q1 == q3:
        return math.nan, _EQUAL_QUARTILES
    spread = math.log(q3) - math.log(q1)
    if family == "hillhorror":
        # The denominator is never 0: that needs spread + loglog(4/3) to equal
        # loglog(4), so spread ~ 1.57 and the sum is an exact multiple of
        # 2^-52, which loglog(4) is not.
        return _graded(_LOG3 / (spread + _LOGLOG43 - _LOGLOG4))
    if spread == 0.0:
        # q1 < q3 so close (e.g. adjacent floats near 1e300) that their logs agree
        return math.nan, _NON_FINITE
    if family == "pareto":
        return _graded(_LOG3 / spread)
    return _graded((_LOGLOG4 - _LOGLOG43) / spread)


# Each fence/quartile method: the family it assumes and the inversion it runs.
_INVERSIONS = {
    "par_n": ("pareto", _fence_row),
    "par_q": ("pareto", _quartile_row),
    "fr_n": ("frechet", _fence_row),
    "fr_q": ("frechet", _quartile_row),
    "hh_n": ("hillhorror", _fence_row),
    "hh_q": ("hillhorror", _quartile_row),
}
NEW_METHODS = tuple(_INVERSIONS)
ALL_METHODS = NEW_METHODS + CLASSICAL_METHODS


def _method_for(family: str, inversion) -> str:
    for method, entry in _INVERSIONS.items():
        if entry == (family, inversion):
            return method
    families = tuple(dict.fromkeys(assumed for assumed, _ in _INVERSIONS.values()))
    raise ValueError(f"family must be one of {families}, got {family!r}")


def alpha_from_fence_prob(family: str, p_eR: float, outer_high: float) -> EstimateRecord:
    """Invert the probability beyond the upper outer fence under the assumed family.

    p_eR and outer_high are Python floats: a sample's share above its upper
    outer fence and that fence (``par_n``, ``fr_n``, ``hh_n``), or the
    family's own theoretical p_eR and fence, which give its alpha back.
    """
    return _record(_method_for(family, _fence_row), *_fence_row(family, p_eR, outer_high), None)


def alpha_from_quartiles(family: str, q1: float, q3: float) -> EstimateRecord:
    """Invert the quartile ratio of the assumed family (``par_q``, ``fr_q``, ``hh_q``).

    q1 and q3 are Python floats: a sample's type-6 quartiles, or the
    family's own, which give its alpha back.
    """
    return _record(_method_for(family, _quartile_row), *_quartile_row(family, q1, q3), None)


def estimate_fence_prob(sample: Sample, family: str) -> EstimateRecord:
    """Invert a sample's outer-fence exceedance rate under the assumed family."""
    return evaluate(_method_for(family, _fence_row), sample)


def estimate_quartile_ratio(sample: Sample, family: str) -> EstimateRecord:
    """Invert the assumed family's quartile ratio at a sample's quartiles."""
    return evaluate(_method_for(family, _quartile_row), sample)


def evaluate_rows(methods, rows: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Score fence/quartile methods on every row of a matrix of sorted samples.

    Returns ``{method: (alpha, code)}``, as ``classical_rows`` does. The
    characteristics of all rows are computed at once, then each method's
    inversion runs once per row on Python floats. ``evaluate`` scores a
    single sample here too, as a 1-row matrix.
    """
    q1, q3, outer_high, above = (a.tolist() for a in row_fence_characteristics(rows))
    n = rows.shape[1]
    p_eR = [count / n for count in above]
    columns = {_fence_row: (p_eR, outer_high), _quartile_row: (q1, q3)}
    scored = {}
    for method in methods:
        if method not in _INVERSIONS:
            raise ValueError(f"method {method!r} is not a fence/quartile method")
        family, inversion = _INVERSIONS[method]
        pairs = list(map(inversion, repeat(family), *columns[inversion]))
        scored[method] = (np.array([alpha for alpha, _ in pairs], dtype=float),
                          np.array([code for _, code in pairs], dtype=int))
    return scored


def _mean(values: np.ndarray) -> float:
    # np.mean's sum and division without its per-call dispatch: same bits
    return float(np.add.reduce(values)) / values.size


# --- classical estimators, one row per sorted sample ---------------------------
#
# Each row form scores every row of a matrix of sorted samples at once. A row's
# code is its first failing check. The rows that a check rules out are given
# harmless values (ratios of 1) before any later step, so no step warns.


def _mark(code: np.ndarray, failed: np.ndarray, reason: int) -> None:
    """Give ``reason`` to the rows that fail this check after passing every earlier one."""
    if np.count_nonzero(failed):  # most checks fail on no row
        code[(code == _VALID) & failed] = reason


def _tail_rows(rows: np.ndarray, k: int):
    """Each row's top k order statistics and its (n-k)-th, the base, with the rows' starting codes.

    Rows whose base is not positive come back as ones, with code
    ``_NOT_POSITIVE``; every other row starts valid.
    """
    n = rows.shape[1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    block = rows[:, n - k - 1 :]
    positive = block[:, 0] > 0.0
    if not positive.all():
        block = np.where(positive[:, None], block, 1.0)
    return block[:, 1:], block[:, 0], np.where(positive, _VALID, _NOT_POSITIVE)


def _log_excess_rows(tail: np.ndarray, base: np.ndarray, code: np.ndarray):
    """log(tail / base) per row, and the code of the rows that have none.

    A row that already has a code, or whose largest excess ratio overflows,
    gets its code and ratios of 1, so its logs are 0. ``code`` is not written.
    """
    with np.errstate(over="ignore"):  # as with Python floats: inf, marked below
        ratios = tail / base[:, None]
    code = code.copy()
    _mark(code, ratios[:, -1] == math.inf, _NON_FINITE)  # tail is ascending: its last ratio is the largest
    ratios[code != _VALID] = 1.0
    return np.log(ratios), code


def _reciprocal_where(keep: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """1 / gamma where ``keep`` holds (gamma != 0 there), NaN elsewhere."""
    alpha = 1.0 / np.where(keep, gamma, 1.0)
    alpha[~keep] = math.nan
    return alpha


def _hill_rows(logs: np.ndarray, code: np.ndarray, k: int):
    gamma = np.add.reduce(logs, axis=1) / k
    _mark(code, gamma == 0.0, _DEGENERATE)
    return _reciprocal_where(code == _VALID, gamma), code


def _t_hill_rows(tail: np.ndarray, base: np.ndarray, code: np.ndarray, k: int):
    # For a Pareto tail E[t/X | X > t] = alpha/(alpha+1), so alpha is recovered
    # as T/(1-T) from T = mean(base/tail). This is the single place encoding
    # that normalization, in case a different convention is ever preferred.
    t = np.add.reduce(base[:, None] / tail, axis=1) / k
    _mark(code, t == 0.0, _NON_FINITE)  # every ratio base / tail underflows, while t > 0 in exact arithmetic
    _mark(code, t >= 1.0, _DEGENERATE)
    valid = code == _VALID
    alpha = t / (1.0 - np.where(valid, t, 0.0))  # 0 < t < 1 on valid rows: finite and positive
    alpha[~valid] = math.nan
    return alpha, code


def _pickands_rows(rows: np.ndarray, k: int):
    n = rows.shape[1]
    if k < 1 or 4 * k > n:
        raise ValueError(f"k must satisfy 1 <= k and 4k <= n, got k={k}, n={n}")
    with np.errstate(over="ignore"):  # as with Python floats: inf, marked below
        lower, upper = np.diff(rows[:, [n - 4 * k, n - 2 * k, n - k]]).T  # the two spacings
        code = np.where((upper == 0.0) | (lower == 0.0), _TIED, _VALID)
        ratio = upper / np.where(code == _VALID, lower, 1.0)
    # the spacings are so far apart in scale that their ratio under- or overflows
    _mark(code, ~((ratio > 0.0) & (ratio < math.inf)), _NON_FINITE)
    ratio[code != _VALID] = 1.0
    # math.log, not np.log, whose SIMD kernels may differ from libm in the last bit
    gamma = np.array(list(map(math.log, ratio.tolist()))) / _LOG2
    _mark(code, gamma == 0.0, _ZERO_INDEX)
    _mark(code, gamma < 0.0, _NON_HEAVY)
    return _reciprocal_where((code == _VALID) | (code == _NON_HEAVY), gamma), code


def _moment_rows(logs: np.ndarray, code: np.ndarray, k: int):
    m1 = np.add.reduce(logs, axis=1) / k
    m2 = np.add.reduce(logs * logs, axis=1) / k
    ratio = m1 * m1 / np.where(m2 == 0.0, 1.0, m2)
    gamma = m1 + 1.0 - 0.5 / np.where(ratio == 1.0, 1.0, 1.0 - ratio)
    _mark(code, m2 == 0.0, _DEGENERATE)
    _mark(code, ratio == 1.0, _DEGENERATE_RATIO)
    _mark(code, gamma <= 0.0, _NON_HEAVY)
    # a non-heavy tail keeps its negative estimate as evidence; gamma == 0 has none
    return _reciprocal_where((code == _VALID) | ((code == _NON_HEAVY) & (gamma != 0.0)), gamma), code


def classical_rows(methods, rows: np.ndarray, k: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Score classical methods at k on every row of a matrix of sorted samples.

    Returns ``{method: (alpha, code)}``, as ``evaluate_rows`` does. The top
    k + 1 order statistics are taken once, and Hill and the moment estimator
    read one shared set of log-excesses; each method marks its own copy of
    the codes, so no method's checks reach another's.
    ``evaluate`` scores a single sample here too, as a 1-row matrix.
    """
    for method in methods:
        if method not in CLASSICAL_METHODS:
            raise ValueError(f"method {method!r} is not a classical method")
    wanted = set(methods)
    if wanted - {"pickands"}:
        tail, base, code = _tail_rows(rows, k)
    if wanted & {"hill", "moment"}:
        logs, log_code = _log_excess_rows(tail, base, code)
    scored = {}
    for method in methods:
        if method == "hill":
            scored[method] = _hill_rows(logs, log_code.copy(), k)
        elif method == "thill":
            scored[method] = _t_hill_rows(tail, base, code.copy(), k)
        elif method == "moment":
            scored[method] = _moment_rows(logs, log_code.copy(), k)
        else:
            scored[method] = _pickands_rows(rows, k)
    return scored


def evaluate(method: str, sample: Sample, k: int | None = None) -> EstimateRecord:
    """Dispatch by CLI method name; classical methods require an integer k."""
    rows = sample.sorted[None, :]
    if method in CLASSICAL_METHODS:
        if k is None:
            raise ValueError(f"method {method!r} requires k")
        k = checked_int(k, "k")
        scored = classical_rows((method,), rows, k)
    elif method in NEW_METHODS:
        scored, k = evaluate_rows((method,), rows), None  # fence/quartile records carry no k
    else:
        raise ValueError(f"unknown method {method!r}")
    alpha, code = scored[method]
    return _record(method, alpha.item(0), code.item(0), k)


def hill(sample: Sample, k: int) -> EstimateRecord:
    """Hill estimator: reciprocal mean log-excess over the (n-k)-th order statistic."""
    return evaluate("hill", sample, k)


def t_hill(sample: Sample, k: int) -> EstimateRecord:
    """t-Hill estimator via the harmonic-mean ratio T = mean(base/tail): alpha = T/(1-T)."""
    return evaluate("thill", sample, k)


def pickands(sample: Sample, k: int) -> EstimateRecord:
    """Pickands estimator from the (k, 2k, 4k) upper order statistics."""
    return evaluate("pickands", sample, k)


def moment_dedh(sample: Sample, k: int) -> EstimateRecord:
    """Moment (Dekkers-Einmahl-de Haan) estimator from log-excess moments."""
    return evaluate("moment", sample, k)
