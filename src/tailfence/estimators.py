"""Tail-index estimators.

Six fence/quartile estimators invert the outer-fence exceedance rate or the
quartile ratio of an assumed family (Pareto, Frechet, Hill-horror), using the
type-6 empirical quartiles and the standard 3*IQR outer fence baked into
their derivations. Each inversion is a function of characteristics,
``alpha_from_fence_prob(family, p_eR, outer_high)`` or
``alpha_from_quartiles(family, q1, q3)``. ``evaluate_rows`` feeds it every
row's of a matrix of sorted samples. The classical comparators (Hill,
t-Hill, Pickands, moment) use the usual upper-order-statistic forms from the
literature, each written once as a row form that ``classical_rows`` runs on
every row of such a matrix at once. ``evaluate`` and the named estimators
score one sample as a 1-row matrix, so a single sample and a study's
replicates take the same path.

Every estimator returns an :class:`EstimateRecord`; data-dependent failures
(no outliers, tied order statistics, family mismatch) are reported as
invalid records rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, row_fence_characteristics

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


@dataclass(frozen=True, init=False)
class EstimateRecord:
    """One estimator outcome: point estimate plus validity diagnostics.

    alpha_hat may carry a non-positive value alongside valid=False (reason
    "family mismatch" / "non-heavy tail estimate") as diagnostic evidence;
    valid=True always implies a finite positive estimate.

    Every replicate of an n-point builds one record per fence/quartile method
    (a k-point keeps the classical row forms' arrays and builds none), so
    ``__init__`` is written by hand: it fills the instance dict directly,
    where the generated init of a frozen dataclass calls
    ``object.__setattr__`` once per field (0.8 against 1.85 µs a record on a
    2-core x86 VM). The record stays frozen, and ``dataclasses.replace``,
    ``==``, ``hash`` and ``repr`` are the generated ones.
    """

    method: str
    alpha_hat: float | None
    valid: bool
    reason: str = ""
    k: int | None = None

    def __init__(self, method: str, alpha_hat: float | None, valid: bool,
                 reason: str = "", k: int | None = None):
        fields = self.__dict__
        fields["method"] = method
        fields["alpha_hat"] = alpha_hat
        fields["valid"] = valid
        fields["reason"] = reason
        fields["k"] = k


def _invalid(method: str, reason: str, k: int | None = None) -> EstimateRecord:
    return EstimateRecord(method, None, False, reason, k)


def _checked(method: str, alpha: float, k: int | None = None) -> EstimateRecord:
    if not math.isfinite(alpha):
        return _invalid(method, "non-finite estimate", k)
    if alpha <= 0.0:
        # Surfaced, not clamped: diagnostic evidence of misclassified data.
        return EstimateRecord(method, alpha, False, "family mismatch", k)
    return EstimateRecord(method, alpha, True, "", k)


def _method_for(family: str, by_family: dict[str, str]) -> str:
    method = by_family.get(family)
    if method is None:
        raise ValueError(f"family must be one of {FENCE_FAMILIES}, got {family!r}")
    return method


def alpha_from_fence_prob(family: str, p_eR: float, outer_high: float) -> EstimateRecord:
    """Invert the probability beyond the upper outer fence under the assumed family.

    p_eR and outer_high are Python floats: a sample's share above its upper
    outer fence and that fence (``par_n``, ``fr_n``, ``hh_n``), or the
    family's own theoretical p_eR and fence, which give its alpha back.
    """
    method = _method_for(family, _FENCE_METHOD_BY_FAMILY)
    if p_eR == 0.0:
        return _invalid(method, "no extreme outliers observed")
    if outer_high <= 0.0:
        return _invalid(method, "outer fence not positive")
    if family == "hillhorror":
        denom = math.log(-math.log(p_eR) / outer_high)
        if denom == 0.0:
            return _invalid(method, "outer fence equals -log(p_eR)")
        return _checked(method, math.log(p_eR) / denom)
    denom = math.log(outer_high)
    if denom == 0.0:
        return _invalid(method, "outer fence equals 1")
    if family == "pareto":
        return _checked(method, -math.log(p_eR) / denom)
    return _checked(method, -math.log(-math.log1p(-p_eR)) / denom)


def alpha_from_quartiles(family: str, q1: float, q3: float) -> EstimateRecord:
    """Invert the quartile ratio of the assumed family (``par_q``, ``fr_q``, ``hh_q``).

    q1 and q3 are Python floats: a sample's type-6 quartiles, or the
    family's own, which give its alpha back.
    """
    method = _method_for(family, _QUARTILE_METHOD_BY_FAMILY)
    if q1 <= 0.0:
        return _invalid(method, "needs positive quartiles")
    if q1 == q3:
        return _invalid(method, "equal quartiles")
    spread = math.log(q3) - math.log(q1)
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


def estimate_fence_prob(sample: Sample, family: str) -> EstimateRecord:
    """Invert a sample's outer-fence exceedance rate under the assumed family."""
    return evaluate(_method_for(family, _FENCE_METHOD_BY_FAMILY), sample)


def estimate_quartile_ratio(sample: Sample, family: str) -> EstimateRecord:
    """Invert the assumed family's quartile ratio at a sample's quartiles."""
    return evaluate(_method_for(family, _QUARTILE_METHOD_BY_FAMILY), sample)


def evaluate_rows(methods, rows: np.ndarray) -> dict[str, list[EstimateRecord]]:
    """Score fence/quartile methods on every row of a matrix of sorted samples.

    The characteristics of all rows are computed at once, then each method's
    inversion runs once per row on Python floats. ``evaluate`` scores a
    single sample here too, as a 1-row matrix.
    """
    q1, q3, outer_high, above = (a.tolist() for a in row_fence_characteristics(rows))
    n = rows.shape[1]
    p_eR = [count / n for count in above]
    scored = {}
    for method in methods:
        if method in FENCE_METHODS:
            family = FENCE_FAMILIES[FENCE_METHODS.index(method)]
            scored[method] = [alpha_from_fence_prob(family, p, hi) for p, hi in zip(p_eR, outer_high)]
        elif method in QUARTILE_METHODS:
            family = FENCE_FAMILIES[QUARTILE_METHODS.index(method)]
            scored[method] = [alpha_from_quartiles(family, lo, hi) for lo, hi in zip(q1, q3)]
        else:
            raise ValueError(f"method {method!r} is not a fence/quartile method")
    return scored


def _mean(values: np.ndarray) -> float:
    # np.mean's sum and division without its per-call dispatch: same bits
    return float(np.add.reduce(values)) / values.size


# --- classical estimators, one row per sorted sample ---------------------------
#
# Each row form scores every row of a matrix of sorted samples at once and
# returns two arrays: the estimate per row (NaN where the record carries none)
# and a code into ROW_REASONS, 0 for a valid estimate. A row's code is its
# first failing check. The rows that a check rules out are given harmless
# values (ratios of 1) before any later step, so no step warns.

ROW_REASONS = (
    "",
    "requires positive order statistics",
    "non-finite estimate",
    "degenerate tail",
    "degenerate moment ratio",
    "non-heavy tail estimate",
    "tied order statistics",
    "zero tail-index estimate",
)
_VALID, _NOT_POSITIVE, _NON_FINITE, _DEGENERATE, _DEGENERATE_RATIO, _NON_HEAVY, _TIED, _ZERO_INDEX = range(8)


def _mark(code: np.ndarray, failed: np.ndarray, reason: int) -> None:
    """Give ``reason`` to the rows that fail this check after passing every earlier one."""
    if np.count_nonzero(failed):  # most checks fail on no row
        code[(code == _VALID) & failed] = reason


def _tail_rows(rows: np.ndarray, k: int):
    """Each row's top k order statistics and its (n-k)-th, the base, with a mask of positive bases.

    Rows whose base is not positive come back as ones.
    """
    n = rows.shape[1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    block = rows[:, n - k - 1 :]
    positive = block[:, 0] > 0.0
    if not positive.all():
        block = np.where(positive[:, None], block, 1.0)
    return block[:, 1:], block[:, 0], positive


def _log_excess_rows(rows: np.ndarray, k: int):
    """log(tail / base) per row, and the code of the rows that have none.

    A row whose base is not positive, or whose largest excess ratio
    overflows, gets its code and ratios of 1, so its logs are 0.
    """
    tail, base, positive = _tail_rows(rows, k)
    with np.errstate(over="ignore"):  # as with Python floats: inf, marked below
        ratios = tail / base[:, None]
    code = np.where(positive, _VALID, _NOT_POSITIVE)
    _mark(code, ratios[:, -1] == math.inf, _NON_FINITE)  # tail is ascending: its last ratio is the largest
    ratios[code != _VALID] = 1.0
    return np.log(ratios), code


def _reciprocal_where(keep: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """1 / gamma where ``keep`` holds (gamma != 0 there), NaN elsewhere."""
    alpha = 1.0 / np.where(keep, gamma, 1.0)
    alpha[~keep] = math.nan
    return alpha


def _hill_rows(rows: np.ndarray, k: int):
    logs, code = _log_excess_rows(rows, k)
    gamma = np.add.reduce(logs, axis=1) / k
    _mark(code, gamma == 0.0, _DEGENERATE)
    return _reciprocal_where(code == _VALID, gamma), code


def _t_hill_rows(rows: np.ndarray, k: int):
    # For a Pareto tail E[t/X | X > t] = alpha/(alpha+1), so alpha is recovered
    # as T/(1-T) from T = mean(base/tail). This is the single place encoding
    # that normalization, in case a different convention is ever preferred.
    tail, base, positive = _tail_rows(rows, k)
    t = np.add.reduce(base[:, None] / tail, axis=1) / k
    code = np.where(positive, _VALID, _NOT_POSITIVE)
    _mark(code, t == 0.0, _NON_FINITE)  # every ratio base / tail underflows, while t > 0 in exact arithmetic
    _mark(code, t >= 1.0, _DEGENERATE)
    valid = code == _VALID
    alpha = t / (1.0 - np.where(valid, t, 0.0))  # 0 < t < 1 on valid rows: finite and positive
    alpha[~valid] = math.nan
    return alpha, code


def _pickands_row(a: float, b: float, c: float) -> tuple[float, int]:
    # Python floats: an overflowing spacing ratio becomes inf without a numpy warning
    upper, lower = a - b, b - c
    if upper == 0.0 or lower == 0.0:
        return math.nan, _TIED
    ratio = upper / lower
    if not 0.0 < ratio < math.inf:
        # the spacings are so far apart in scale that their ratio under- or overflows
        return math.nan, _NON_FINITE
    gamma = math.log(ratio) / _LOG2
    if gamma == 0.0:
        return math.nan, _ZERO_INDEX
    return 1.0 / gamma, _VALID if gamma > 0.0 else _NON_HEAVY


def _pickands_rows(rows: np.ndarray, k: int):
    n = rows.shape[1]
    if k < 1 or 4 * k > n:
        raise ValueError(f"k must satisfy 1 <= k and 4k <= n, got k={k}, n={n}")
    alpha, code = zip(*map(_pickands_row, rows[:, n - k].tolist(), rows[:, n - 2 * k].tolist(),
                           rows[:, n - 4 * k].tolist()))
    return np.array(alpha), np.array(code)


def _moment_rows(rows: np.ndarray, k: int):
    logs, code = _log_excess_rows(rows, k)
    m1 = np.add.reduce(logs, axis=1) / k
    m2 = np.add.reduce(logs * logs, axis=1) / k
    ratio = m1 * m1 / np.where(m2 == 0.0, 1.0, m2)
    gamma = m1 + 1.0 - 0.5 / np.where(ratio == 1.0, 1.0, 1.0 - ratio)
    _mark(code, m2 == 0.0, _DEGENERATE)
    _mark(code, ratio == 1.0, _DEGENERATE_RATIO)
    _mark(code, gamma <= 0.0, _NON_HEAVY)
    # a non-heavy tail keeps its negative estimate as evidence; gamma == 0 has none
    return _reciprocal_where((code == _VALID) | ((code == _NON_HEAVY) & (gamma != 0.0)), gamma), code


_CLASSICAL_ROWS = {"hill": _hill_rows, "thill": _t_hill_rows, "pickands": _pickands_rows,
                   "moment": _moment_rows}


def classical_rows(method: str, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Score a classical method at k on every row of a matrix of sorted samples.

    Returns ``(alpha, code)``: per row the estimate, NaN where the record
    carries none, and the index of its reason in ``ROW_REASONS`` (0: valid).
    ``evaluate`` scores a single sample here too, as a 1-row matrix.
    """
    scorer = _CLASSICAL_ROWS.get(method)
    if scorer is None:
        raise ValueError(f"method {method!r} is not a classical method")
    return scorer(rows, k)


def evaluate(method: str, sample: Sample, k: int | None = None) -> EstimateRecord:
    """Dispatch by CLI method name; classical methods require k."""
    rows = sample.sorted[None, :]
    if method in _CLASSICAL_ROWS:
        if k is None:
            raise ValueError(f"method {method!r} requires k")
        alpha, code = classical_rows(method, rows, k)
        estimate, reason = alpha.item(0), int(code[0])
        return EstimateRecord(method, None if math.isnan(estimate) else estimate,
                              reason == _VALID, ROW_REASONS[reason], k)
    if method in NEW_METHODS:
        return evaluate_rows((method,), rows)[method][0]
    raise ValueError(f"unknown method {method!r}")


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
