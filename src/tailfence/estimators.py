"""Tail-index estimators.

Six fence/quartile estimators invert the outer-fence exceedance rate or the
quartile ratio of an assumed family (Pareto, Frechet, Hill-horror), using the
type-6 empirical quartiles and the standard 3*IQR outer fence baked into
their derivations. Each inversion reads characteristics, ``(p_eR,
outer_high)`` or ``(q1, q3)``; ``alpha_from_fence_prob(family, p_eR,
outer_high)`` and ``alpha_from_quartiles(family, q1, q3)`` are its 1-row
cases. The classical comparators (Hill, t-Hill, Pickands, moment) use the
usual upper-order-statistic forms from the literature. Each method is
written once, as a row form that scores every row at once.

Scoring runs in two stages. ``row_statistics`` reduces a matrix of sorted
samples to each method's per-row statistics, taken at the classical methods'
k or at the rows' n: the quartiles, and the top order statistics, are taken
once for all the methods, and Hill and moment share one mean log-excess.
``finish_rows`` turns one method's statistics into estimates elementwise.
Each statistic already carries its k or n, so statistics of several
matrices, taken at different k or n, finish in one pass. ``score_rows`` is
the one-matrix case.

All ten methods return one row result, ``{method: (alpha, code)}``: per row
the estimate (NaN where there is none) and its reason's index in
``ROW_REASONS`` (0: valid), so data-dependent failures are codes, never
exceptions. ``evaluate``, the named estimators and the two inversions
return a 1-row result as an :class:`EstimateRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _libm, checked_int
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


def _record(method: str, alpha: np.ndarray, code: np.ndarray, k: int | None) -> EstimateRecord:
    alpha, code = alpha.item(0), code.item(0)
    return EstimateRecord(method, None if math.isnan(alpha) else alpha, code == _VALID, ROW_REASONS[code], k)


# --- row forms: codes, checks and libm logs ------------------------------------
#
# Each row form scores every row of its statistics at once. A row's code is its
# first failing check. The rows that a check rules out get harmless values
# (ratios of 1), or are left out of every later log and quotient, so no step
# warns. The finishing steps copy the codes they are given before marking them,
# so no method's checks reach another's.


def _mark(code: np.ndarray, failed: np.ndarray, reason: int) -> None:
    """Give ``reason`` to the rows that fail this check after passing every earlier one."""
    if np.count_nonzero(failed):  # most checks fail on no row
        code[(code == _VALID) & failed] = reason


def _quotient_where(keep: np.ndarray, numerator, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator where ``keep`` holds (denominator != 0 there), NaN elsewhere."""
    alpha = numerator / np.where(keep, denominator, 1.0)
    alpha[~keep] = math.nan
    return alpha


def _graded(code: np.ndarray, numerator, denominator: np.ndarray):
    """numerator / denominator on the rows still valid, NaN on the others; ``code`` is marked."""
    # alpha is finite: callers refuse a 0 denominator, and |numerator| <= ~745 over |denominator| >= ~1.1e-16
    # A non-positive estimate is surfaced, not clamped: diagnostic evidence of misclassified data.
    alpha = _quotient_where(code == _VALID, numerator, denominator)
    _mark(code, ~(alpha > 0.0), _MISMATCH)
    return alpha, code


def _fence_rows(family: str, p_eR: np.ndarray, outer_high: np.ndarray):
    code = np.where(p_eR == 0.0, _NO_OUTLIERS, _VALID)
    _mark(code, outer_high <= 0.0, _FENCE_NOT_POSITIVE)
    if family == "hillhorror":
        log_p = _libm(math.log, p_eR, code == _VALID)
        with np.errstate(over="ignore"):  # as with Python floats: a subnormal fence gives inf
            ratio = -log_p / np.where(code == _VALID, outer_high, 1.0)
        # an infinite fence, or a ratio that underflows, has a log of -inf
        denom = _libm(math.log, ratio, (code == _VALID) & (ratio != 0.0), -math.inf)
        _mark(code, denom == 0.0, _FENCE_AT_LOG_P)
        return _graded(code, log_p, denom)
    denom = _libm(math.log, outer_high, code == _VALID)
    _mark(code, denom == 0.0, _FENCE_AT_ONE)
    if family == "pareto":
        return _graded(code, -_libm(math.log, p_eR, code == _VALID), denom)
    return _graded(code, -_libm(math.log, -_libm(math.log1p, -p_eR, code == _VALID), code == _VALID), denom)


def _quartile_rows(family: str, q1: np.ndarray, q3: np.ndarray):
    code = np.where(q1 <= 0.0, _QUARTILES_NOT_POSITIVE, _VALID)
    _mark(code, q1 == q3, _EQUAL_QUARTILES)
    spread = _libm(math.log, q3, code == _VALID) - _libm(math.log, q1, code == _VALID)
    if family == "hillhorror":
        # The denominator is never 0: that needs spread + loglog(4/3) to equal
        # loglog(4), so spread ~ 1.57 and the sum is an exact multiple of
        # 2^-52, which loglog(4) is not.
        return _graded(code, _LOG3, spread + _LOGLOG43 - _LOGLOG4)
    # q1 < q3 so close (e.g. adjacent floats near 1e300) that their logs agree
    _mark(code, spread == 0.0, _NON_FINITE)
    return _graded(code, _LOG3 if family == "pareto" else _LOGLOG4 - _LOGLOG43, spread)


# Each fence/quartile method: the family it assumes and the inversion it runs.
_INVERSIONS = {
    "par_n": ("pareto", _fence_rows),
    "par_q": ("pareto", _quartile_rows),
    "fr_n": ("frechet", _fence_rows),
    "fr_q": ("frechet", _quartile_rows),
    "hh_n": ("hillhorror", _fence_rows),
    "hh_q": ("hillhorror", _quartile_rows),
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
    ValueError unless 0 <= p_eR < 1 and outer_high is not NaN.
    """
    method = _method_for(family, _fence_rows)
    if not 0.0 <= p_eR < 1.0 or math.isnan(outer_high):
        raise ValueError(f"inversion needs 0 <= p_eR < 1 and a fence that is not NaN, "
                         f"got p_eR={p_eR!r}, outer_high={outer_high!r}")
    return _record(method, *_fence_rows(family, *np.array([[p_eR], [outer_high]], dtype=float)), None)


def alpha_from_quartiles(family: str, q1: float, q3: float) -> EstimateRecord:
    """Invert the quartile ratio of the assumed family (``par_q``, ``fr_q``, ``hh_q``).

    q1 and q3 are Python floats: a sample's type-6 quartiles, or the
    family's own, which give its alpha back. ValueError unless q1 <= q3, as
    for ``fences_from_quartiles``, neither of them NaN.
    """
    method = _method_for(family, _quartile_rows)
    if not q1 <= q3:
        raise ValueError(f"inversion needs quartiles q1 <= q3, neither NaN, got q1={q1!r}, q3={q3!r}")
    return _record(method, *_quartile_rows(family, *np.array([[q1], [q3]], dtype=float)), None)


def estimate_fence_prob(sample: Sample, family: str) -> EstimateRecord:
    """Invert a sample's outer-fence exceedance rate under the assumed family."""
    return evaluate(_method_for(family, _fence_rows), sample)


def estimate_quartile_ratio(sample: Sample, family: str) -> EstimateRecord:
    """Invert the assumed family's quartile ratio at a sample's quartiles."""
    return evaluate(_method_for(family, _quartile_rows), sample)


# --- classical estimators, one row per sorted sample ---------------------------


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
    if np.count_nonzero(positive) == len(block):  # the usual case: one zero code array, nothing replaced
        return block[:, 1:], block[:, 0], np.zeros(len(block), dtype=np.int_)
    block = np.where(positive[:, None], block, 1.0)
    return block[:, 1:], block[:, 0], np.where(positive, _VALID, _NOT_POSITIVE)


def _excess_means(tail: np.ndarray, base: np.ndarray, code: np.ndarray, k: int):
    """Per row, the code of the rows without log-excesses and the means M1, T and M2.

    M1 and M2 are the means of the log-excesses log(tail / base) and of their
    squares, T the mean of base / tail. A row that already has a code, or
    whose largest excess ratio overflows, gets its code and ratios of 1, so
    its logs are 0; in the usual case, where no row has either, nothing is
    marked. The three means are summed in one reduction over their stacked
    terms, row by row as three reductions would sum them. ``code`` is not
    written.
    """
    with np.errstate(over="ignore"):  # as with Python floats: inf, marked below
        ratios = tail / base[:, None]
    overflow = ratios[:, -1] == math.inf  # tail is ascending: its last ratio is the largest
    if np.count_nonzero(code) or np.count_nonzero(overflow):
        code = code.copy()
        _mark(code, overflow, _NON_FINITE)
        ratios[code != _VALID] = 1.0
    terms = np.empty((3, *ratios.shape))
    np.log(ratios, out=terms[0])
    np.divide(base[:, None], tail, out=terms[1])
    np.multiply(terms[0], terms[0], out=terms[2])
    m1, t, m2 = np.add.reduce(terms, axis=2) / k
    return code, m1, t, m2


def _pickands_spacings(rows: np.ndarray, k: int):
    """The spacings X(n-2k+1) - X(n-4k+1) and X(n-k+1) - X(n-2k+1) of each row."""
    n = rows.shape[1]
    if k < 1 or 4 * k > n:
        raise ValueError(f"k must satisfy 1 <= k and 4k <= n, got k={k}, n={n}")
    low, mid, high = rows[:, n - 4 * k], rows[:, n - 2 * k], rows[:, n - k]
    with np.errstate(over="ignore"):  # as with Python floats: inf, marked by the finishing step
        return mid - low, high - mid


# --- two stages: per-row statistics, then an elementwise finishing pass --------
#
# Statistics of blocks taken at different k (or n), concatenated, finish in one
# ``finish_rows`` pass to the rows each block gives alone: the study engine
# finishes a chunk of grid points at once this way, and ``score_rows`` is the
# one-block case.


def row_statistics(methods, rows: np.ndarray, k: int | None = None) -> dict[str, tuple[np.ndarray, ...]]:
    """Per method, the per-row statistics ``finish_rows`` reads, at k or at the rows' n.

    A fence method reads ``(p_eR, outer_high)``, the share of the row above
    its upper outer fence and that fence, and a quartile method ``(q1, q3)``.
    Over the log-excesses log(tail / base) of the top k order statistics,
    Hill reads ``(code, M1)`` and moment ``(code, M1, M2)``, the means of the
    log-excesses and of their squares; t-Hill reads ``(code, T)``, the mean
    of base / tail, and Pickands its two spacings. A code is the row's first
    failed check so far. The quartiles and the top k + 1 order statistics are
    taken once, and Hill and moment share one M1. None is a view of ``rows``,
    so holding them does not hold the matrix. ValueError for an unknown
    method, or a classical one without k, before any work.
    """
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(f"unknown method {method!r}")
        if k is None and method in CLASSICAL_METHODS:
            raise ValueError(f"method {method!r} requires k")
    wanted = set(methods)
    if wanted & _INVERSIONS.keys():
        q1, q3, outer_high, above = row_fence_characteristics(rows)
        # a quartile on a knot is a column of rows: copied
        columns = {_fence_rows: (above / rows.shape[1], outer_high), _quartile_rows: (q1.copy(), q3.copy())}
    if wanted & {"hill", "thill", "moment"}:
        tail, base, code = _tail_rows(rows, k)
        log_code, m1, t, m2 = _excess_means(tail, base, code, k)
    statistics = {}
    for method in methods:
        if method in _INVERSIONS:
            statistics[method] = columns[_INVERSIONS[method][1]]
        elif method == "hill":
            statistics[method] = (log_code, m1)
        elif method == "thill":
            statistics[method] = (code, t)
        elif method == "moment":
            statistics[method] = (log_code, m1, m2)
        else:
            statistics[method] = _pickands_spacings(rows, k)
    return statistics


def _hill_rows(code: np.ndarray, m1: np.ndarray):
    code = code.copy()
    _mark(code, m1 == 0.0, _DEGENERATE)
    return _quotient_where(code == _VALID, 1.0, m1), code


def _t_hill_rows(code: np.ndarray, t: np.ndarray):
    # For a Pareto tail E[t/X | X > t] = alpha/(alpha+1), so alpha is recovered
    # as T/(1-T) from T = mean(base/tail). This is the single place encoding
    # that normalization, in case a different convention is ever preferred.
    code = code.copy()
    _mark(code, t == 0.0, _NON_FINITE)  # every ratio base / tail underflows, while t > 0 in exact arithmetic
    _mark(code, t >= 1.0, _DEGENERATE)
    return _quotient_where(code == _VALID, t, 1.0 - t), code  # 0 < t < 1 on valid rows: finite and positive


def _pickands_rows(lower: np.ndarray, upper: np.ndarray):
    code = np.where((upper == 0.0) | (lower == 0.0), _TIED, _VALID)
    with np.errstate(over="ignore"):  # as with Python floats: inf, marked below
        ratio = upper / np.where(code == _VALID, lower, 1.0)
    # the spacings are so far apart in scale that their ratio under- or overflows
    _mark(code, ~((ratio > 0.0) & (ratio < math.inf)), _NON_FINITE)
    gamma = _libm(math.log, ratio, code == _VALID) / _LOG2
    _mark(code, gamma == 0.0, _ZERO_INDEX)
    _mark(code, gamma < 0.0, _NON_HEAVY)
    return _quotient_where((code == _VALID) | (code == _NON_HEAVY), 1.0, gamma), code


def _moment_rows(code: np.ndarray, m1: np.ndarray, m2: np.ndarray):
    ratio = m1 * m1 / np.where(m2 == 0.0, 1.0, m2)
    gamma = m1 + 1.0 - 0.5 / np.where(ratio == 1.0, 1.0, 1.0 - ratio)
    code = code.copy()
    _mark(code, m2 == 0.0, _DEGENERATE)
    _mark(code, ratio == 1.0, _DEGENERATE_RATIO)
    _mark(code, gamma <= 0.0, _NON_HEAVY)
    # a non-heavy tail keeps its negative estimate as evidence; gamma == 0 has none
    return _quotient_where((code == _VALID) | ((code == _NON_HEAVY) & (gamma != 0.0)), 1.0, gamma), code


_FINISHING = {"hill": _hill_rows, "thill": _t_hill_rows, "pickands": _pickands_rows, "moment": _moment_rows}


def finish_rows(method: str, statistics: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A method's ``(alpha, code)`` from its per-row statistics, elementwise.

    ``statistics`` is the method's entry of ``row_statistics``, or such
    entries of blocks taken at different k or n, concatenated row-wise. The
    statistics are not written.
    """
    if method in _INVERSIONS:
        family, inversion = _INVERSIONS[method]
        return inversion(family, *statistics)
    return _FINISHING[method](*statistics)


def score_rows(methods, rows: np.ndarray, k: int | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Score methods on every row of a matrix of sorted samples, the classical ones at k.

    Returns ``{method: (alpha, code)}``: ``finish_rows`` of each method's
    ``row_statistics``. ``evaluate`` scores a single sample here, as a 1-row
    matrix.
    """
    statistics = row_statistics(methods, rows, k)
    return {method: finish_rows(method, statistics[method]) for method in methods}


def evaluate(method: str, sample: Sample, k: int | None = None) -> EstimateRecord:
    """Dispatch by CLI method name; classical methods require an integer k, the others take none."""
    if k is not None:
        if method in NEW_METHODS:
            raise ValueError(f"method {method!r} takes no k")
        if method in CLASSICAL_METHODS:
            k = checked_int(k, "k")
    return _record(method, *score_rows((method,), sample.sorted[None, :], k)[method], k)


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
