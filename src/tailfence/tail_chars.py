"""Theoretical outlier-probability characteristics of a distribution.

p_eL / p_eR are the probabilities of falling beyond the outer Tukey fences
(Q1 - 3*IQR and Q3 + 3*IQR by default); p_mL / p_mR cover the disjoint mild
bands between the inner and outer fences. All six are read from the CDF at
the four fences. Where a family's quartile algebra gives a hand-derived
closed form (both tails from one routine), it replaces the CDF's p_eL or
p_eR: not to save time, but for exact values such as the exponential
family's 1/108, with no ``1 - F`` cancellation in a thin tail. The two
routes must agree.

One columnar core, ``_characteristics_columns``, evaluates a list of specs
family by family: each family's parameters become per-spec columns, so the
whole family takes one quantile call for its quartiles and one CDF call at
its fences, and the fences and the six probabilities come out as float64
columns, a row per spec. Only the closed forms run per spec.
:func:`characteristics_table` builds its dataclasses from those columns and
``tailfence chars`` formats its rows from them. :func:`characteristics` and
:func:`fences` are the table's 1-spec cases, and each row equals its spec's
1-spec result bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec
from .fences import (
    DEFAULT_INNER,
    DEFAULT_OUTER,
    Fences,
    fence_pair,
    fences_from_quartiles,
    valid_multipliers,
)

_LOG4 = math.log(4.0)
_LOG43 = math.log(4.0 / 3.0)
_LOGLOG4 = math.log(_LOG4)
_LOGLOG43 = math.log(_LOG43)


@dataclass(frozen=True)
class TailCharacteristics:
    """The six outlier probabilities plus the fences that produced them."""

    p_eL: float
    p_eR: float
    p_e2: float
    p_mL: float
    p_mR: float
    p_m2: float
    fences: Fences


def fences(
    spec: DistributionSpec,
    inner: float = DEFAULT_INNER,
    outer: float = DEFAULT_OUTER,
) -> Fences:
    """Theoretical fences from the 0.25/0.75 quantiles: ``characteristics(spec, inner, outer).fences``.

    Raises ValueError when a quartile or an outer fence is not a finite
    float64, so no characteristic is ever computed from an infinite fence,
    and when the quartiles are equal in float64 (a huge shape rounds the
    quartile algebra away), so none is computed from a zero IQR.
    """
    return characteristics(spec, inner, outer).fences


def _or_inf(fn, *args) -> float:
    """``fn(*args)`` for ``pow`` or ``math.exp``, with inf where it overflows.

    Python floats raise OverflowError there; an underflow already gives 0.0.
    """
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _checked_outer(outer: float) -> float:
    f = float(outer)
    if not 0.0 < f < math.inf:  # NaN fails too
        raise ValueError(f"outer multiplier must be finite and positive, got {outer}")
    return f


def frechet_left_tail_threshold(outer: float = DEFAULT_OUTER) -> float:
    """Shape above which the Frechet left tail reaches past the low outer fence.

    The same threshold governs when the negative-Weibull right tail reaches
    past the high outer fence (the two cases mirror each other). Raises
    ValueError unless ``outer`` is finite and positive.
    """
    f = _checked_outer(outer)
    return math.log(_LOG4 / _LOG43) / math.log((1.0 + f) / f)


def _closed_form_tails(spec: DistributionSpec, outer: float) -> tuple[float | None, float | None]:
    """``(p_eL, p_eR)`` from the quartile algebra of the family; see :func:`closed_form_p_eR`."""
    f = _checked_outer(outer)
    family = spec.family
    if family == "uniform":
        p = max(0.0, 0.25 - 0.5 * f)
        return p, p
    if family == "exponential":
        # fences at (log(4/3) - f*log3)/lambda and (log4 + f*log3)/lambda
        reach = _LOG43 - f * math.log(3.0)  # low fence times lambda
        return (-math.expm1(-reach) if reach > 0.0 else 0.0), 0.25 * 3.0 ** (-f)
    if family == "gumbel":
        return (
            math.exp(-_or_inf(math.exp, (1.0 + f) * _LOGLOG4 - f * _LOGLOG43)),
            -math.expm1(-math.exp((1.0 + f) * _LOGLOG43 - f * _LOGLOG4)),
        )
    if family not in ("pareto", "frechet", "negweibull", "hillhorror"):
        return None, None
    a = spec.params["alpha"]
    if family in ("pareto", "hillhorror"):
        # Pareto quartiles over delta; times log(4/3) and log 4, the Hill-horror ones
        q1, q3 = _or_inf(pow, 4.0 / 3.0, 1.0 / a), _or_inf(pow, 4.0, 1.0 / a)
        if family == "hillhorror":
            # 0 when the low fence is below the support, always at the default multiplier
            return (0.0 if (1.0 + f) * q1 * _LOG43 - f * q3 * _LOG4 <= 0.0 else None), None
        low, high = (1.0 + f) * q1 - f * q3, (1.0 + f) * q3 - f * q1  # fences over delta
        return (
            # 0 at or below the support edge delta; NaN is inf - inf
            -math.expm1(-a * math.log(low)) if low > 1.0 else 0.0,
            high ** (-a) if 1.0 < high < math.inf else None,
        )
    if family == "frechet":
        lo, hi = _LOG4 ** (-1.0 / a), _or_inf(pow, _LOG43, -1.0 / a)
        # the fences minus mu, in sigma units
        low, high = (1.0 + f) * lo - f * hi, (1.0 + f) * hi - f * lo
        return (
            # 0 at shapes up to frechet_left_tail_threshold(outer)
            math.exp(-_or_inf(pow, low, -a)) if low > 0.0 else 0.0,
            -math.expm1(-(high ** (-a))) if 1.0 < high < math.inf else None,
        )
    # negweibull
    u, v = _or_inf(pow, _LOG4, 1.0 / a), _LOG43 ** (1.0 / a)
    # mu minus the fences, in sigma units
    low, high = (1.0 + f) * u - f * v, (1.0 + f) * v - f * u
    return (
        math.exp(-_or_inf(pow, low, a)) if 0.0 < low < math.inf else None,
        -math.expm1(-(high**a)) if high > 0.0 else 0.0,
    )


def closed_form_p_eR(spec: DistributionSpec, outer: float = DEFAULT_OUTER) -> float | None:
    """Closed-form extreme-right probability, or None when only the numeric route exists.

    Derived from the quartile algebra of each family for a general outer
    multiplier; the default multiplier 3 reproduces the textbook constants
    (e.g. 1/108 for the exponential family). A probability whose exact value
    underflows is 0.0. Where float64 cannot carry the algebra (the fence in
    standard units overflows, or a huge shape cancels it to the quartile) the
    result is None, so that the numeric route applies. Raises ValueError
    unless ``outer`` is finite and positive.
    """
    return _closed_form_tails(spec, outer)[1]


def closed_form_p_eL(spec: DistributionSpec, outer: float = DEFAULT_OUTER) -> float | None:
    """Closed-form extreme-left probability, or None as for :func:`closed_form_p_eR`."""
    return _closed_form_tails(spec, outer)[0]


def characteristics(
    spec: DistributionSpec,
    inner: float = DEFAULT_INNER,
    outer: float = DEFAULT_OUTER,
    use_closed_forms: bool = True,
) -> TailCharacteristics:
    """All six outlier probabilities for a distribution spec.

    The 1-spec case of :func:`characteristics_table`: one quantile call for
    both quartiles, one CDF call at the four fences, and one closed-form
    dispatch for both tails, whose values replace the CDF's p_eL / p_eR
    where they exist. With ``use_closed_forms=False`` every probability is
    the CDF's, which serves as the independent cross-check for the closed
    forms.
    """
    return characteristics_table([spec], inner, outer, use_closed_forms)[0]


def characteristics_table(
    specs: Iterable[DistributionSpec],
    inner: float = DEFAULT_INNER,
    outer: float = DEFAULT_OUTER,
    use_closed_forms: bool = True,
) -> list[TailCharacteristics]:
    """:func:`characteristics` of each spec, in the order given, evaluated family by family.

    The rows of :func:`_characteristics_columns`, each as a
    :class:`TailCharacteristics` with its :class:`Fences`. Row i equals
    ``characteristics(specs[i], ...)`` bit for bit. A rejected spec (see
    :func:`fences`) raises its ValueError, the first such spec's if there
    are several, as a spec-by-spec loop would; no warning comes before it.
    """
    return [
        TailCharacteristics(p_eL, p_eR, p_e2, p_mL, p_mR, p_m2,
                            Fences(q1, q3, iqr, inner_low, inner_high, outer_low, outer_high))
        for q1, q3, iqr, outer_low, outer_high, p_eL, p_eR, p_e2, p_mL, p_mR, p_m2, inner_low, inner_high
        in _characteristics_columns(list(specs), inner, outer, use_closed_forms).tolist()
    ]


# The columns of _characteristics_columns, in order; `tailfence chars` prints the first eleven.
_COLUMNS = (
    "q1", "q3", "iqr", "outer_low", "outer_high",
    "p_eL", "p_eR", "p_e2", "p_mL", "p_mR", "p_m2",
    "inner_low", "inner_high",
)


def _characteristics_columns(
    specs: list[DistributionSpec], inner: float, outer: float, use_closed_forms: bool
) -> np.ndarray:
    """The characteristics of ``specs`` as float64 columns: a row per spec, named by ``_COLUMNS``.

    All of a family's specs share one quantile call for their quartiles and
    one CDF call at their fences, with the parameters as per-spec columns;
    the closed forms run per spec on Python floats. Every step is the IEEE
    operation that one spec's Python floats would take, so row i is spec
    i's 1-spec result bit for bit. Raises the first rejected spec's
    ValueError, as :func:`characteristics_table` documents.
    """
    rows_of: dict[str, list[int]] = {}
    for i, spec in enumerate(specs):
        rows_of.setdefault(spec.family, []).append(i)
    groups = [(rows, dist.FamilyColumns.of([specs[i] for i in rows])) for rows in rows_of.values()]
    quartiles = np.empty((len(specs), 2))
    for rows, columns in groups:
        quartiles[rows] = dist._quantile_array(columns, (0.25, 0.75))
    # Row i: spec i's (outer_low, inner_low, inner_high, outer_high), inf or NaN
    # (inf - inf) where the spec is rejected, as on Python floats.
    with np.errstate(over="ignore", invalid="ignore"):
        low, high = fence_pair(quartiles[:, :1], quartiles[:, 1:], np.array([outer, inner]))
    points = np.concatenate([low, high[:, ::-1]], axis=1)
    # Bad multipliers reject every row; finite fences imply finite quartiles.
    rejected = ~(np.isfinite(points).all(axis=1) & (quartiles[:, 0] < quartiles[:, 1]))
    rejected |= not valid_multipliers(inner, outer)
    if rejected.any():
        first = int(np.argmax(rejected))  # the row a spec-by-spec loop would stop at
        spec, (q1, q3) = specs[first], quartiles[first].tolist()
        if not (math.isfinite(q1) and math.isfinite(q3)):
            raise ValueError(f"{spec}: quartiles not finite in float64 (q1={q1}, q3={q3})")
        if q1 == q3:
            raise ValueError(f"{spec}: quartiles equal in float64 (q1 = q3 = {q1})")
        fen = fences_from_quartiles(q1, q3, inner, outer)  # checks the multipliers
        raise ValueError(f"{spec}: outer fences not finite in float64 at multiplier {outer} "
                         f"({fen.outer_low}, {fen.outer_high})")
    # P(X beyond each fence): F at the two low fences and 1 - F at the two
    # high ones, as the catalog is continuous.
    beyond = np.empty((len(specs), 4))
    for rows, columns in groups:
        beyond[rows] = dist._cdf_array(columns, points[rows])
    beyond[:, 2:] = 1.0 - beyond[:, 2:]
    if use_closed_forms:
        # a closed form replaces the CDF's p_eL or p_eR only where it exists
        for i, spec in enumerate(specs):
            closed_low, closed_high = _closed_form_tails(spec, outer)
            if closed_low is not None:
                beyond[i, 0] = closed_low
            if closed_high is not None:
                beyond[i, 3] = closed_high
    extreme = beyond[:, ::3]  # p_eL, p_eR
    mild = beyond[:, 1:3] - extreme
    # x if x > 0.0 else 0.0 is max(0.0, x) on Python floats, NaN and -0.0 included
    mild = np.where(mild > 0.0, mild, 0.0)  # p_mL, p_mR
    return np.concatenate([
        quartiles, quartiles[:, 1:] - quartiles[:, :1], points[:, ::3],
        extreme, extreme[:, :1] + extreme[:, 1:], mild, mild[:, :1] + mild[:, 1:],
        points[:, 1:3],
    ], axis=1)
