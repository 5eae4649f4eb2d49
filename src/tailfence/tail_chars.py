"""Theoretical outlier-probability characteristics of a distribution.

p_eL / p_eR are the probabilities of falling beyond the outer Tukey fences
(Q1 - 3*IQR and Q3 + 3*IQR by default); p_mL / p_mR cover the disjoint mild
bands between the inner and outer fences. Families with tractable quartile
algebra get hand-derived closed forms as fast paths; every family also has
the generic CDF route, and the two must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import distributions as dist
from .distributions import DistributionSpec
from .fences import DEFAULT_INNER, DEFAULT_OUTER, Fences, fences_from_quartiles

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
    """Theoretical fences from the 0.25/0.75 quantiles.

    Raises ValueError when a quartile or an outer fence is not a finite
    float64, so no characteristic is ever computed from an infinite fence.
    """
    q1 = dist.quantile(spec, 0.25)
    q3 = dist.quantile(spec, 0.75)
    if not (math.isfinite(q1) and math.isfinite(q3)):
        raise ValueError(f"{spec}: quartiles not finite in float64 (q1={q1}, q3={q3})")
    fen = fences_from_quartiles(q1, q3, inner, outer)
    if not (math.isfinite(fen.outer_low) and math.isfinite(fen.outer_high)):
        raise ValueError(
            f"{spec}: outer fences not finite in float64 at multiplier {outer} "
            f"({fen.outer_low}, {fen.outer_high})"
        )
    return fen


def _or_inf(fn, *args) -> float:
    """``fn(*args)`` for ``pow`` or ``math.exp``, with inf where it overflows.

    Python floats raise OverflowError there; an underflow already gives 0.0.
    """
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def frechet_left_tail_threshold(outer: float = DEFAULT_OUTER) -> float:
    """Shape above which the Frechet left tail reaches past the low outer fence.

    The same threshold governs when the negative-Weibull right tail reaches
    past the high outer fence (the two cases mirror each other).
    """
    return math.log(_LOG4 / _LOG43) / math.log((1.0 + outer) / outer)


def closed_form_p_eR(spec: DistributionSpec, outer: float = DEFAULT_OUTER) -> float | None:
    """Closed-form extreme-right probability, or None when only the numeric route exists.

    Derived from the quartile algebra of each family for a general outer
    multiplier; the default multiplier 3 reproduces the textbook constants
    (e.g. 1/108 for the exponential family). A probability whose exact value
    underflows is 0.0. Where float64 cannot carry the algebra (the fence in
    standard units overflows, or a huge shape cancels it to the quartile) the
    result is None, so that the numeric route applies.
    """
    p = spec.params
    f = float(outer)
    if f <= 0:
        raise ValueError(f"outer multiplier must be positive, got {outer}")
    family = spec.family
    if family == "uniform":
        return max(0.0, 0.25 - 0.5 * f)
    if family == "exponential":
        # outer fence sits at (log4 + f*log3)/lambda
        return 0.25 * 3.0 ** (-f)
    if family == "pareto":
        a = p["alpha"]
        edge = (1.0 + f) * _or_inf(pow, 4.0, 1.0 / a) - f * _or_inf(pow, 4.0 / 3.0, 1.0 / a)
        return edge ** (-a) if 1.0 < edge < math.inf else None
    if family == "frechet":
        a = p["alpha"]
        lo, hi = _LOG4 ** (-1.0 / a), _or_inf(pow, _LOG43, -1.0 / a)
        edge = (1.0 + f) * hi - f * lo
        return -math.expm1(-(edge ** (-a))) if 1.0 < edge < math.inf else None
    if family == "negweibull":
        a = p["alpha"]
        u, v = _or_inf(pow, _LOG4, 1.0 / a), _LOG43 ** (1.0 / a)
        reach = (1.0 + f) * v - f * u  # mu minus the high fence, in sigma units
        if reach <= 0.0:
            return 0.0
        return -math.expm1(-(reach**a))
    if family == "gumbel":
        return -math.expm1(-math.exp((1.0 + f) * _LOGLOG43 - f * _LOGLOG4))
    return None


def closed_form_p_eL(spec: DistributionSpec, outer: float = DEFAULT_OUTER) -> float | None:
    """Closed-form extreme-left probability, or None as for :func:`closed_form_p_eR`."""
    p = spec.params
    f = float(outer)
    if f <= 0:
        raise ValueError(f"outer multiplier must be positive, got {outer}")
    family = spec.family
    if family == "uniform":
        return max(0.0, 0.25 - 0.5 * f)
    if family == "exponential":
        reach = _LOG43 - f * math.log(3.0)  # low fence times lambda
        return -math.expm1(-reach) if reach > 0.0 else 0.0
    if family == "pareto":
        a = p["alpha"]
        edge = (1.0 + f) * _or_inf(pow, 4.0 / 3.0, 1.0 / a) - f * _or_inf(pow, 4.0, 1.0 / a)
        if not edge > 1.0:  # low fence at or below the support edge delta; NaN is inf - inf
            return 0.0
        return -math.expm1(-a * math.log(edge))
    if family == "frechet":
        a = p["alpha"]
        lo, hi = _LOG4 ** (-1.0 / a), _or_inf(pow, _LOG43, -1.0 / a)
        reach = (1.0 + f) * lo - f * hi  # low fence minus mu, in sigma units
        if reach <= 0.0:  # shape at or below frechet_left_tail_threshold(outer)
            return 0.0
        return math.exp(-_or_inf(pow, reach, -a))
    if family == "negweibull":
        a = p["alpha"]
        u, v = _or_inf(pow, _LOG4, 1.0 / a), _LOG43 ** (1.0 / a)
        reach = (1.0 + f) * u - f * v  # mu minus the low fence, in sigma units
        return math.exp(-_or_inf(pow, reach, a)) if 0.0 < reach < math.inf else None
    if family == "gumbel":
        return math.exp(-_or_inf(math.exp, (1.0 + f) * _LOGLOG4 - f * _LOGLOG43))
    if family == "hillhorror":
        a = p["alpha"]
        low_fence = (
            (1.0 + f) * _or_inf(pow, 4.0 / 3.0, 1.0 / a) * _LOG43
            - f * _or_inf(pow, 4.0, 1.0 / a) * _LOG4
        )
        if low_fence <= 0.0:  # below the support; always true at the default multiplier
            return 0.0
        return None
    return None


def characteristics(
    spec: DistributionSpec,
    inner: float = DEFAULT_INNER,
    outer: float = DEFAULT_OUTER,
    use_closed_forms: bool = True,
) -> TailCharacteristics:
    """All six outlier probabilities for a distribution spec.

    With ``use_closed_forms=False`` every probability is computed from the
    CDF at the fences, which serves as the independent cross-check for the
    closed-form fast paths.
    """
    fen = fences(spec, inner, outer)
    p_eL = closed_form_p_eL(spec, outer) if use_closed_forms else None
    p_eR = closed_form_p_eR(spec, outer) if use_closed_forms else None
    if p_eL is None:
        # Continuous catalog: P(X < t) = F(t).
        p_eL = dist.cdf(spec, fen.outer_low)
    if p_eR is None:
        p_eR = 1.0 - dist.cdf(spec, fen.outer_high)
    below_inner = dist.cdf(spec, fen.inner_low)
    above_inner = 1.0 - dist.cdf(spec, fen.inner_high)
    p_mL = max(0.0, below_inner - p_eL)
    p_mR = max(0.0, above_inner - p_eR)
    return TailCharacteristics(
        p_eL=p_eL,
        p_eR=p_eR,
        p_e2=p_eL + p_eR,
        p_mL=p_mL,
        p_mR=p_mR,
        p_m2=p_mL + p_mR,
        fences=fen,
    )
