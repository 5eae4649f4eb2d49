"""Tukey fence arithmetic shared by the theoretical and empirical paths."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_INNER = 1.5
DEFAULT_OUTER = 3.0


@dataclass(frozen=True)
class Fences:
    """Quartiles plus the inner (mild) and outer (extreme) outlier fences."""

    q1: float
    q3: float
    iqr: float
    inner_low: float
    inner_high: float
    outer_low: float
    outer_high: float


def fences_from_quartiles(
    q1: float,
    q3: float,
    inner: float = DEFAULT_INNER,
    outer: float = DEFAULT_OUTER,
) -> Fences:
    """Build fences at ``q1/q3 -/+ multiplier*iqr``.

    The multipliers must be finite and satisfy 0 < inner <= outer so that
    outer_low <= inner_low <= q1 <= q3 <= inner_high <= outer_high.
    """
    if not valid_multipliers(inner, outer):
        raise ValueError(
            f"fence multipliers must be finite with 0 < inner <= outer, got {inner}, {outer}"
        )
    if q3 < q1:
        raise ValueError(f"q3 must not be below q1, got q1={q1}, q3={q3}")
    inner_low, inner_high = fence_pair(q1, q3, inner)
    outer_low, outer_high = fence_pair(q1, q3, outer)
    return Fences(
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        inner_low=inner_low,
        inner_high=inner_high,
        outer_low=outer_low,
        outer_high=outer_high,
    )


def valid_multipliers(inner: float, outer: float) -> bool:
    """Whether fence multipliers are finite with 0 < inner <= outer."""
    return 0.0 < inner <= outer < math.inf


def fence_pair(q1, q3, multiplier):
    """The fences ``(q1 - multiplier*iqr, q3 + multiplier*iqr)``, unchecked.

    Takes floats or arrays alike, so a matrix of quartiles gets the same
    float steps as one sample's; an array of multipliers broadcasts too.
    """
    iqr = q3 - q1
    return q1 - multiplier * iqr, q3 + multiplier * iqr
