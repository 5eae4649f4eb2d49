import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import tailfence as tf

LOG3 = math.log(3.0)
LOG4 = math.log(4.0)
LOG43 = math.log(4.0 / 3.0)


def chars(text, **kwargs):
    return tf.characteristics(tf.parse_spec(text), **kwargs)


def test_fences_exponential():
    fen = tf.fences(tf.parse_spec("exp(lambda=1)"))
    assert fen.q1 == pytest.approx(LOG43, abs=1e-14)
    assert fen.q3 == pytest.approx(LOG4, abs=1e-14)
    assert fen.iqr == pytest.approx(LOG3, abs=1e-14)
    assert fen.outer_high == pytest.approx(LOG4 + 3 * LOG3, abs=1e-13)


def test_fences_normal_matches_printed_value():
    fen = tf.fences(tf.parse_spec("normal(mu=0,sigma2=1)"))
    assert fen.outer_low == pytest.approx(-4.7214, abs=5e-5)
    assert fen.outer_low == pytest.approx(-fen.outer_high, abs=1e-12)


def test_fences_pareto_outer_high():
    # delta * 4^(1/a) * (4 - 3/3^(1/a)) at alpha=1, delta=1 -> 12
    fen = tf.fences(tf.parse_spec("pareto(alpha=1,delta=1)"))
    assert fen.outer_high == pytest.approx(12.0, abs=1e-12)


def test_fence_ordering_invariant():
    rng = np.random.default_rng(17)
    for _ in range(30):
        spec = tf.DistributionSpec(
            "gamma", {"alpha": rng.uniform(0.2, 6), "beta": rng.uniform(0.2, 4)}
        )
        fen = tf.fences(spec)
        assert fen.iqr >= 0
        assert (
            fen.outer_low <= fen.inner_low <= fen.q1
            <= fen.q3 <= fen.inner_high <= fen.outer_high
        )


def test_characteristics_exponential():
    got = chars("exp(lambda=3.7)")
    assert got.p_eL == 0.0
    assert got.p_eR == pytest.approx(1.0 / 108.0, abs=1e-12)
    generic = chars("exp(lambda=3.7)", use_closed_forms=False)
    assert generic.p_eR == pytest.approx(1.0 / 108.0, abs=1e-9)


def test_characteristics_normal():
    got = chars("normal(mu=5,sigma2=4)")
    assert got.p_eR == pytest.approx(1.171e-6, abs=1e-9)
    assert abs(got.p_eL - got.p_eR) <= 1e-12


def test_characteristics_gumbel():
    got = chars("gumbel(mu=0,gamma=1)")
    assert got.p_eL == pytest.approx(4.264e-68, rel=1e-3)
    assert got.p_eR == pytest.approx(0.0026, abs=1e-4)
    # exact closed expressions
    assert got.p_eL == pytest.approx(math.exp(-(LOG4**4) / LOG43**3), rel=1e-12)
    assert got.p_eR == pytest.approx(-math.expm1(-(LOG43**4) / LOG4**3), rel=1e-12)


def test_probability_identities():
    for text in ("exp(lambda=1)", "t(n=2)", "gamma(alpha=0.4,beta=1)", "hillhorror(alpha=0.7)"):
        got = chars(text)
        assert got.p_e2 == got.p_eL + got.p_eR
        assert got.p_m2 == got.p_mL + got.p_mR
        assert min(got.p_eL, got.p_eR, got.p_mL, got.p_mR) >= 0.0
        assert got.p_mL + got.p_eL <= 1.0
        assert got.p_mR + got.p_eR <= 1.0


def test_closed_form_p_eR_values():
    # pareto: 3 / (4 (4*3^(1/a) - 3)^a) at alpha=1 -> 1/12, any delta
    assert tf.closed_form_p_eR(tf.parse_spec("pareto(alpha=1,delta=7)")) == pytest.approx(
        1.0 / 12.0, abs=1e-15
    )
    assert tf.closed_form_p_eR(tf.parse_spec("negweibull(alpha=2,mu=0,sigma=1)")) == 0.0
    fre = tf.parse_spec("frechet(alpha=1,mu=0,sigma=1)")
    expected = -math.expm1(-1.0 / (4.0 / LOG43 - 3.0 / LOG4))
    assert tf.closed_form_p_eR(fre) == pytest.approx(expected, rel=1e-12)
    for text in ("gamma(alpha=2,beta=1)", "normal(mu=0,sigma2=1)", "t(n=3)", "hillhorror(alpha=1)"):
        assert tf.closed_form_p_eR(tf.parse_spec(text)) is None


def test_closed_form_p_eL_values():
    assert tf.closed_form_p_eL(tf.parse_spec("frechet(alpha=5,mu=0,sigma=1)")) == 0.0
    # just past the threshold the value underflows double precision; by
    # alpha=20 it is representable (~6e-169) and must match the CDF route
    fre20 = tf.parse_spec("frechet(alpha=20,mu=0,sigma=1)")
    closed = tf.closed_form_p_eL(fre20)
    assert closed > 0.0
    assert closed == pytest.approx(
        tf.characteristics(fre20, use_closed_forms=False).p_eL, rel=1e-9
    )
    assert tf.frechet_left_tail_threshold() == pytest.approx(5.4662, abs=1e-4)
    neg = tf.parse_spec("negweibull(alpha=1,mu=0,sigma=1)")
    assert tf.closed_form_p_eL(neg) == pytest.approx(
        math.exp(-(4 * LOG4 - 3 * LOG43)), rel=1e-12
    )
    for text in ("exp(lambda=2)", "pareto(alpha=0.5,delta=1)", "hillhorror(alpha=0.5)",
                 "uniform(a=0,b=1)"):
        assert tf.closed_form_p_eL(tf.parse_spec(text)) == 0.0
    assert tf.closed_form_p_eL(tf.parse_spec("normal(mu=0,sigma2=1)")) is None


def test_negweibull_right_tail_reaches_fence_for_large_shape():
    # the high fence drops below the endpoint once the shape passes the
    # same threshold that opens the frechet left tail
    thr = tf.frechet_left_tail_threshold()
    below = tf.parse_spec(f"negweibull(alpha={thr - 0.2},mu=0,sigma=1)")
    above = tf.parse_spec(f"negweibull(alpha={thr + 0.2},mu=0,sigma=1)")
    assert tf.closed_form_p_eR(below) == 0.0
    assert tf.closed_form_p_eR(above) > 0.0
    generic = tf.characteristics(above, use_closed_forms=False)
    assert tf.closed_form_p_eR(above) == pytest.approx(generic.p_eR, abs=1e-10)


CLOSED_FORM_SPECS = [
    "uniform(a=-1,b=3)",
    "exp(lambda=0.8)",
    "pareto(alpha=0.7,delta=2)",
    "pareto(alpha=3,delta=0.5)",
    "frechet(alpha=0.5,mu=1,sigma=2)",
    "frechet(alpha=7,mu=-1,sigma=0.5)",
    "negweibull(alpha=0.8,mu=2,sigma=1.5)",
    "negweibull(alpha=9,mu=0,sigma=1)",
    "gumbel(mu=-2,gamma=0.7)",
    "hillhorror(alpha=0.4)",
]


@pytest.mark.parametrize("text", CLOSED_FORM_SPECS)
@pytest.mark.parametrize("outer", [1.0, 2.0, 3.0, 4.0])
def test_closed_forms_agree_with_generic_route(text, outer):
    spec = tf.parse_spec(text)
    generic = tf.characteristics(spec, inner=min(1.5, outer), outer=outer,
                                 use_closed_forms=False)
    left = tf.closed_form_p_eL(spec, outer)
    right = tf.closed_form_p_eR(spec, outer)
    if left is not None:
        assert left == pytest.approx(generic.p_eL, abs=1e-10)
    if right is not None:
        assert right == pytest.approx(generic.p_eR, abs=1e-10)


def test_closed_forms_agree_at_small_multiplier():
    # multipliers below ~0.26 put positive mass past the low fence even for
    # pareto and exponential; the closed forms carry those branches too
    for text in ("pareto(alpha=1.33,delta=2)", "exp(lambda=2)", "hillhorror(alpha=3)"):
        spec = tf.parse_spec(text)
        generic = tf.characteristics(spec, inner=0.05, outer=0.1, use_closed_forms=False)
        left = tf.closed_form_p_eL(spec, 0.1)
        if left is not None:
            assert left == pytest.approx(generic.p_eL, abs=1e-10)
            assert left > 0.0 or spec.family == "hillhorror"
        right = tf.closed_form_p_eR(spec, 0.1)
        if right is not None:
            assert right == pytest.approx(generic.p_eR, abs=1e-10)


def test_uniform_mild_bands_by_hand():
    got = chars("uniform(a=0,b=1)", inner=0.1, outer=0.2)
    assert got.p_eL == pytest.approx(0.15, abs=1e-14)
    assert got.p_mL == pytest.approx(0.05, abs=1e-14)
    assert got.p_eR == pytest.approx(0.15, abs=1e-14)
    assert got.p_mR == pytest.approx(0.05, abs=1e-14)


def test_uniform_default_fences_all_zero():
    got = chars("uniform(a=0,b=1)")
    assert (got.p_eL, got.p_eR, got.p_e2, got.p_mL, got.p_mR, got.p_m2) == (0,) * 6


def test_shift_and_scale_leave_characteristics_unchanged():
    base = chars("gumbel(mu=0,gamma=1)")
    shifted = chars("gumbel(mu=42.5,gamma=1)")
    scaled = chars("gumbel(mu=0,gamma=7.25)")
    for attr in ("p_eL", "p_eR", "p_e2", "p_mL", "p_mR", "p_m2"):
        assert abs(getattr(base, attr) - getattr(shifted, attr)) <= 1e-12
        assert abs(getattr(base, attr) - getattr(scaled, attr)) <= 1e-12


# The eight families with a location or scale parameter, as spec text for
# shape a, location b and scale c; b = 0, c = 1 is the standard member.
LOCATION_SCALE_FORMS = [
    lambda a, b, c: f"uniform(a={b!r},b={b + c!r})",
    lambda a, b, c: f"exp(lambda={1.0 / c!r})",
    lambda a, b, c: f"gamma(alpha={a!r},beta={1.0 / c!r})",
    lambda a, b, c: f"normal(mu={b!r},sigma2={c * c!r})",
    lambda a, b, c: f"pareto(alpha={a!r},delta={c!r})",
    lambda a, b, c: f"frechet(alpha={a!r},mu={b!r},sigma={c!r})",
    lambda a, b, c: f"negweibull(alpha={a!r},mu={b!r},sigma={c!r})",
    lambda a, b, c: f"gumbel(mu={b!r},gamma={c!r})",
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    form=st.sampled_from(LOCATION_SCALE_FORMS),
    log_a=st.floats(-0.7, 1.3),
    shift=st.floats(-100.0, 100.0),
    log_c=st.floats(-3.0, 3.0),
)
def test_location_and_scale_leave_characteristics_unchanged(form, log_a, shift, log_c):
    a, c = 10.0**log_a, 10.0**log_c
    base = chars(form(a, 0.0, 1.0))
    moved = chars(form(a, shift * c, c))
    for attr in ("p_eL", "p_eR", "p_e2", "p_mL", "p_mR", "p_m2"):
        assert getattr(moved, attr) == pytest.approx(getattr(base, attr), rel=1e-9, abs=1e-12), attr


def test_p_eR_decreasing_in_tail_index():
    for family, extra in (("pareto", {"delta": 1.0}), ("frechet", {"mu": 0.0, "sigma": 1.0}),
                          ("hillhorror", {})):
        values = []
        for alpha in (0.2, 0.5, 1.0, 2.0, 5.0):
            spec = tf.DistributionSpec(family, {"alpha": alpha, **extra})
            values.append(tf.characteristics(spec).p_eR)
        assert all(a > b for a, b in zip(values, values[1:])), (family, values)


def test_gamma_tail_rate_against_scipy():
    # True behavior of the gamma right tail beyond the outer fence: strictly
    # positive for every shape, decreasing in the shape, matching an
    # independent scipy.stats evaluation. (The acceptance gate additionally
    # pins the published <=1e-12 claim for shapes > 1, which exact
    # evaluation contradicts; see tests/test_acceptance.py.)
    previous = None
    for shape in (0.2, 0.5, 0.9, 1.5, 3.0, 10.0):
        got = chars(f"gamma(alpha={shape},beta=1)")
        dist = stats.gamma(shape)
        fence = 4 * dist.ppf(0.75) - 3 * dist.ppf(0.25)
        assert got.p_eR == pytest.approx(dist.sf(fence), rel=1e-9, abs=1e-12)
        assert got.p_eR > 0.0
        if previous is not None:
            assert got.p_eR < previous
        previous = got.p_eR
    assert chars("gamma(alpha=1,beta=2)").p_eR == pytest.approx(1.0 / 108.0, rel=1e-9)


def test_gamma_left_tail_zero():
    for shape in (0.2, 0.5, 0.9, 1.5, 3.0, 10.0):
        assert chars(f"gamma(alpha={shape},beta=1)").p_eL == 0.0


# The fence is finite but overflows in sigma units (sigma < 1), so the CDF is
# read through logs. Exact values: mpmath at 50 digits from the exact quartiles
# and fence, p_eR = 1 - exp(-((q3 + f*iqr - mu)/sigma)^-alpha) for Frechet and
# p_eL = exp(-((mu - (q1 - f*iqr))/sigma)^alpha) for the negative Weibull.
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize(
    ("text", "outer", "side", "exact"),
    [
        ("frechet(alpha=0.002,mu=0,sigma=0.001)", 1e39, "p_eR", 0.213677297655676),
        ("negweibull(alpha=0.002,mu=0,sigma=0.001)", 1e238, "p_eL", 0.0157934561461066),
    ],
)
def test_fence_overflowing_in_sigma_units(text, outer, side, exact, closed):
    got = chars(text, outer=outer, use_closed_forms=closed)
    assert getattr(got, side) == pytest.approx(exact, rel=1e-9, abs=0.0)
