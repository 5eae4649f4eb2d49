import math
import warnings
from dataclasses import MISSING, FrozenInstanceError, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailfence as tf
from tailfence import distributions, estimators
from tailfence.empirical import row_fence_characteristics

LOG3 = math.log(3.0)
LOG4 = math.log(4.0)
LOG43 = math.log(4.0 / 3.0)
LOGLOG4 = math.log(LOG4)
LOGLOG43 = math.log(LOG43)


def crafted_fence_sample():
    """n=108 sample with q1=log(4/3), q3=log(4), exactly one point beyond the fence.

    The outer fence lands at 4*log4 - 3*log(4/3) = log4 + 3*log3 = log(108),
    so the Pareto fence estimator evaluates to log(108)/log(log(108)).
    """
    values = (
        [0.1] * 26 + [LOG43] * 2 + [1.0] * 52 + [LOG4] * 2 + [2.0] * 25 + [5.0]
    )
    assert len(values) == 108
    return tf.Sample(values)


def quartile_sample():
    # knots: (n+1)*0.25 = 1 and (n+1)*0.75 = 3, so q1 = 2 and q3 = 6 exactly
    return tf.Sample([2.0, 4.0, 6.0])


def own_quantile_grid(text, n=99):
    """The n quantiles of a spec at i/(n+1); at n=99 its type-6 quartiles are the spec's own."""
    spec = tf.parse_spec(text)
    return tf.Sample([tf.quantile(spec, i / (n + 1)) for i in range(1, n + 1)])


def pareto_grid_sample(alpha, n, delta=1.0):
    return own_quantile_grid(f"pareto(alpha={alpha!r},delta={delta!r})", n)


def test_fence_prob_worked_example():
    smp = crafted_fence_sample()
    fen = tf.empirical_fences(smp)
    assert fen.outer_high == pytest.approx(math.log(108.0), abs=1e-12)
    assert tf.empirical_p_eR(smp) == pytest.approx(1.0 / 108.0, abs=0.0)
    rec = tf.estimate_fence_prob(smp, "pareto")
    assert rec.valid
    assert rec.method == "par_n"
    assert rec.alpha_hat == pytest.approx(
        -math.log(1.0 / 108.0) / math.log(LOG4 + 3 * LOG3), rel=1e-12
    )
    assert rec.alpha_hat == pytest.approx(3.03295282601, abs=1e-9)


def test_fence_prob_requires_outliers():
    rec = tf.estimate_fence_prob(tf.Sample([1.0, 2.0, 3.0, 4.0]), "pareto")
    assert not rec.valid
    assert rec.alpha_hat is None
    assert rec.reason == "no extreme outliers observed"


def test_fence_prob_family_variants():
    smp = crafted_fence_sample()
    p = 1.0 / 108.0
    fence = math.log(108.0)
    fr = tf.estimate_fence_prob(smp, "frechet")
    assert fr.method == "fr_n"
    assert fr.alpha_hat == pytest.approx(-math.log(-math.log1p(-p)) / math.log(fence), rel=1e-12)
    # doubling the data moves the fence to 2*log(108) while p stays 1/108
    doubled = tf.Sample(2.0 * smp.values)
    hh = tf.estimate_fence_prob(doubled, "hillhorror")
    assert hh.method == "hh_n" and hh.valid
    fence2 = tf.empirical_fences(doubled).outer_high
    assert hh.alpha_hat == pytest.approx(math.log(p) / math.log(-math.log(p) / fence2), rel=1e-12)


def test_fence_prob_hillhorror_singularity():
    # constant quartiles pin the fence exactly at -log(p_eR): the formula's
    # denominator vanishes and the record names the violated condition
    level = -math.log(1.0 / 108.0)
    smp = tf.Sample([level] * 107 + [level + 5.0])
    assert tf.empirical_fences(smp).outer_high == level
    rec = tf.estimate_fence_prob(smp, "hillhorror")
    assert not rec.valid
    assert rec.reason == "outer fence equals -log(p_eR)"


def test_fence_prob_seed_regression():
    # seed-pinned draw; recorded value 0.4726566...
    smp = tf.sample(tf.parse_spec("pareto(alpha=0.5,delta=1)"), tf.RngState(42, 0), 100)
    rec = tf.estimate_fence_prob(smp, "pareto")
    assert rec.valid
    assert 0.2 <= rec.alpha_hat <= 0.9


def test_fence_prob_rejects_bad_family():
    with pytest.raises(ValueError, match="family"):
        tf.estimate_fence_prob(quartile_sample(), "gumbel")
    with pytest.raises(ValueError, match="family"):
        tf.estimate_quartile_ratio(quartile_sample(), "gumbel")
    with pytest.raises(ValueError, match="family"):
        estimators.alpha_from_fence_prob("gumbel", 0.01, 10.0)
    with pytest.raises(ValueError, match="family"):
        estimators.alpha_from_quartiles("gumbel", 1.0, 2.0)


def test_quartile_ratio_worked_examples():
    smp = quartile_sample()
    par = tf.estimate_quartile_ratio(smp, "pareto")
    assert par.valid and par.alpha_hat == pytest.approx(1.0, abs=1e-15)

    fr = tf.estimate_quartile_ratio(smp, "frechet")
    expected = (LOGLOG4 - LOGLOG43) / LOG3
    assert fr.valid and fr.alpha_hat == pytest.approx(expected, rel=1e-13)
    assert fr.alpha_hat == pytest.approx(1.4314, abs=2e-4)

    # hill-horror denominator log3 + loglog(4/3) - loglog4 ~ -0.4739 < 0
    hh = tf.estimate_quartile_ratio(smp, "hillhorror")
    assert not hh.valid
    assert hh.reason == "family mismatch"
    assert hh.alpha_hat == pytest.approx(LOG3 / (LOG3 + LOGLOG43 - LOGLOG4), rel=1e-12)
    assert hh.alpha_hat < 0


def test_quartile_ratio_domain_errors():
    neg = tf.estimate_quartile_ratio(tf.Sample([-1.0, 0.5, 5.0]), "pareto")
    assert not neg.valid and neg.reason == "needs positive quartiles"
    const = tf.estimate_quartile_ratio(tf.Sample([3.0, 3.0, 3.0]), "pareto")
    assert not const.valid and const.reason == "equal quartiles"


def test_quartile_ratio_exact_on_matched_quartiles():
    # the population limit: each family's quartile ratio inverts to its own alpha
    for family, form, alphas in [
        ("pareto", "pareto(alpha={},delta=3)", (0.5, 1.0, 2.0)),
        ("frechet", "frechet(alpha={},mu=0,sigma=2)", (0.3, 0.5, 1.0, 2.5)),
        ("hillhorror", "hillhorror(alpha={})", (0.3, 0.5, 1.0, 2.5)),
    ]:
        for alpha in alphas:
            rec = tf.estimate_quartile_ratio(own_quantile_grid(form.format(alpha)), family)
            assert rec.valid
            assert rec.alpha_hat == pytest.approx(alpha, abs=1e-12), (family, alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.5])
@pytest.mark.parametrize(("family", "form"), [
    ("pareto", "pareto(alpha={},delta=1)"),
    ("frechet", "frechet(alpha={},mu=0,sigma=1)"),
    ("hillhorror", "hillhorror(alpha={})"),
])
def test_inversions_return_alpha_from_theoretical_characteristics(family, form, alpha):
    # the paper's estimators invert characteristics: fed its own family's, each gives alpha back
    chars = tf.characteristics(tf.parse_spec(form.format(alpha)))
    fen = chars.fences
    for record in (estimators.alpha_from_fence_prob(family, chars.p_eR, fen.outer_high),
                   estimators.alpha_from_quartiles(family, fen.q1, fen.q3)):
        assert record.valid, record
        assert abs(record.alpha_hat - alpha) <= 4 * math.ulp(alpha), record


FAMILIES = ("pareto", "frechet", "hillhorror")


def test_fence_inversions_at_an_infinite_fence_are_a_family_mismatch():
    # -log(p_eR) / inf is 0 for Hill-horror: the same limit as Pareto and Frechet reach
    for family in FAMILIES:
        rec = estimators.alpha_from_fence_prob(family, 0.5, math.inf)
        assert (rec.alpha_hat, rec.valid, rec.reason) == (0.0, False, "family mismatch"), family


def test_hillhorror_fence_inversion_when_its_ratio_underflows():
    # -log(p_eR) ~ 1.1e-16 over a fence of 1e308 underflows to 0
    rec = estimators.alpha_from_fence_prob("hillhorror", 1 - 2**-53, 1e308)
    assert (rec.alpha_hat, rec.valid, rec.reason) == (0.0, False, "family mismatch")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p_eR", [1.0, -0.1, 1.5, math.nan])
def test_fence_inversion_refuses_p_eR_outside_its_domain(family, p_eR):
    with pytest.raises(ValueError, match=r"inversion needs 0 <= p_eR < 1"):
        estimators.alpha_from_fence_prob(family, p_eR, 10.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_fence_inversion_refuses_a_nan_fence(family):
    with pytest.raises(ValueError, match="fence that is not NaN"):
        estimators.alpha_from_fence_prob(family, 0.01, math.nan)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(("q1", "q3"), [(1.0, -1.0), (2.0, 1.0), (math.nan, 1.0), (1.0, math.nan)])
def test_quartile_inversion_refuses_q3_below_q1_or_nan(family, q1, q3):
    with pytest.raises(ValueError, match="inversion needs quartiles q1 <= q3"):
        estimators.alpha_from_quartiles(family, q1, q3)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(family=st.sampled_from(FAMILIES), a=st.floats(), b=st.floats())
def test_inversions_are_total_over_all_floats_property(family, a, b):
    # every float pair, NaN and +-inf included: a record, or the one boundary error
    for inversion in (estimators.alpha_from_fence_prob, estimators.alpha_from_quartiles):
        try:
            record = inversion(family, a, b)
        except ValueError as error:
            assert str(error).startswith("inversion needs"), error
        else:
            assert isinstance(record, estimators.EstimateRecord)
            assert not record.valid or (math.isfinite(record.alpha_hat) and record.alpha_hat > 0)


def test_hill_simple_cases():
    rec = tf.hill(tf.Sample([1.0, math.e, math.e, math.e]), 3)
    assert rec.valid and rec.alpha_hat == pytest.approx(1.0, abs=1e-15)
    assert rec.k == 3

    degenerate = tf.hill(tf.Sample([2.0] * 6), 3)
    assert not degenerate.valid and degenerate.reason == "degenerate tail"

    # k=2 only touches the positive top order statistics and stays defined
    assert tf.hill(tf.Sample([-1.0, 1.0, 2.0, 3.0]), 2).valid
    negative = tf.hill(tf.Sample([-1.0, 1.0, 2.0, 3.0]), 3)
    assert not negative.valid and negative.reason == "requires positive order statistics"

    with pytest.raises(ValueError, match="k must satisfy"):
        tf.hill(tf.Sample([1.0, 2.0, 3.0]), 3)


def test_hill_seed_regression():
    # seed-pinned draw; recorded value 0.5118456...
    smp = tf.sample(tf.parse_spec("pareto(alpha=0.5,delta=1)"), tf.RngState(42, 0), 100)
    rec = tf.hill(smp, 30)
    assert rec.valid
    assert 0.35 <= rec.alpha_hat <= 0.65


def test_hill_gamma_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(30):
        smp = tf.Sample(rng.uniform(0.01, 10.0, size=int(rng.integers(5, 50))))
        rec = tf.hill(smp, int(rng.integers(1, smp.n - 1)))
        assert (rec.valid and rec.alpha_hat > 0) or rec.reason == "degenerate tail"


def test_t_hill_cases():
    doubled = tf.t_hill(tf.Sample([1.0, 2.0, 2.0, 2.0]), 3)
    assert doubled.valid and doubled.alpha_hat == pytest.approx(1.0, abs=1e-15)

    grid = tf.t_hill(pareto_grid_sample(1.0, 100), 25)
    # ratios i/26 for i=1..25 average exactly 1/2, so alpha_hat = 1
    assert grid.alpha_hat == pytest.approx(1.0, abs=1e-12)
    assert 0.7 <= grid.alpha_hat <= 1.4

    flat = tf.t_hill(tf.Sample([3.0, 3.0, 3.0, 3.0]), 2)
    assert not flat.valid and flat.reason == "degenerate tail"


def test_pickands_cases():
    ratio_two = tf.pickands(tf.Sample([0.0, 1.0, 2.0, 6.0]), 1)
    assert ratio_two.valid and ratio_two.alpha_hat == pytest.approx(1.0, abs=1e-15)

    ratio_four = tf.pickands(tf.Sample([0.0, 1.0, 2.0, 10.0]), 1)
    assert ratio_four.valid and ratio_four.alpha_hat == pytest.approx(0.5, abs=1e-15)

    tied = tf.pickands(tf.Sample([0.0, 1.0, 2.0, 2.0]), 1)
    assert not tied.valid and tied.reason == "tied order statistics"

    with pytest.raises(ValueError, match="4k"):
        tf.pickands(tf.Sample([1.0, 2.0, 3.0]), 1)


def test_moment_cases():
    # log spacings {0, 2}: M1 = 1, M2 = 2, gamma = 1 + 1 - 0.5/(1 - 1/2) = 1
    rec = tf.moment_dedh(tf.Sample([1.0, 1.0, math.e**2]), 2)
    assert rec.valid and rec.alpha_hat == pytest.approx(1.0, rel=1e-12)

    grid = tf.moment_dedh(pareto_grid_sample(1.0, 100), 25)
    assert grid.valid
    gamma = 1.0 / grid.alpha_hat
    assert 0.6 <= gamma <= 1.4
    assert grid.alpha_hat == pytest.approx(1.282677726287932, rel=1e-12)  # frozen oracle

    flat = tf.moment_dedh(tf.Sample([2.0, 5.0, 5.0, 5.0]), 2)
    assert not flat.valid and flat.reason == "degenerate tail"


def test_scale_invariance_of_ratio_estimators():
    rng = np.random.default_rng(31)
    smp = tf.Sample(rng.pareto(1.2, size=60) + 1.0)
    for c in (0.5, 3.7):
        scaled = tf.Sample(c * smp.values)
        for family in ("pareto", "frechet", "hillhorror"):
            a = tf.estimate_quartile_ratio(smp, family)
            b = tf.estimate_quartile_ratio(scaled, family)
            if a.valid and b.valid:
                assert b.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-12)
        for k in (5, 14):
            assert tf.hill(scaled, k).alpha_hat == pytest.approx(
                tf.hill(smp, k).alpha_hat, rel=1e-12
            )
            assert tf.t_hill(scaled, k).alpha_hat == pytest.approx(
                tf.t_hill(smp, k).alpha_hat, rel=1e-12
            )
            assert tf.moment_dedh(scaled, k).alpha_hat == pytest.approx(
                tf.moment_dedh(smp, k).alpha_hat, rel=1e-12
            )


def test_pickands_location_and_scale_invariance():
    rng = np.random.default_rng(32)
    smp = tf.Sample(rng.pareto(1.0, size=64) + 1.0)
    moved = tf.Sample(2.5 * smp.values - 17.0)
    for k in (3, 9, 16):
        a = tf.pickands(smp, k)
        b = tf.pickands(moved, k)
        assert b.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-12)


def test_fence_prob_not_scale_invariant():
    # its denominator is the log of a location, so scaling must move it
    smp = crafted_fence_sample()
    scaled = tf.Sample(3.0 * smp.values)
    a = tf.estimate_fence_prob(smp, "pareto")
    b = tf.estimate_fence_prob(scaled, "pareto")
    assert a.valid and b.valid
    assert abs(a.alpha_hat - b.alpha_hat) > 1e-6


def test_evaluate_dispatch():
    smp = pareto_grid_sample(1.0, 40)
    assert tf.evaluate("par_q", smp).method == "par_q"
    assert tf.evaluate("hill", smp, k=10).method == "hill"
    with pytest.raises(ValueError, match="requires k"):
        tf.evaluate("hill", smp)
    with pytest.raises(ValueError, match="unknown method"):
        tf.evaluate("bogus", smp)
    with pytest.raises(ValueError, match="method 'par_q' takes no k"):
        tf.evaluate("par_q", smp, k="junk")
    with pytest.raises(ValueError, match="unknown method"):
        tf.evaluate("bogus", smp, k=5)


NAMED_CLASSICAL = {"hill": tf.hill, "thill": tf.t_hill, "pickands": tf.pickands, "moment": tf.moment_dedh}


@pytest.mark.parametrize("method", tf.CLASSICAL_METHODS)
@pytest.mark.parametrize("k", [2.5, 3.0, np.float64(3.0), True, "3"])
def test_classical_k_must_be_an_integer(method, k):
    smp = pareto_grid_sample(1.0, 40)
    for score in (lambda k: tf.evaluate(method, smp, k), lambda k: NAMED_CLASSICAL[method](smp, k)):
        with pytest.raises(ValueError, match="k must be an integer"):
            score(k)
        record = score(np.int64(3))  # a numpy integer reaches the record as an int
        assert type(record.k) is int and record == score(3)


# --- reference oracle ------------------------------------------------------------
#
# The per-sample estimator code as it stood before the estimators were tuned
# for per-replicate cost (less hh_q's zero-denominator check, which no float
# input reaches), kept as the oracle: every estimator must reproduce its
# estimate and its first failing check bit for bit.

def reference_evaluate(method, smp, k=None):
    def invalid(reason):
        return tf.EstimateRecord(method, None, False, reason, k)

    def checked(alpha):
        if not math.isfinite(alpha):
            return invalid("non-finite estimate")
        if alpha <= 0.0:
            return tf.EstimateRecord(method, alpha, False, "family mismatch", k)
        return tf.EstimateRecord(method, alpha, True, "", k)

    x, n = smp.sorted, smp.n
    if method in ("par_n", "fr_n", "hh_n"):
        fen = tf.empirical_fences(smp)
        p = (n - int(np.searchsorted(x, fen.outer_high, side="right"))) / n
        if p == 0.0:
            return invalid("no extreme outliers observed")
        if fen.outer_high <= 0.0:
            return invalid("outer fence not positive")
        if method == "hh_n":
            denom = math.log(-math.log(p) / fen.outer_high)
            if denom == 0.0:
                return invalid("outer fence equals -log(p_eR)")
            return checked(math.log(p) / denom)
        denom = math.log(fen.outer_high)
        if denom == 0.0:
            return invalid("outer fence equals 1")
        if method == "par_n":
            return checked(-math.log(p) / denom)
        return checked(-math.log(-math.log1p(-p)) / denom)
    if method in ("par_q", "fr_q", "hh_q"):
        fen = tf.empirical_fences(smp)
        if fen.q1 <= 0.0:
            return invalid("needs positive quartiles")
        if fen.q1 == fen.q3:
            return invalid("equal quartiles")
        spread = math.log(fen.q3) - math.log(fen.q1)
        if method == "par_q":
            return checked(LOG3 / spread)
        if method == "fr_q":
            return checked((LOGLOG4 - LOGLOG43) / spread)
        return checked(LOG3 / (spread + LOGLOG43 - LOGLOG4))
    if method == "pickands":
        a, b, c = x[n - k], x[n - 2 * k], x[n - 4 * k]
        upper, lower = a - b, b - c
        if upper == 0.0 or lower == 0.0:
            return invalid("tied order statistics")
        gamma = math.log(upper / lower) / math.log(2.0)
        if gamma == 0.0:
            return invalid("zero tail-index estimate")
        return tf.EstimateRecord(method, 1.0 / gamma, gamma > 0.0,
                                 "" if gamma > 0.0 else "non-heavy tail estimate", k)
    tail, base = x[n - k:], x[n - k - 1]
    if base <= 0.0:
        return invalid("requires positive order statistics")
    if method == "hill":
        gamma = float(np.mean(np.log(tail / base)))
        if gamma == 0.0:
            return invalid("degenerate tail")
        return tf.EstimateRecord(method, 1.0 / gamma, True, "", k)
    if method == "thill":
        t = float(np.mean(base / tail))
        if t >= 1.0:
            return invalid("degenerate tail")
        return checked(t / (1.0 - t))
    logs = np.log(tail / base)
    m1, m2 = float(np.mean(logs)), float(np.mean(logs * logs))
    if m2 == 0.0:
        return invalid("degenerate tail")
    ratio = m1 * m1 / m2
    if ratio == 1.0:
        return invalid("degenerate moment ratio")
    gamma = m1 + 1.0 - 0.5 / (1.0 - ratio)
    if gamma == 0.0:
        return invalid("non-heavy tail estimate")
    return tf.EstimateRecord(method, 1.0 / gamma, gamma > 0.0,
                             "" if gamma > 0.0 else "non-heavy tail estimate", k)


TOP = np.nextafter(1e300, np.inf)
PICKANDS_UNDERFLOW = [-1e300, 0.0, 5e-324, 1e-323]  # spacing ratio 5e-324 / 1e300 -> 0
PICKANDS_OVERFLOW = [0.0, 0.0, 1e-300, 1e300]  # spacing ratio 1e300 / 1e-300 -> inf
EXCESS_OVERFLOW = [1e-300, 1e300]  # excess ratio 1e300 / 1e-300 -> inf, its reciprocal -> 0

# What the per-sample code did on the samples it had no check for, by method
# and sample: the exception it raised, or the record it returned.
REFERENCE_NON_FINITE = {
    ("fr_q", (1e300, 1e300, TOP)): ZeroDivisionError,  # divided by the zero log spread
    ("pickands", tuple(PICKANDS_UNDERFLOW)): ValueError,  # log(0): math domain error
    ("pickands", tuple(PICKANDS_OVERFLOW)): tf.EstimateRecord("pickands", 0.0, True, "", 1),  # 1 / log(inf)
    ("hill", tuple(EXCESS_OVERFLOW)): tf.EstimateRecord("hill", 0.0, True, "", 1),  # 1 / mean(log(inf))
    # inf / inf: gamma is NaN, so its `gamma > 0.0` test calls the tail non-heavy
    ("moment", tuple(EXCESS_OVERFLOW)): tf.EstimateRecord("moment", math.nan, False,
                                                          "non-heavy tail estimate", 1),
    # 1e-300 / 1e300 underflows to 0, and 0 / (1 - 0) reads as a family mismatch
    ("thill", tuple(EXCESS_OVERFLOW)): tf.EstimateRecord("thill", 0.0, False, "family mismatch", 1),
}

# (method, sample, k, reason): together they reach every reason an estimator gives
CRAFTED = [
    ("par_q", [2.0, 4.0, 6.0], None, ""),
    ("hh_q", [2.0, 4.0, 6.0], None, "family mismatch"),
    ("pickands", [0.0, 5.0, 6.0, 7.0], 1, "non-heavy tail estimate"),
    ("moment", [1.0, math.e, math.exp(1.1)], 2, "non-heavy tail estimate"),
    # gamma = m1 + 1 - 0.5/(1 - m1^2/m2) lands on exactly 0: no estimate to report
    ("moment", [1.0, 1.1213533912612874, 2.1057534235321143], 2, "non-heavy tail estimate"),
    ("fr_q", [1e300, 1e300, TOP], None, "non-finite estimate"),  # log q3 == log q1
    ("par_n", [1.0, 2.0, 3.0, 4.0], None, "no extreme outliers observed"),
    ("hh_n", [-3.0] * 4, None, "no extreme outliers observed"),  # checked before the fence sign
    ("fr_n", [-10.0] * 6 + [-1.0], None, "outer fence not positive"),
    ("hh_n", [-math.log(1.0 / 108.0)] * 107 + [-math.log(1.0 / 108.0) + 5.0], None,
     "outer fence equals -log(p_eR)"),
    ("par_n", [1.0] * 7 + [5.0], None, "outer fence equals 1"),
    ("par_q", [-1.0, 0.5, 5.0], None, "needs positive quartiles"),
    ("fr_q", [3.0, 3.0, 3.0], None, "equal quartiles"),
    ("hill", [-1.0, 1.0, 2.0, 3.0], 3, "requires positive order statistics"),
    ("thill", [3.0, 3.0, 3.0, 3.0], 2, "degenerate tail"),
    ("pickands", [0.0, 1.0, 2.0, 2.0], 1, "tied order statistics"),
    ("pickands", [0.0, 1.0, 1.0, 2.0], 1, "zero tail-index estimate"),
    ("moment", [1.0, math.e, math.e], 2, "degenerate moment ratio"),
    ("pickands", PICKANDS_UNDERFLOW, 1, "non-finite estimate"),
    ("pickands", PICKANDS_OVERFLOW, 1, "non-finite estimate"),
    ("hill", EXCESS_OVERFLOW, 1, "non-finite estimate"),
    ("moment", EXCESS_OVERFLOW, 1, "non-finite estimate"),
    ("thill", EXCESS_OVERFLOW, 1, "non-finite estimate"),
]


def test_crafted_samples_reach_every_reason():
    # every method reports its reason as an index into ROW_REASONS
    assert len(set(estimators.ROW_REASONS)) == len(estimators.ROW_REASONS)
    assert {reason for _, _, _, reason in CRAFTED} == set(estimators.ROW_REASONS)


@pytest.mark.parametrize(("method", "values", "k", "reason"), CRAFTED)
def test_crafted_reasons_match_reference(method, values, k, reason):
    smp = tf.Sample(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = tf.evaluate(method, smp, k)
    assert record.reason == reason
    if reason == "non-finite estimate":
        expected = REFERENCE_NON_FINITE[(method, tuple(values))]
        if isinstance(expected, tf.EstimateRecord):
            with np.errstate(over="ignore", invalid="ignore"):
                got = reference_evaluate(method, smp, k)
            if math.isnan(expected.alpha_hat):  # NaN never equals NaN: compare the rest
                assert math.isnan(got.alpha_hat)
                assert replace(got, alpha_hat=None) == replace(expected, alpha_hat=None)
            else:
                assert got == expected
        else:
            with pytest.raises(expected):
                reference_evaluate(method, smp, k)
    else:
        assert record == reference_evaluate(method, smp, k)


def test_estimators_match_reference_on_many_samples():
    # enough distinct logarithms and sums that a last-bit difference shows
    spec = tf.parse_spec("pareto(alpha=1,delta=1)")
    samples = [tf.sample(spec, tf.RngState(3, r), 40) for r in range(2000)]
    for method in tf.ALL_METHODS:
        k = 8 if method in tf.CLASSICAL_METHODS else None
        assert [tf.evaluate(method, smp, k) for smp in samples] == [
            reference_evaluate(method, smp, k) for smp in samples
        ]


# --- the inversions as they were written per row ---------------------------------
#
# The six fence/quartile inversions as they stood while they ran once per row
# on Python floats, copied verbatim: the array forms must give each row's
# estimate and code bit for bit.

_LOG3, _LOGLOG4, _LOGLOG43 = LOG3, LOGLOG4, LOGLOG43
(_VALID, _NON_FINITE, _NO_OUTLIERS, _FENCE_NOT_POSITIVE, _FENCE_AT_LOG_P, _FENCE_AT_ONE, _QUARTILES_NOT_POSITIVE,
 _EQUAL_QUARTILES, _MISMATCH) = map(estimators.ROW_REASONS.index, (
    "", "non-finite estimate", "no extreme outliers observed", "outer fence not positive",
    "outer fence equals -log(p_eR)", "outer fence equals 1", "needs positive quartiles", "equal quartiles",
    "family mismatch"))


def _graded(alpha: float) -> tuple[float, int]:
    # alpha is finite: callers refuse a 0 denominator, and |numerator| <= ~745 over |denominator| >= ~1.1e-16
    # A non-positive estimate is surfaced, not clamped: diagnostic evidence of misclassified data.
    return alpha, _VALID if alpha > 0.0 else _MISMATCH


def _fence_row(family: str, p_eR: float, outer_high: float) -> tuple[float, int]:
    if p_eR == 0.0:
        return math.nan, _NO_OUTLIERS
    if outer_high <= 0.0:
        return math.nan, _FENCE_NOT_POSITIVE
    if family == "hillhorror":
        ratio = -math.log(p_eR) / outer_high
        denom = math.log(ratio) if ratio else -math.inf  # an infinite fence, or a ratio that underflows
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


PER_ROW_INVERSIONS = {
    "par_n": ("pareto", _fence_row),
    "par_q": ("pareto", _quartile_row),
    "fr_n": ("frechet", _fence_row),
    "fr_q": ("frechet", _quartile_row),
    "hh_n": ("hillhorror", _fence_row),
    "hh_q": ("hillhorror", _quartile_row),
}


def assert_inversions_equal_per_row(fence_pairs, quartile_pairs):
    """finish_rows of each inversion over the pairs, stacked, equals the per-row code, by float.hex and code.

    Under warnings as errors: no row warns, whatever its neighbours.
    """
    for method, (family, per_row) in PER_ROW_INVERSIONS.items():
        pairs = fence_pairs if per_row is _fence_row else quartile_pairs
        statistics = tuple(np.array(column, dtype=float) for column in zip(*pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, code = estimators.finish_rows(method, statistics)
        assert (alpha.dtype, code.dtype) == (np.float64, np.int_)
        expected = [per_row(family, *pair) for pair in pairs]
        assert [a.hex() for a in alpha.tolist()] == [a.hex() for a, _ in expected], method
        assert code.tolist() == [c for _, c in expected], method


P_EDGES = [0.0, 1 / 7, 1 - 2**-53, 5e-324] + [c / 30 for c in range(1, 30)]
FENCE_EDGES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               1 + 2**-52, 1 - 2**-53]
QUARTILE_EDGES = FENCE_EDGES + [1e300, float(TOP), 1e-323]


@st.composite
def fence_pairs(draw):
    """(p_eR, outer_high): 0 <= p_eR < 1 and a fence that is not NaN, edge values likely."""
    p_eR = draw(st.one_of(st.sampled_from(P_EDGES), st.floats(0.0, 1.0, exclude_max=True)))
    fence = draw(st.one_of(
        st.sampled_from(FENCE_EDGES),
        st.just(-math.log(p_eR) if p_eR else 0.0),  # the Hill-horror singularity
        st.floats(-745.0, 709.0).map(math.exp),  # lognormal, subnormals and 1 +- ulp among them
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False),
    ))
    return p_eR, fence


@st.composite
def quartile_pairs(draw):
    """(q1, q3) with q1 <= q3, neither NaN: equal and adjacent quartiles likely."""
    quartile = st.one_of(st.sampled_from(QUARTILE_EDGES), st.floats(-745.0, 709.0).map(math.exp),
                         st.floats(allow_nan=False))
    q1 = draw(quartile)
    q3 = draw(st.one_of(quartile, st.just(q1), st.just(math.nextafter(q1, math.inf))))
    return min(q1, q3), max(q1, q3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fences=st.lists(fence_pairs(), min_size=1, max_size=40),
       quartiles=st.lists(quartile_pairs(), min_size=1, max_size=40))
def test_inversion_forms_equal_the_per_row_code_property(fences, quartiles):
    assert_inversions_equal_per_row(fences, quartiles)


def test_inversion_forms_equal_the_per_row_code_on_edge_pairs():
    fences = [(p, fence) for p in P_EDGES for fence in FENCE_EDGES + [-math.log(p) if p else 0.0]]
    quartiles = [(q1, q3) for q1 in QUARTILE_EDGES for q3 in QUARTILE_EDGES + [math.nextafter(q1, math.inf)]
                 if q1 <= q3]
    assert_inversions_equal_per_row(fences, quartiles)


@pytest.mark.parametrize("values", [values for method, values, _, _ in CRAFTED if method in tf.NEW_METHODS])
def test_inversion_forms_equal_the_per_row_code_on_crafted_rows(values):
    statistics = estimators.row_statistics(tf.NEW_METHODS, np.sort(np.array(values, dtype=float))[None, :])
    assert_inversions_equal_per_row([tuple(s.item(0) for s in statistics["par_n"])],
                                    [tuple(s.item(0) for s in statistics["par_q"])])


def row_records(method, alpha, code, k):
    """The records of a row result's arrays, one per row."""
    assert (alpha.dtype, code.dtype) == (np.float64, np.int_)
    return [tf.EstimateRecord(method, None if math.isnan(a) else a, c == 0, estimators.ROW_REASONS[c], k)
            for a, c in zip(alpha.tolist(), code.tolist())]


def row_form_records(method, rows, k):
    """The records of every row of a matrix of sorted samples, from the method's row form.

    k is None for a fence/quartile method, whose records carry no k.
    """
    return row_records(method, *estimators.score_rows((method,), rows, k)[method], k)


@pytest.mark.parametrize("text", ["pareto(alpha=0.5,delta=1)", "t(n=4)"])
def test_row_forms_match_reference_on_every_k(text):
    n = 100
    rows = distributions.sample_blocks(tf.parse_spec(text), 21, [(range(20), n)])[0]
    samples = [tf.Sample(row) for row in rows]
    reasons = set()
    for method in tf.CLASSICAL_METHODS:
        for k in range(2, n // 4 + 1 if method == "pickands" else n):
            got = [bits(record) for record in row_form_records(method, rows, k)]
            assert got == [bits(reference_evaluate(method, smp, k)) for smp in samples], (method, k)
            reasons.update(reason for *_, reason, _ in got)
    # t(4) rows mix positive and non-positive bases at one k
    assert ("requires positive order statistics" in reasons) == text.startswith("t")


def test_row_forms_do_not_warn_and_keep_rows_apart():
    # t(4) rows whose base is 0 or negative, some with a 0 among the top k
    t4 = distributions.sample_blocks(tf.parse_spec("t(n=4)"), 5, [(range(200), 60)])[0]
    t4[:3, 25:35] = 0.0
    t4.sort(axis=1)
    # overflowing and underflowing excess ratios beside ordinary rows
    mixed = np.array([[1e-300, 1e300], [1.0, 2.0], [0.0, 1.0], [2.0, 2.0], [-1.0, 5.0], [1e-300, 1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("hill", "thill", "moment"):
            for rows, ks in ((t4, range(1, 60)), (mixed, (1,))):
                for k in ks:
                    _, code = estimators.score_rows((method,), rows, k)[method]
                    assert (code[rows[:, -k - 1] <= 0.0] == 1).all()
                    # a row scores as it does alone, as a 1-row matrix
                    assert row_form_records(method, rows, k) == [
                        tf.evaluate(method, tf.Sample(row), k) for row in rows]
        # the six inversions on the crafted samples and on outer fences at 0, 1, inf and
        # subnormal values, their statistics stacked
        samples = [values for method, values, _, _ in CRAFTED if method in tf.NEW_METHODS] + [
            [0.0] * 6 + [1.0], [1.0] * 6 + [2.0], [5e-324] * 6 + [1.0], [-1e308] * 3 + [1e308] * 4]
        pairs = {"_n": [(1 / 7, 0.0), (1 / 7, 1.0), (0.5, math.inf), (1 / 7, 5e-324), (1 - 2**-53, 1e308)],
                 "_q": [(5e-324, 1e-323), (1.0, math.inf), (0.0, 1.0), (1e300, float(TOP))]}
        for method in tf.NEW_METHODS:
            blocks = [estimators.row_statistics((method,), np.sort(np.array(values, dtype=float))[None, :])[method]
                      for values in samples] + [tuple(map(np.array, zip(*pairs[method[-2:]])))]
            statistics = tuple(map(np.concatenate, zip(*blocks)))
            alpha, code = estimators.finish_rows(method, statistics)
            for r in range(len(alpha)):
                alone_alpha, alone_code = estimators.finish_rows(method, tuple(s[r : r + 1] for s in statistics))
                assert (alpha[r : r + 1].tobytes(), code[r]) == (alone_alpha.tobytes(), alone_code[0]), (method, r)


@pytest.mark.parametrize("scorer", [estimators.row_statistics, estimators.score_rows])
def test_row_scoring_refuses_bad_input(scorer):
    small = np.ones((2, 2))  # too small for quartile fences and for k = 5
    # refused before any method is scored: scoring par_n or hill here raises otherwise
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        scorer(("par_n", "hill", "bogus"), small, 5)
    with pytest.raises(ValueError, match="method 'hill' requires k"):
        scorer(("par_n", "hill"), small)
    with pytest.raises(ValueError, match="k must satisfy"):
        scorer(("hill",), np.ones((2, 5)), 5)
    with pytest.raises(ValueError, match="4k <= n"):
        scorer(("pickands",), np.ones((2, 5)), 2)
    with pytest.raises(ValueError, match="sample too small"):
        scorer(("par_n",), small)
    assert scorer((), np.ones((2, 5))) == {}


def test_estimate_record_is_a_frozen_dataclass():
    record = tf.EstimateRecord("hill", 1.5, True, "", 4)
    assert [(f.name, f.default) for f in fields(record)] == [
        ("method", MISSING), ("alpha_hat", MISSING), ("valid", MISSING), ("reason", ""), ("k", None),
    ]
    for name in ("method", "alpha_hat", "valid", "reason", "k", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0)
    with pytest.raises(FrozenInstanceError):
        del record.k
    same = tf.EstimateRecord(method="hill", alpha_hat=1.5, valid=True, reason="", k=4)
    assert record == same and hash(record) == hash(same)
    assert record != tf.EstimateRecord("hill", 1.5, True, "", 5)
    assert tf.EstimateRecord("pickands", None, False) == tf.EstimateRecord("pickands", None, False, "", None)
    moved = replace(record, k=5, valid=False)
    assert moved == tf.EstimateRecord("hill", 1.5, False, "", 5) and record.k == 4
    assert repr(record) == "EstimateRecord(method='hill', alpha_hat=1.5, valid=True, reason='', k=4)"
    assert astuple(record) == ("hill", 1.5, True, "", 4)
    with pytest.raises(TypeError):
        tf.EstimateRecord("hill", 1.5)


ENGINE_SPECS = [
    "pareto(alpha=0.5,delta=1)",
    "frechet(alpha=1.5,mu=0,sigma=2)",
    "hillhorror(alpha=0.5)",
    "t(n=4)",
    "gamma(alpha=0.02,beta=1)",  # underflows to ties at 0
    "uniform(a=-2,b=5)",
    "exp(lambda=1)",
    "negweibull(alpha=1.5,mu=2,sigma=1)",
]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    text=st.sampled_from(ENGINE_SPECS),
    n=st.integers(5, 60),
    m=st.integers(2, 8),
    g=st.integers(0, 50),
    seed=st.integers(0, 2**64 - 1),
    k_share=st.floats(0.0, 1.0),
)
def test_replicate_estimates_match_reference(text, n, m, g, seed, k_share):
    # the replicates of grid point g, drawn as the study engine draws them
    spec = tf.parse_spec(text)
    k = 1 + int(k_share * (n - 2))
    samples = [tf.sample(spec, tf.RngState(seed, g * m + r), n) for r in range(m)]
    for method in tf.ALL_METHODS:
        if method == "pickands" and 4 * k > n:
            continue
        kk = k if method in tf.CLASSICAL_METHODS else None
        assert [tf.evaluate(method, smp, kk) for smp in samples] == [
            reference_evaluate(method, smp, kk) for smp in samples
        ]


SCALE_METHODS = ("par_q", "fr_q", "hh_q", "hill", "pickands", "moment")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    text=st.sampled_from(["pareto(alpha=0.8,delta=1)", "frechet(alpha=1,mu=0,sigma=1)",
                          "hillhorror(alpha=0.5)"]),
    n=st.integers(8, 80),
    seed=st.integers(0, 2**32),
    c=st.floats(1e-3, 1e3),
    k_share=st.floats(0.0, 1.0),
)
def test_scale_invariance_property(text, n, seed, c, k_share):
    k = 1 + int(k_share * (n // 4 - 1))  # 4k <= n for pickands
    for r in range(4):
        smp = tf.sample(tf.parse_spec(text), tf.RngState(seed, r), n)
        scaled = tf.Sample(c * smp.values)
        for method in SCALE_METHODS:
            kk = k if method in tf.CLASSICAL_METHODS else None
            a, b = tf.evaluate(method, smp, kk), tf.evaluate(method, scaled, kk)
            assert (a.valid, a.reason) == (b.valid, b.reason)
            if a.alpha_hat is not None:
                assert b.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-9)


def bits(record):
    """A record as (method, exact alpha bits, valid, reason, k): -0.0 and 0.0 differ."""
    alpha = None if record.alpha_hat is None else record.alpha_hat.hex()
    return record.method, alpha, record.valid, record.reason, record.k


def assert_rows_match_samples(rows):
    q1, q3, outer_high, above = (a.tolist() for a in row_fence_characteristics(rows))
    scored = estimators.score_rows(tf.NEW_METHODS, rows)
    records = {method: row_records(method, *scored[method], None) for method in tf.NEW_METHODS}
    for method in tf.NEW_METHODS:  # scored together, each method gives its rows alone
        assert list(map(bits, records[method])) == list(map(bits, row_form_records(method, rows, None)))
    for r, row in enumerate(rows):
        smp = tf.Sample(row)
        assert (q1[r], False) == tf.empirical_quantile_flagged(smp, 0.25)
        assert (q3[r], False) == tf.empirical_quantile_flagged(smp, 0.75)
        assert outer_high[r] == tf.empirical_fences(smp).outer_high
        assert above[r] == tf.outlier_band_counts(smp)[4]
        for method in tf.NEW_METHODS:
            record = records[method][r]
            assert bits(record) == bits(tf.evaluate(method, smp)), (r, method)
            if record.reason == "non-finite estimate":
                # a check the reference lacks: it divided by the zero log spread
                with pytest.raises(ZeroDivisionError):
                    reference_evaluate(method, smp)
            else:
                assert bits(record) == bits(reference_evaluate(method, smp)), (r, method)


@st.composite
def sorted_matrices(draw):
    """(m, n) matrices of sorted rows: heavy tails, ties, negatives and constant rows."""
    n = draw(st.one_of(st.sampled_from([7, 11, 15]), st.integers(5, 200)))  # 7, 11, 15: knots at both quartiles
    m = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.pareto(draw(st.floats(0.2, 5.0)), size=(m, n))
    x = x * draw(st.floats(1e-3, 1e3)) + draw(st.floats(-5.0, 5.0))
    levels = draw(st.sampled_from([None, 1.0, 4.0, 64.0]))
    if levels is not None:  # ties
        x = np.round(x * levels) / levels
    constant = rng.random(m) < draw(st.floats(0.0, 0.3))
    x[constant] = draw(st.floats(-3.0, 3.0))
    x.sort(axis=1)
    return x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rows=sorted_matrices())
def test_row_scoring_equals_sample_scoring_property(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rows_match_samples(rows)


def test_row_scoring_covers_the_crafted_samples():
    crafted = [values for method, values, _, _ in CRAFTED if method in tf.NEW_METHODS]
    assert len(crafted) == 10
    for values in crafted:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_rows_match_samples(np.sort(np.array(values, dtype=float))[None, :])
    # a finite non-positive estimate keeps its value, -0.0 included
    zero = [-1e-320] * 3 + [0.0] * 6 + [1e-320, 1.0]
    assert_rows_match_samples(np.array([zero]))
    assert bits(tf.evaluate("hh_n", tf.Sample(zero))) == ("hh_n", "-0x0.0p+0", False, "family mismatch", None)


def assert_joint_scoring_equals_alone(rows, k):
    """Every method usable on the rows at k, scored together, gives each method's arrays scored alone.

    Returns the methods scored: all ten where 4k <= n.
    """
    n = rows.shape[1]
    methods = tuple(m for m in tf.ALL_METHODS
                    if (m != "pickands" or 4 * k <= n) and (m not in tf.NEW_METHODS or n >= 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint = estimators.score_rows(methods, rows, k)
        assert list(joint) == list(methods)
        for method in methods:
            alpha, code = joint[method]
            alone_alpha, alone_code = estimators.score_rows((method,), rows, k)[method]
            assert (alpha.dtype, code.dtype) == (alone_alpha.dtype, alone_code.dtype) == (np.float64, np.int_)
            assert alpha.tobytes() == alone_alpha.tobytes(), method
            assert code.tobytes() == alone_code.tobytes(), method
        # reversed order: no method's masking reaches a method scored after it
        again = estimators.score_rows(methods[::-1], rows, k)
        for method in methods:
            assert again[method][0].tobytes() == joint[method][0].tobytes(), method
            assert again[method][1].tobytes() == joint[method][1].tobytes(), method
    return methods


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=sorted_matrices(), k_share=st.floats(0.0, 1.0))
def test_joint_scoring_equals_each_method_alone_property(rows, k_share):
    n = rows.shape[1]
    assert_joint_scoring_equals_alone(rows, 1 + int(k_share * (n - 2)))


def test_joint_scoring_equals_each_method_alone_on_crafted_rows():
    crafted = [(values, k) for method, values, k, _ in CRAFTED if method in tf.CLASSICAL_METHODS]
    assert len(crafted) == 13
    for values, k in crafted:
        assert_joint_scoring_equals_alone(np.sort(np.array(values, dtype=float))[None, :], k)
    # the 4-value rows as one matrix, where each row's failing check sits beside the others'
    stacked = np.sort(np.array([values for values, _ in crafted if len(values) == 4], dtype=float), axis=1)
    assert stacked.shape == (7, 4)
    scored = [assert_joint_scoring_equals_alone(stacked, k) for k in (1, 2, 3)]
    # at k = 1, 4k <= n: all ten methods score in one call, Hill and moment on one shared M1
    assert scored[0] == tf.ALL_METHODS


def test_every_scorer_takes_a_matrix_of_no_rows():
    empty = np.empty((0, 12))
    scored = estimators.score_rows(tf.ALL_METHODS, empty, 3)
    assert list(scored) == list(tf.ALL_METHODS)
    for method in tf.ALL_METHODS:
        alpha, code = scored[method]
        assert (alpha.shape, alpha.dtype, code.shape, code.dtype) == ((0,), np.float64, (0,), np.int_), method
        alone_alpha, alone_code = estimators.score_rows((method,), empty, 3)[method]
        assert (alone_alpha.shape, alone_alpha.dtype) == ((0,), np.float64), method
        assert (alone_code.shape, alone_code.dtype) == ((0,), np.int_), method



def test_classical_fast_path_equals_the_marked_path(monkeypatch):
    # Rows whose bases are all positive and whose excess ratios do not overflow take
    # the fast path, which marks nothing. Beside a row of negative values, the same
    # rows take the marked path: each must keep its (alpha, code) bit for bit.
    marks, mark = [], estimators._mark
    monkeypatch.setattr(estimators, "_mark",
                        lambda code, failed, reason: marks.append(reason) or mark(code, failed, reason))
    methods = ("hill", "thill", "moment")

    def scored(rows, k):
        marks.clear()
        statistics = estimators.row_statistics(methods, rows, k)
        marked = bool(marks)
        return marked, {method: estimators.finish_rows(method, statistics[method]) for method in methods}

    ordinary = distributions.sample_blocks(tf.parse_spec("pareto(alpha=0.5,delta=1)"), 4, [(range(20), 40)])[0]
    crafted = [values_k for method, *values_k, _ in CRAFTED if method in tf.CLASSICAL_METHODS]
    cases = [(np.sort(np.array(values, dtype=float))[None, :], k) for values, k in crafted]
    cases += [(ordinary, 9), (ordinary, 39)]
    marked_alone = []
    for rows, k in cases:
        alone_marked, alone = scored(rows, k)
        beside_marked, beside = scored(np.concatenate([rows, np.full((1, rows.shape[1]), -1.0)]), k)
        assert beside_marked and beside["hill"][1][-1] == 1  # "requires positive order statistics"
        marked_alone.append(alone_marked)
        for method in methods:
            assert alone[method][0].tobytes() == beside[method][0][:-1].tobytes(), (method, rows, k)
            assert alone[method][1].tobytes() == beside[method][1][:-1].tobytes(), (method, rows, k)
    # alone, only the non-positive base and the four overflowing ratios (PICKANDS_OVERFLOW's
    # 1e300 / 1e-300 at k = 1 among them) are marked
    assert marked_alone.count(True) == 5 and marked_alone[-2:] == [False, False]
    # a matrix of no rows takes the fast path too
    empty_marked, empty = scored(np.empty((0, 12)), 3)
    assert not empty_marked
    assert [(alpha.shape, code.dtype) for alpha, code in empty.values()] == [((0,), np.int_)] * 3


def assert_stacked_finishing_equals_each_block(blocks):
    """Blocks of sorted rows, each at its own k (None: its n), finish stacked as each block scores alone.

    For every method usable on one or more blocks, the blocks' statistics are
    concatenated and finished in one pass, given nothing of any block's k or
    n; the result must equal the blocks' own ``score_rows`` arrays bit for
    bit, NaN positions included. Returns the codes reached.
    """
    reached = set()
    for method in tf.ALL_METHODS:
        classical = method in tf.CLASSICAL_METHODS
        usable = [(rows, k) for rows, k in blocks if (k is not None) == classical
                  and (method != "pickands" or 4 * k <= rows.shape[1])]
        if not usable:
            continue
        statistics, expected_alpha, expected_code = [], [], []
        for rows, k in usable:
            statistics.append(estimators.row_statistics((method,), rows, k)[method])
            alpha, code = estimators.score_rows((method,), rows, k)[method]
            expected_alpha.append(alpha)
            expected_code.append(code)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, code = estimators.finish_rows(method, tuple(map(np.concatenate, zip(*statistics))))
        assert (alpha.dtype, code.dtype) == (np.float64, np.int_), method
        assert alpha.tobytes() == np.concatenate(expected_alpha).tobytes(), method
        assert code.tobytes() == np.concatenate(expected_code).tobytes(), method
        reached.update(estimators.ROW_REASONS[c] for c in code.tolist())
    return reached


def test_stacked_finishing_equals_each_block_on_crafted_rows():
    crafted = [(np.sort(np.array(values, dtype=float))[None, :], k) for _, values, k, _ in CRAFTED]
    # each block alone, and its rows beside ordinary ones at another k or n
    ordinary = distributions.sample_blocks(tf.parse_spec("pareto(alpha=0.5,delta=1)"), 4, [(range(30), 40)])[0]
    blocks = [block for pair in zip(crafted, [(ordinary[:5], 9), (ordinary[5:9], None)] * len(crafted))
              for block in pair]
    reached = assert_stacked_finishing_equals_each_block(blocks)
    assert reached == set(estimators.ROW_REASONS)
    # the classical reasons each have a crafted block: a non-positive base, an overflowing
    # ratio, tied spacings, t >= 1 and m2 == 0 (the constant block [3, 3, 3, 3] at k = 2)
    thill_moment = estimators.score_rows(("thill", "moment"), np.full((1, 4), 3.0), 2)
    assert [thill_moment[m][1].tolist() for m in ("thill", "moment")] == [[3], [3]]


@st.composite
def blocks_at_different_sizes(draw):
    """Two to four sorted matrices, each at its own k or (None) its n."""
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        rows = draw(sorted_matrices())
        n = rows.shape[1]
        blocks.append((rows, draw(st.one_of(st.none(), st.integers(1, n - 1)))))
    return blocks


@settings(derandomize=True, max_examples=80, deadline=None)
@given(blocks=blocks_at_different_sizes())
def test_stacked_finishing_equals_each_block_property(blocks):
    assert_stacked_finishing_equals_each_block(blocks)


def test_statistics_do_not_hold_the_matrix():
    # n = 15 puts both quartiles on knots, where they are columns of the matrix
    rows = np.sort(np.random.default_rng(2).pareto(1.0, (6, 15)), axis=1)
    statistics = estimators.row_statistics(tf.ALL_METHODS, rows, 3)
    assert list(statistics) == list(tf.ALL_METHODS)
    for method, arrays in statistics.items():
        # a code leads Hill's (code, M1), moment's (code, M1, M2) and t-Hill's (code, T); the
        # rest, p_eR and the fence, the quartiles and the spacings, are float64 under any promotion
        codes = 1 if method in ("hill", "thill", "moment") else 0
        dtypes = [array.dtype for array in arrays]
        assert dtypes == [np.int_] * codes + [np.float64] * (len(arrays) - codes), method
        for array in arrays:
            assert not np.shares_memory(array, rows)


# --- logs from libm ----------------------------------------------------------------
#
# np.log's SIMD kernels (AVX-512 among them) can differ from libm's log in the
# last bit, so every log of a sample characteristic is taken with math.log and
# the published bytes do not depend on the host's numpy build. Each test below
# builds rows whose characteristic hits a value where the two logs differ, at
# one math.log site of estimators, and pins the estimate to its math.log formula.

def libm_differs(values, libm=math.log, numpy=np.log):
    """The values whose numpy log (np.log, or np.log1p) differs from libm's; skips where there are none."""
    values = np.asarray(values, dtype=float)
    differs = values[numpy(values) != np.array([libm(v) for v in values.tolist()])]
    if differs.size == 0:
        pytest.skip(f"{numpy.__name__} agrees with {libm.__name__} on the whole grid on this host")
    return differs


def assert_libm_formula(alpha, args, formula, libm=math.log, numpy=np.log):
    """Each row's estimate is formula(math.log, *args) bit for bit, which np.log would change.

    ``libm`` and ``numpy`` name another pair, such as math.log1p and np.log1p.
    """
    libm_alpha = [formula(libm, *a) for a in args]
    assert [a.hex() for a in alpha.tolist()] == [a.hex() for a in libm_alpha]
    assert libm_alpha != [formula(lambda v: float(numpy(v)), *a) for a in args]


LIBM_GRID = np.random.default_rng(0).uniform(1.0, 50.0, 200_000)


def test_pickands_takes_the_log_of_its_spacing_ratio_from_libm():
    r = libm_differs(LIBM_GRID)
    rows = np.column_stack([np.full(r.size, -1.0), np.zeros(r.size), np.zeros(r.size), r])  # ratio r at k=1
    alpha, _ = estimators.score_rows(("pickands",), rows, 1)["pickands"]
    assert_libm_formula(alpha, [(v,) for v in r.tolist()], lambda log, v: 1.0 / (log(v) / math.log(2.0)))


def test_fence_estimators_take_the_log_of_the_outer_fence_from_libm():
    r = libm_differs(LIBM_GRID)
    rows = np.array([[v] * 6 + [v + 1.0] for v in r.tolist()])  # q1 = q3 = outer fence = v, p_eR = 1/7
    scored = estimators.score_rows(("par_n", "fr_n"), rows)
    args = [(v,) for v in r.tolist()]
    assert_libm_formula(scored["par_n"][0], args, lambda log, v: -math.log(1 / 7) / log(v))
    assert_libm_formula(scored["fr_n"][0], args, lambda log, v: -math.log(-math.log1p(-1 / 7)) / log(v))


def test_fence_estimators_take_the_log_of_p_eR_from_libm():
    # c points of n above an outer fence of 2, with q3 = 2: c <= n - ceil(3(n+1)/4)
    counts = [(c, n) for n in range(7, 400) for c in range(1, n - math.ceil(0.75 * (n + 1)) + 1)]
    differs = set(libm_differs([c / n for c, n in counts]).tolist())
    counts = [(c, n) for c, n in counts if c / n in differs]
    scored = [estimators.score_rows(("par_n", "hh_n"), np.array([[2.0] * (n - c) + [3.0] * c]))
              for c, n in counts]
    args = [(c / n,) for c, n in counts]
    for method, formula in (("par_n", lambda log, p: -log(p) / math.log(2.0)),
                            ("hh_n", lambda log, p: log(p) / math.log(-log(p) / 2.0))):
        assert_libm_formula(np.concatenate([s[method][0] for s in scored]), args, formula)


def test_quartile_estimators_take_the_logs_of_the_quartiles_from_libm():
    r = np.sort(libm_differs(LIBM_GRID))
    pairs = list(zip(r[:-1].tolist(), r[1:].tolist()))
    rows = np.array([[q1] * 3 + [q3] * 4 for q1, q3 in pairs])  # type-6 knots at n = 7: x[1] and x[5]
    scored = estimators.score_rows(("par_q", "fr_q", "hh_q"), rows)
    assert_libm_formula(scored["par_q"][0], pairs, lambda log, q1, q3: LOG3 / (log(q3) - log(q1)))
    assert_libm_formula(scored["fr_q"][0], pairs, lambda log, q1, q3: (LOGLOG4 - LOGLOG43) / (log(q3) - log(q1)))
    assert_libm_formula(scored["hh_q"][0], pairs,
                        lambda log, q1, q3: LOG3 / (log(q3) - log(q1) + LOGLOG43 - LOGLOG4))


def test_hillhorror_fence_estimator_takes_the_log_of_its_ratio_from_libm():
    # q1 = q3 = outer fence = v and p_eR = 1/7, so the ratio is -log(1/7) / v
    fences = LIBM_GRID.tolist()
    differs = set(libm_differs([-math.log(1 / 7) / v for v in fences]).tolist())
    fences = [v for v in fences if -math.log(1 / 7) / v in differs]
    alpha, _ = estimators.score_rows(("hh_n",), np.array([[v] * 6 + [v + 1.0] for v in fences]))["hh_n"]
    assert_libm_formula(alpha, [(v,) for v in fences], lambda log, v: math.log(1 / 7) / log(-math.log(1 / 7) / v))


def test_frechet_fence_estimator_takes_its_double_log_of_p_eR_from_libm():
    # c points of n above an outer fence of 2, as for the log of p_eR: p_eR = c / n
    counts = [(c, n) for n in range(7, 400) for c in range(1, n - math.ceil(0.75 * (n + 1)) + 1)]

    def fr_n(counts):
        """The fr_n estimates of the counts' rows, and each row's p_eR."""
        alpha = [estimators.score_rows(("fr_n",), np.array([[2.0] * (n - c) + [3.0] * c]))["fr_n"][0]
                 for c, n in counts]
        return np.concatenate(alpha), [(c / n,) for c, n in counts]

    # log1p(-p_eR), from libm
    differs = set(libm_differs([-c / n for c, n in counts], math.log1p, np.log1p).tolist())
    alpha, args = fr_n([(c, n) for c, n in counts if -c / n in differs])
    assert_libm_formula(alpha, args, lambda log1p, p: -math.log(-log1p(-p)) / math.log(2.0), math.log1p, np.log1p)
    # the log of -log1p(-p_eR), from libm
    differs = set(libm_differs([-math.log1p(-c / n) for c, n in counts]).tolist())
    alpha, args = fr_n([(c, n) for c, n in counts if -math.log1p(-c / n) in differs])
    assert_libm_formula(alpha, args, lambda log, p: -log(-math.log1p(-p)) / math.log(2.0))
