import dataclasses
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import tailfence as tf
from tailfence.cli import main
from tailfence.fences import fences_from_quartiles
from tailfence.tail_chars import _COLUMNS, _characteristics_columns, _closed_form_tails, characteristics_table

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



# One ValueError for any multiplier outside (0, inf), whatever the family and
# the side, and also where the family has no closed form.
@pytest.mark.parametrize("outer", [0.0, -1.0, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda outer: tf.closed_form_p_eL(tf.parse_spec("exp(lambda=1)"), outer),
        lambda outer: tf.closed_form_p_eR(tf.parse_spec("exp(lambda=1)"), outer),
        lambda outer: tf.closed_form_p_eR(tf.parse_spec("t(n=3)"), outer),
        tf.frechet_left_tail_threshold,
    ],
    ids=["p_eL", "p_eR", "p_eR_no_closed_form", "frechet_threshold"],
)
def test_closed_forms_reject_bad_outer_multiplier(call, outer):
    with pytest.raises(ValueError, match="outer multiplier must be finite and positive"):
        call(outer)

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


# --- the batch route ------------------------------------------------------------

def _log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


def _shapes(low, high):
    # np.power takes a fast path at a float exponent of -1, 0.5 or 2, which
    # the exponents 1/alpha, -1/alpha and +-alpha hit at some of these shapes
    return st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]), _log_uniform(low, high))


# Every family over wide shapes and scales, heavy and light tails alike.
ANY_SPEC = st.one_of(
    st.builds(lambda a, w: tf.DistributionSpec("uniform", {"a": a, "b": a + w}),
              st.floats(-100.0, 100.0), _log_uniform(-3, 3)),
    st.builds(lambda lam: tf.DistributionSpec("exponential", {"lambda": lam}), _log_uniform(-3, 3)),
    st.builds(lambda a, b: tf.DistributionSpec("gamma", {"alpha": a, "beta": b}),
              _shapes(-1.5, 2), _log_uniform(-2, 2)),
    st.builds(lambda mu, s2: tf.DistributionSpec("normal", {"mu": mu, "sigma2": s2}),
              st.floats(-100.0, 100.0), _log_uniform(-4, 4)),
    st.builds(lambda n: tf.DistributionSpec("studentt", {"n": n}),
              st.one_of(st.integers(1, 60), st.just(10**6))),
    st.builds(lambda a, d: tf.DistributionSpec("pareto", {"alpha": a, "delta": d}),
              _shapes(-1.2, 3), _log_uniform(-3, 3)),
    *[st.builds(lambda a, mu, s, family=family:
                tf.DistributionSpec(family, {"alpha": a, "mu": mu, "sigma": s}),
                _shapes(-1.2, 2.5), st.floats(-10.0, 10.0), _log_uniform(-3, 3))
      for family in ("frechet", "negweibull")],
    st.builds(lambda mu, g: tf.DistributionSpec("gumbel", {"mu": mu, "gamma": g}),
              st.floats(-10.0, 10.0), _log_uniform(-3, 3)),
    st.builds(lambda a: tf.DistributionSpec("hillhorror", {"alpha": a}), _shapes(-1.2, 2.5)),
)

# Specs that fences rejects: quartiles not finite (one or both; fence
# arithmetic on two infinite quartiles warns on inf - inf), quartiles equal,
# and (at outer multipliers near 3 and above) outer fences not finite.
BAD_SPECS = [tf.parse_spec(text) for text in (
    "pareto(alpha=0.001,delta=1)",
    "pareto(alpha=1e-4,delta=1)",
    "pareto(alpha=7e28,delta=1)",
    "pareto(alpha=0.001955,delta=1)",
    "negweibull(alpha=1e30,mu=0,sigma=1)",
)]


@st.composite
def spec_lists(draw):
    """Specs of random families in random order, some given more than once, some rejected."""
    specs = draw(st.lists(ANY_SPEC, min_size=1, max_size=16))
    specs += draw(st.lists(st.sampled_from(specs), max_size=4))
    specs = draw(st.permutations(specs))
    for bad in draw(st.lists(st.sampled_from(BAD_SPECS), max_size=3)):
        specs.insert(draw(st.integers(0, len(specs))), bad)
    return specs


def _hex(chars):
    return [float.hex(v) for v in (chars.p_eL, chars.p_eR, chars.p_e2, chars.p_mL, chars.p_mR,
                                   chars.p_m2, *dataclasses.astuple(chars.fences))]


def _fences_or_error(spec, inner, outer):
    """Float hex of ``fences(spec, inner, outer)``, or the text of its ValueError."""
    try:
        return [float.hex(v) for v in dataclasses.astuple(tf.fences(spec, inner, outer))]
    except ValueError as exc:
        return str(exc)


def _spec_text(spec):
    """Spec text that parses back to ``spec`` exactly (str(spec) rounds to 12 digits)."""
    return f"{spec.family}({','.join(f'{k}={v!r}' for k, v in spec.params.items())})"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    specs=spec_lists(),
    multipliers=st.one_of(
        st.sampled_from([(1.5, 3.0), (0.2, 0.25), (2.0, 6.0)]),
        st.tuples(st.floats(0.05, 4.0), st.floats(1.0, 3.0)).map(lambda t: (t[0], t[0] * t[1])),
    ),
    closed=st.booleans(),
)
def test_batch_rows_equal_per_spec_results(specs, multipliers, closed):
    inner, outer = multipliers
    with warnings.catch_warnings():
        # the batch must not warn where the per-spec route raises first
        warnings.simplefilter("error")
        expected, error = [], None
        for spec in specs:
            try:
                expected.append(tf.characteristics(spec, inner, outer, closed))
            except ValueError as exc:
                error = str(exc)
                assert _fences_or_error(spec, inner, outer) == error
                break
            # fences() is characteristics(): the same bits, or the same error above
            assert _fences_or_error(spec, inner, outer) == _hex(expected[-1])[6:]
        if error is None:
            rows = characteristics_table(specs, inner, outer, closed)
            assert [_hex(row) for row in rows] == [_hex(row) for row in expected]
            return
        with pytest.raises(ValueError) as info:
            characteristics_table(specs, inner, outer, closed)
        assert str(info.value) == error
        if not closed:
            return  # chars always uses the closed forms
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "chars.csv"
            argv = ["chars", "--inner-fence", repr(inner), "--outer-fence", repr(outer), "--out", str(out)]
            for spec in specs:
                argv += ["--dist", _spec_text(spec)]
            stderr = io.StringIO()
            with redirect_stderr(stderr):
                assert main(argv) == 1
            assert json.loads(stderr.getvalue()) == {"error": error}
            assert not out.exists()


def test_batch_reports_bad_multipliers_where_a_loop_would():
    good, bad = tf.parse_spec("exp(lambda=1)"), BAD_SPECS[0]
    with pytest.raises(ValueError, match="quartiles not finite"):
        characteristics_table([bad, good], outer=-1.0)
    with pytest.raises(ValueError, match="fence multipliers must be finite"):
        characteristics_table([good, bad], outer=-1.0)
    with pytest.raises(ValueError, match="fence multipliers must be finite"):
        tf.fences(good, outer=-1.0)
    assert characteristics_table([], outer=-1.0) == []


def test_batch_takes_the_overflow_branch_on_its_rows_only():
    # The frechet and negweibull CDFs read a fence that overflows in sigma
    # units through logs (libm for log(sigma)); in a family column that holds
    # such a spec next to ordinary ones, each row still equals its 1-spec result.
    specs = [tf.parse_spec(text) for text in (
        "frechet(alpha=0.002,mu=0,sigma=0.001)", "frechet(alpha=2,mu=1,sigma=0.5)",
        "negweibull(alpha=0.002,mu=0,sigma=0.001)", "negweibull(alpha=3,mu=0,sigma=2)",
    )]
    for closed in (True, False):
        rows = characteristics_table(specs, outer=1e39, use_closed_forms=closed)
        one_by_one = [tf.characteristics(s, outer=1e39, use_closed_forms=closed) for s in specs]
        assert [_hex(row) for row in rows] == [_hex(row) for row in one_by_one]
    assert rows[0].p_eR == pytest.approx(0.213677297655676, rel=1e-9)


def _python_float_row(spec, inner, outer, closed):
    """Hex of spec's characteristics on Python floats, as a spec-by-spec loop takes them; None if rejected.

    The quartiles and the CDF come from one-spec family columns; everything
    after them (fences, closed forms, ``1 - F``, ``max(0.0, x)``, sums) is
    Python float arithmetic, independent of the batch's column steps.
    """
    columns = tf.distributions.FamilyColumns.of([spec])
    q1, q3 = tf.distributions._quantile_array(columns, (0.25, 0.75))[0].tolist()
    if not (math.isfinite(q1) and math.isfinite(q3)) or q1 == q3:
        return None
    fen = fences_from_quartiles(q1, q3, inner, outer)
    if not (math.isfinite(fen.outer_low) and math.isfinite(fen.outer_high)):
        return None
    points = [[fen.outer_low, fen.inner_low, fen.inner_high, fen.outer_high]]
    below_outer, below_inner, upto_inner, upto_outer = \
        tf.distributions._cdf_array(columns, points)[0].tolist()
    p_eL, p_eR = _closed_form_tails(spec, outer) if closed else (None, None)
    p_eL = below_outer if p_eL is None else p_eL
    p_eR = 1.0 - upto_outer if p_eR is None else p_eR
    p_mL, p_mR = max(0.0, below_inner - p_eL), max(0.0, 1.0 - upto_inner - p_eR)
    return [float.hex(v) for v in (p_eL, p_eR, p_eL + p_eR, p_mL, p_mR, p_mL + p_mR,
                                   *dataclasses.astuple(fen))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    specs=spec_lists(),
    multipliers=st.sampled_from([(1.5, 3.0), (0.2, 0.25), (2.0, 6.0), (1.0, 1.0)]),
    closed=st.booleans(),
)
def test_batch_columns_take_the_python_float_steps(specs, multipliers, closed):
    inner, outer = multipliers
    expected = [_python_float_row(spec, inner, outer, closed) for spec in specs]
    if None in expected:
        with pytest.raises(ValueError):
            characteristics_table(specs, inner, outer, closed)
        return
    assert [_hex(row) for row in characteristics_table(specs, inner, outer, closed)] == expected


def test_mild_bands_are_python_max_at_signed_zero_and_nan(monkeypatch):
    # p_mL and p_mR are max(0.0, x) on Python floats: -0.0 and NaN give +0.0
    # (np.maximum keeps NaN). No law of the catalog reaches either, so the
    # CDF at the fences (outer_low, inner_low, inner_high, outer_high) is crafted.
    crafted = [
        [0.0, -0.0, 1.0, 1.0],  # p_mL = -0.0 - 0.0 = -0.0
        [0.0, math.nan, 1.0, 1.0],  # p_mL NaN
        [0.0, 0.5, math.nan, 1.0],  # p_mR NaN
        [0.25, 0.125, 1.0, 0.5],  # both bands negative
        [0.0, 0.25, 0.75, 1.0],  # both bands positive
    ]
    monkeypatch.setattr(tf.distributions, "_cdf_array", lambda columns, points: np.array(crafted))
    # normal specs: one family, one CDF call, no closed form
    specs = [tf.DistributionSpec("normal", {"mu": float(i), "sigma2": 1.0}) for i in range(len(crafted))]
    columns = _characteristics_columns(specs, 1.5, 3.0, True)
    mild = [_COLUMNS.index(name) for name in ("p_mL", "p_mR", "p_m2")]
    for row, (below_outer, below_inner, upto_inner, upto_outer) in zip(columns[:, mild].tolist(), crafted):
        p_mL = max(0.0, below_inner - below_outer)
        p_mR = max(0.0, (1.0 - upto_inner) - (1.0 - upto_outer))
        assert [float.hex(v) for v in row] == [float.hex(v) for v in (p_mL, p_mR, p_mL + p_mR)]
    assert math.copysign(1.0, columns[0, mild[0]]) == 1.0  # +0.0, not the -0.0 difference
