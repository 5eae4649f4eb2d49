import copy as copy_module
import dataclasses
import hashlib
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import tailfence as tf
from tailfence import distributions
from tailfence.distributions import _cdf_array, _uniform_open

LOG3 = math.log(3.0)
LOG4 = math.log(4.0)
LOG43 = math.log(4.0 / 3.0)

ALL_SPECS = [
    "uniform(a=-2,b=5)",
    "exp(lambda=0.7)",
    "gamma(alpha=2.5,beta=1.5)",
    "normal(mu=1,sigma2=4)",
    "t(n=4)",
    "pareto(alpha=1.5,delta=2)",
    "frechet(alpha=2,mu=-1,sigma=3)",
    "negweibull(alpha=1.5,mu=2,sigma=1)",
    "gumbel(mu=0.5,gamma=2)",
    "hillhorror(alpha=0.8)",
]


@pytest.mark.parametrize(
    "family,params",
    [
        ("uniform", {"a": 1.0, "b": 1.0}),
        ("uniform", {"a": 2.0, "b": 1.0}),
        ("exponential", {"lambda": 0.0}),
        ("exponential", {"lambda": -1.0}),
        ("gamma", {"alpha": 0.0, "beta": 1.0}),
        ("gamma", {"alpha": 1.0, "beta": -2.0}),
        ("normal", {"mu": 0.0, "sigma2": 0.0}),
        ("studentt", {"n": 0}),
        ("studentt", {"n": 2.5}),
        ("studentt", {"n": 10**6 + 1}),
        ("studentt", {"n": 1e18}),
        ("pareto", {"alpha": -0.5, "delta": 1.0}),
        ("pareto", {"alpha": 1.0, "delta": 0.0}),
        ("frechet", {"alpha": 1.0, "mu": 0.0, "sigma": 0.0}),
        ("negweibull", {"alpha": 0.0, "mu": 0.0, "sigma": 1.0}),
        ("gumbel", {"mu": 0.0, "gamma": 0.0}),
        ("hillhorror", {"alpha": 0.0}),
        ("normal", {"mu": math.nan, "sigma2": 1.0}),
        ("exponential", {"lambda": math.inf}),
        # bad types: ValueError too, not an AttributeError or TypeError
        (5, {}),
        (None, {"alpha": 1.0}),
        ("pareto", None),
        ("pareto", 7),
        ("pareto", {"alpha": None, "delta": 1}),
        ("pareto", {"alpha": 1.0, "delta": [1, 2]}),
        ("pareto", {"alpha": True, "delta": 1}),  # a bool is not taken as 1
        ("studentt", {"n": np.True_}),
        # text is not taken as the number it spells
        ("pareto", {"alpha": "0.5", "delta": 1}),
        ("pareto", {"alpha": 0.5, "delta": b"1"}),
        ("studentt", {"n": np.str_("2")}),
        ("studentt", {"n": np.bytes_(b"2")}),
        ("pareto", {"alpha": bytearray(b"0.5"), "delta": 1}),
        ("pareto", {"alpha": memoryview(b"0.5"), "delta": 1}),
        # params that dict() would take but that are not a mapping
        ("exp", [("lambda", 1.0)]),
        ("uniform", ["ab", "ba"]),
    ],
)
def test_invalid_parameters_rejected(family, params):
    match = None if isinstance(params, dict) else "params must be a mapping of names to numbers"
    with pytest.raises(ValueError, match=match):
        tf.DistributionSpec(family, params)


def test_unknown_family_and_params():
    with pytest.raises(ValueError, match="unknown family"):
        tf.DistributionSpec("cauchy", {})
    with pytest.raises(ValueError, match="unknown parameter"):
        tf.DistributionSpec("pareto", {"alpha": 1.0, "delta": 1.0, "x": 2.0})
    with pytest.raises(ValueError, match="missing parameter"):
        tf.DistributionSpec("pareto", {"alpha": 1.0})


def test_aliases_canonicalized():
    assert tf.DistributionSpec("exp", {"lambda": 1.0}).family == "exponential"
    assert tf.DistributionSpec("t", {"n": 3}).family == "studentt"
    assert tf.DistributionSpec("hh", {"alpha": 1.0}).family == "hillhorror"


def test_spec_params_are_read_only_hashable_and_picklable():
    spec = tf.parse_spec("pareto(alpha=0.5,delta=1)")
    changes = [
        lambda p: p.__setitem__("alpha", -1.0), lambda p: p.__delitem__("alpha"), lambda p: p.pop("alpha"),
        lambda p: p.popitem(), lambda p: p.clear(), lambda p: p.setdefault("x", 1.0),
        lambda p: p.update(alpha=-1.0), lambda p: p.__ior__({"alpha": -1.0}),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="read-only"):
            change(spec.params)
    with pytest.raises(TypeError, match="read-only"):
        spec.params["alpha"] = -1.0
    assert spec.params == {"alpha": 0.5, "delta": 1.0} and str(spec) == "pareto(alpha=0.5,delta=1)"
    assert repr(spec) == "DistributionSpec(family='pareto', params={'alpha': 0.5, 'delta': 1.0})"
    same = tf.DistributionSpec("pareto", {"delta": 1, "alpha": 0.5})
    assert same == spec and hash(same) == hash(spec) and len({spec, same, tf.parse_spec("t(n=4)")}) == 2
    for copy in (pickle.loads(pickle.dumps(spec)), copy_module.deepcopy(spec), copy_module.copy(spec)):
        assert copy == spec and type(copy.params) is type(spec.params) and str(copy) == str(spec)
        with pytest.raises(TypeError, match="read-only"):
            copy.params["alpha"] = 2.0
    assert json.dumps(spec.params, sort_keys=True) == '{"alpha": 0.5, "delta": 1.0}'
    assert dataclasses.asdict(spec) == {"family": "pareto", "params": {"alpha": 0.5, "delta": 1.0}}
    # a changed spec is a new, validated spec
    assert str(dataclasses.replace(spec, params={**spec.params, "alpha": 2})) == "pareto(alpha=2,delta=1)"
    with pytest.raises(ValueError, match="alpha > 0"):
        dataclasses.replace(spec, params={**spec.params, "alpha": -1.0})


def test_parse_spec_round_trip():
    spec = tf.parse_spec("pareto(alpha=0.5, delta=1)")
    assert spec.family == "pareto"
    assert spec.params == {"alpha": 0.5, "delta": 1.0}
    assert tf.parse_spec(str(spec)) == spec


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("pareto", "expected family"),
        ("pareto(alpha)", "expected name=value"),
        ("pareto(alpha=x,delta=1)", "invalid number 'x'"),
        ("pareto(alpha=1,alpha=2,delta=1)", "duplicate parameter"),
        ("nosuch(a=1)", "unknown family"),
    ],
)
def test_parse_spec_errors_name_offender(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        tf.parse_spec(text)


def test_cdf_examples():
    # exponential at the outer fence: survival is exactly 1/108
    exp1 = tf.parse_spec("exp(lambda=1)")
    assert tf.cdf(exp1, LOG4 + 3 * LOG3) == pytest.approx(1.0 - 1.0 / 108.0, abs=1e-15)
    # support left edge
    assert tf.cdf(tf.parse_spec("pareto(alpha=1,delta=1)"), 1.0) == 0.0
    # gumbel at the high outer fence
    gum = tf.parse_spec("gumbel(mu=0,gamma=1)")
    x = 3 * math.log(LOG4) - 4 * math.log(LOG43)
    expected = math.exp(-(LOG43**4) / LOG4**3)
    assert tf.cdf(gum, x) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.9974, abs=1e-4)


def test_quantile_examples():
    assert tf.quantile(tf.parse_spec("exp(lambda=1)"), 0.75) == pytest.approx(LOG4, abs=1e-14)
    assert tf.quantile(tf.parse_spec("normal(mu=0,sigma2=1)"), 0.75) == pytest.approx(
        0.6744897501960817, abs=1e-10
    )
    assert tf.quantile(tf.parse_spec("hillhorror(alpha=0.5)"), 0.75) == pytest.approx(
        16.0 * LOG4, rel=1e-13
    )


def test_quantile_rejects_bad_p():
    spec = tf.parse_spec("exp(lambda=1)")
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="p must lie in"):
            tf.quantile(spec, p)


def test_cdf_rejects_non_finite_x():
    spec = tf.parse_spec("exp(lambda=1)")
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            tf.cdf(spec, x)


@pytest.mark.parametrize("text", ALL_SPECS)
def test_round_trip_probe_grid(text):
    spec = tf.parse_spec(text)
    for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert abs(tf.cdf(spec, tf.quantile(spec, p)) - p) <= 1e-12


def test_quantile_monotone_on_grid():
    rng = np.random.default_rng(555)
    grid = np.linspace(0.001, 0.999, 999)
    randomized = {
        "uniform": lambda: {"a": (x := rng.uniform(-5, 5)), "b": x + rng.uniform(0.1, 10)},
        "exponential": lambda: {"lambda": rng.uniform(0.1, 5)},
        "gamma": lambda: {"alpha": rng.uniform(0.2, 8), "beta": rng.uniform(0.2, 5)},
        "normal": lambda: {"mu": rng.uniform(-5, 5), "sigma2": rng.uniform(0.1, 9)},
        "studentt": lambda: {"n": int(rng.integers(1, 12))},
        "pareto": lambda: {"alpha": rng.uniform(0.2, 5), "delta": rng.uniform(0.1, 4)},
        "frechet": lambda: {"alpha": rng.uniform(0.2, 5), "mu": rng.uniform(-3, 3),
                            "sigma": rng.uniform(0.2, 4)},
        "negweibull": lambda: {"alpha": rng.uniform(0.2, 5), "mu": rng.uniform(-3, 3),
                               "sigma": rng.uniform(0.2, 4)},
        "gumbel": lambda: {"mu": rng.uniform(-3, 3), "gamma": rng.uniform(0.2, 4)},
        "hillhorror": lambda: {"alpha": rng.uniform(0.2, 5)},
    }
    for family, make in randomized.items():
        for _ in range(3):
            spec = tf.DistributionSpec(family, make())
            values = [tf.quantile(spec, p) for p in grid]
            assert np.all(np.diff(values) >= 0), f"non-monotone quantile for {spec}"


def test_support_edges():
    assert tf.cdf(tf.parse_spec("uniform(a=0,b=1)"), 0.0) == 0.0
    assert tf.cdf(tf.parse_spec("uniform(a=0,b=1)"), 1.0) == 1.0
    assert tf.cdf(tf.parse_spec("frechet(alpha=1,mu=2,sigma=1)"), 2.0) == 0.0
    # the negative-Weibull CDF is exactly 1 on and above its endpoint
    assert tf.cdf(tf.parse_spec("negweibull(alpha=1,mu=2,sigma=1)"), 2.0) == 1.0
    assert tf.cdf(tf.parse_spec("negweibull(alpha=1,mu=2,sigma=1)"), 5.0) == 1.0
    assert tf.cdf(tf.parse_spec("hillhorror(alpha=1)"), 0.0) == 0.0
    assert tf.cdf(tf.parse_spec("exp(lambda=1)"), -1.0) == 0.0


@pytest.mark.parametrize(
    "text,dist",
    [
        ("gamma(alpha=2.5,beta=1.5)", stats.gamma(2.5, scale=1 / 1.5)),
        ("gamma(alpha=0.3,beta=1)", stats.gamma(0.3)),
        ("t(n=1)", stats.t(1)),
        ("t(n=7)", stats.t(7)),
        ("t(n=1000000)", stats.t(10**6)),
        ("normal(mu=1,sigma2=4)", stats.norm(1, 2)),
    ],
)
def test_numeric_families_against_scipy_stats(text, dist):
    # cross-check against scipy.stats, which shares the scipy.special
    # primitives; test_quantile_closed_forms is the independent oracle
    spec = tf.parse_spec(text)
    for p in (0.01, 0.25, 0.5, 0.75, 0.99):
        assert tf.quantile(spec, p) == pytest.approx(dist.ppf(p), rel=1e-9, abs=1e-12)
    for x in (0.05, 0.5, 1.0, 2.5, 7.0):
        assert tf.cdf(spec, x) == pytest.approx(dist.cdf(x), rel=1e-11, abs=1e-13)


# The sampler's whole uniform range at its ends and around the median.
TAIL_GRID = sorted(
    {2.0**-54}
    | {u for k in range(2, 54) for u in (2.0**-k, 1.0 - 2.0**-k, 0.5 + 2.0**-k, 0.5 - 2.0**-k)}
)


def _t1_quantile(u):
    if 0.25 <= u <= 0.75:
        return math.tan(math.pi * (u - 0.5))
    return -1.0 / math.tan(math.pi * u) if u < 0.5 else 1.0 / math.tan(math.pi * (1.0 - u))


@pytest.mark.parametrize(
    "text,oracle",
    [
        ("t(n=1)", _t1_quantile),
        ("t(n=2)", lambda u: (2.0 * u - 1.0) / math.sqrt(2.0 * u * (1.0 - u))),
        (
            "gamma(alpha=0.5,beta=1)",
            lambda u: float(special.erfinv(u) if u <= 0.5 else special.erfcinv(1.0 - u)) ** 2,
        ),
        ("normal(mu=0,sigma2=1)", lambda u: -math.sqrt(2.0) * float(special.erfcinv(2.0 * u))),
        ("gamma(alpha=1,beta=2)", lambda u: tf.quantile(tf.parse_spec("exp(lambda=2)"), u)),
    ],
)
def test_quantile_closed_forms(text, oracle):
    spec = tf.parse_spec(text)
    for u in TAIL_GRID:
        assert tf.quantile(spec, u) == pytest.approx(oracle(u), rel=1e-13, abs=0.0), u


def reference_t_ppf(df, p):
    # The Student-t quantile as it was before each draw was inverted once: both
    # incomplete-beta forms for every element, then the one its branch uses.
    # The single inversion must give the same bits.
    p = np.asarray(p, float)
    mass = np.abs(2.0 * p - 1.0)
    y = special.betaincinv(0.5, 0.5 * df, np.minimum(mass, 0.5))
    z = special.betaincinv(0.5 * df, 0.5, 2.0 * np.minimum(p, 1.0 - p))
    x = np.where(mass <= 0.5, np.sqrt(df * y / (1.0 - y)), np.sqrt(df * (1.0 - z) / z))
    return np.where(p < 0.5, -x, x)


def stream_generator(seed, stream):
    """The PCG64 that ``sample`` builds for RngState(seed, stream), from the stream's seed words."""
    return distributions._generator(distributions._stream_words(seed, range(stream, stream + 1))[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 40])
def test_t_quantile_matches_both_form_reference_bit_for_bit(df):
    spec = tf.DistributionSpec("studentt", {"n": df})
    # the tail grid is dyadic; decimal and random p also round in 1 - 2p
    decimal = {0.1, 0.2, 0.3, 0.7, 0.9, 1e-3, 1e-7, 1.0 - 1e-7}
    random = set(np.random.default_rng(0).random(200))
    grid = np.array(sorted(set(TAIL_GRID) | {0.25, 0.5, 0.75, 1.0 - 2.0**-53} | decimal | random))
    assert distributions._quantile_array(spec, grid).tobytes() == reference_t_ppf(df, grid).tobytes()
    for u in grid:
        assert tf.quantile(spec, u) == float(reference_t_ppf(df, u)), u
    assert math.copysign(1.0, tf.quantile(spec, 0.5)) == 1.0  # +0.0, as the reference
    for stream in range(1000):
        u = _uniform_open(np.random.Generator(stream_generator(2024, stream)).random(40))
        assert u.tobytes() == _uniform_from_raw_words(stream_generator(2024, stream).random_raw(40)).tobytes()
        expected = reference_t_ppf(df, u)
        assert tf.sample(spec, tf.RngState(2024, stream), 40).values.tobytes() == expected.tobytes(), stream


# -cot(pi p), the exact t(1) quantile, by mpmath at 40 digits
T1_FAR_TAIL = {
    1e-300: -3.1830988618379066356e299,
    1e-200: -3.1830988618379067724e199,
    1e-160: -3.1830988618379067515e159,
}


@pytest.mark.filterwarnings("error")
def test_t_quantile_stays_finite_where_the_tail_inversion_underflows():
    # The tail form's w underflows (t(1) below p ~ 5e-155, t(2) below ~ 5e-309),
    # so df * (1 - w) / w overflowed or divided by 0 and gave -inf.
    t1, t2 = tf.parse_spec("t(n=1)"), tf.parse_spec("t(n=2)")
    for p, exact in T1_FAR_TAIL.items():
        assert tf.quantile(t1, p) == pytest.approx(exact, rel=1e-12, abs=0.0), p
    for p in (5e-324, 1e-300):
        exact = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
        assert tf.quantile(t2, p) == pytest.approx(exact, rel=1e-12, abs=0.0), p
    # |x| ~ 6.4e322 exceeds the largest float: -inf, but no warning
    assert tf.quantile(t1, 5e-324) == -math.inf
    # from t(3) on the tail-form w stays normal down to the smallest p
    for df in (3, 4, 7, 40, 10**6):
        assert math.isfinite(tf.quantile(tf.DistributionSpec("studentt", {"n": df}), 5e-324)), df
    # one array call mixing both cases: each element as its scalar call, and the
    # elements whose inversion does not underflow keep the reference's bits
    grid = np.array([5e-324, 1e-300, 1e-160, 1e-150, 2.0**-54, 0.25, 0.5, 0.9, 1.0 - 2.0**-53])
    for df in (1, 2):
        spec = tf.DistributionSpec("studentt", {"n": df})
        values = distributions._quantile_array(spec, grid)
        assert values.tolist() == [tf.quantile(spec, p) for p in grid]
        assert values[3:].tobytes() == reference_t_ppf(df, grid[3:]).tobytes()


def reference_t_cdf(df, x):
    # The Student-t CDF in its plain statement: both incomplete-beta forms for
    # every element, then the one the computed central mass picks. _t_cdf must
    # give the same bits.
    x = np.asarray(x, float)
    xx = x * x
    central = 0.5 * special.betainc(0.5, 0.5 * df, xx / (df + xx))
    tail = 0.5 * special.betainc(0.5 * df, 0.5, df / (df + xx))
    inner = central <= 0.25
    upper = np.where(inner, 0.5 + central, 1.0 - tail)
    lower = np.where(inner, 0.5 - central, tail)
    return np.where(x >= 0, upper, lower)


def ulp_steps(x, count):
    """x and the ``count`` floats on either side of it."""
    up, down = [x], [x]
    for _ in range(count):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return up + down[1:]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("df", [*range(1, 41), 10**6])
def test_t_cdf_matches_both_form_reference_bit_for_bit(df):
    spec = tf.DistributionSpec("studentt", {"n": df})
    q = tf.quantile(spec, 0.75)
    # The reference picks its form by the computed central mass, so the switch
    # lies within a few ulps of the quartile, not exactly at it; the grid
    # holds the switch and 40 ulps either side of the quartile.
    near = np.array(sorted(ulp_steps(q, 40)))
    xx = near * near
    picks_central = 0.5 * special.betainc(0.5, 0.5 * df, xx / (df + xx)) <= 0.25
    assert picks_central[0] and not picks_central[-1]
    edges = set(near) | {x for v in (q, q * (1 - 2.0**-20), q * (1 + 2.0**-20)) for x in ulp_steps(v, 1)}
    dense = np.concatenate([np.linspace(0.0, 50.0, 4001), np.linspace(0.0, 2.0, 4001)])
    extremes = {5e-324, 1e-300, 1e150, 1e155, 1e300}

    def both_signs(points):
        return np.array(sorted(points | {-x for x in points}))

    grid = both_signs(edges | extremes | set(dense))
    # the public cdf evaluates one x as a 1-element array: it must agree with
    # the whole-grid call at the edges, the extremes and every 20th dense point
    scalars = both_signs(edges | extremes | set(dense[::20]))
    with np.errstate(invalid="ignore", over="ignore"):  # the reference's inf / inf at |x| > 1e154
        expected, expected_scalars = reference_t_cdf(df, grid), reference_t_cdf(df, scalars)
    assert _cdf_array(spec, grid).tobytes() == expected.tobytes()
    for x, want in zip(scalars, expected_scalars):
        assert tf.cdf(spec, x) == want, x


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.8, 5.0])
def test_hillhorror_cdf_inverts_quantile(alpha):
    spec = tf.DistributionSpec("hillhorror", {"alpha": alpha})
    for u in TAIL_GRID:
        if u <= 0.5:
            assert tf.cdf(spec, tf.quantile(spec, u)) == pytest.approx(u, rel=1e-13, abs=0.0), u


def test_small_shape_gamma_stays_inside_support():
    spec = tf.parse_spec("gamma(alpha=0.05,beta=1)")
    q1 = tf.characteristics(spec).fences.q1
    assert q1 > 0
    assert q1 == pytest.approx(5.3157e-13, rel=1e-4)
    assert np.all(tf.sample(spec, tf.RngState(314, 1), 100_000).values > 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    spec=st.one_of(
        st.floats(0.1, 10.0).map(lambda a: tf.DistributionSpec("gamma", {"alpha": a, "beta": 1.0})),
        st.floats(0.05, 10.0).map(lambda a: tf.DistributionSpec("hillhorror", {"alpha": a})),
        st.integers(1, 200).map(lambda n: tf.DistributionSpec("studentt", {"n": n})),
    ),
    log2_u=st.floats(-54.0, -1.0),
)
def test_lower_tail_round_trip_property(spec, log2_u):
    u = 2.0**log2_u
    x = tf.quantile(spec, u)
    assert math.isfinite(x)
    if spec.family != "studentt":
        assert x > 0
    assert abs(tf.cdf(spec, x) - u) <= 1e-10 * u


# Windows of adjacent sampler uniforms, k * 2^-53 + 2^-54 clamped below 1 for
# integer k < 2^53 (what _uniform_open gives), so an ulp-level drop shows.
_WINDOW = 100_000
_LAST_FIRST = 2**53 - _WINDOW


def sampler_window(first):
    u = (first + np.arange(_WINDOW)).astype(float) * 2.0**-53 + 2.0**-54
    return np.minimum(u, distributions._BELOW_ONE)


_SHAPE = st.floats(0.1, 10.0)
_LOCATION = st.floats(-5.0, 5.0)
_SCALE = st.floats(0.1, 5.0)
CLOSED_FORM_SPECS = st.one_of(
    st.builds(lambda a, w: tf.DistributionSpec("uniform", {"a": a, "b": a + w}), _LOCATION, _SCALE),
    st.builds(lambda lam: tf.DistributionSpec("exponential", {"lambda": lam}), _SCALE),
    st.builds(lambda a, d: tf.DistributionSpec("pareto", {"alpha": a, "delta": d}), _SHAPE, _SCALE),
    st.builds(lambda a, mu, s: tf.DistributionSpec("frechet", {"alpha": a, "mu": mu, "sigma": s}),
              _SHAPE, _LOCATION, _SCALE),
    st.builds(lambda a, mu, s: tf.DistributionSpec("negweibull", {"alpha": a, "mu": mu, "sigma": s}),
              _SHAPE, _LOCATION, _SCALE),
    st.builds(lambda mu, g: tf.DistributionSpec("gumbel", {"mu": mu, "gamma": g}), _LOCATION, _SCALE),
    st.builds(lambda a: tf.DistributionSpec("hillhorror", {"alpha": a}), _SHAPE),
)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    spec=CLOSED_FORM_SPECS,
    p=st.one_of(
        st.floats(0.0, 1.0),
        st.floats(-53.0, -1.0).map(lambda e: 2.0**e),
        st.floats(-53.0, -1.0).map(lambda e: 1.0 - 2.0**e),
    ),
)
def test_closed_form_quantiles_monotone_on_sampler_grid(spec, p):
    # test_quantile_monotone_on_grid steps by 1e-3 and cannot see an ulp-level
    # drop; this walks both ends of the sampler's range and a window around p.
    centre = min(max(round(p * 2**53) - _WINDOW // 2, 0), _LAST_FIRST)
    for first in (0, centre, _LAST_FIRST):
        values = distributions._quantile_array(spec, sampler_window(first))
        assert np.all(np.isfinite(values)), (spec, first)
        drops = np.flatnonzero(np.diff(values) < 0)
        assert drops.size == 0, (spec, first, drops[:5])


def exact_cdf_pdf(spec, x):
    """F(x) and f(x) of a scipy-backed family at the float x, by mpmath."""
    mp = pytest.importorskip("mpmath")
    x = mp.mpf(x)
    if spec.family == "studentt":
        df = mp.mpf(spec.params["n"])
        tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, df / (df + x * x), regularized=True) / 2
        pdf = mp.gamma((df + 1) / 2) / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2)) * (1 + x * x / df) ** (-(df + 1) / 2)
        return (tail if x < 0 else 1 - tail), pdf
    if spec.family == "gamma":
        a, b = mp.mpf(spec.params["alpha"]), mp.mpf(spec.params["beta"])
        return mp.gammainc(a, 0, b * x, regularized=True), b * (b * x) ** (a - 1) * mp.exp(-b * x) / mp.gamma(a)
    assert spec.family == "normal" and spec.params == {"mu": 0.0, "sigma2": 1.0}
    return mp.ncdf(x), mp.npdf(x)


# Drops of the scipy-backed quantiles between adjacent sampler uniforms
# (2k+1)·2^-54, on windows of `width` uniforms centred on p: how many pairs
# drop, the largest drop and the largest error of a dropped pair's values
# against mpmath, both in ulps of the value. Measured with scipy 1.17.1; a
# scipy that drops more pairs, or further, fails here.
SCIPY_QUANTILE_DROPS = [
    # spec, p, width, dropped pairs, largest drop, largest error
    ("t(n=3)", 0.3, 1000, 154, 11.0, 11.06),
    ("t(n=3)", 0.25, 1000, 89, 8.0, 9.21),
    ("t(n=4)", 0.25, 1000, 64, 9.0, 10.76),
    ("t(n=4)", 0.76, 1000, 4, 4.0, 8.91),
    ("gamma(alpha=0.5,beta=1)", 0.9, 1000, 139, 57.0, 42.37),
    ("gamma(alpha=0.5,beta=1)", 0.5, 1000, 50, 6.0, 13.59),
    ("normal(mu=0,sigma2=1)", 0.1, 100_000, 13, 2.0, 3.27),
]


@pytest.mark.parametrize(("text", "p", "width", "pairs", "largest_drop", "largest_error"), SCIPY_QUANTILE_DROPS)
def test_scipy_quantile_drops_are_rounding_error(text, p, width, pairs, largest_drop, largest_error):
    # These quantiles are not monotone at the ulp level, so neither
    # Q(sort u) == sort Q(u) nor transforming only the order statistics an
    # estimator reads would keep today's bytes. Every drop must be the
    # quantile's own rounding error: mpmath puts each value of a dropped pair
    # within the recorded error of the exact quantile, and the exact
    # quantiles of the pair increase.
    mp = pytest.importorskip("mpmath")
    spec = tf.parse_spec(text)
    first = round(p * 2**53) - width // 2
    u = (first + np.arange(width)).astype(float) * 2.0**-53 + 2.0**-54
    x = distributions._quantile_array(spec, u)
    drops = np.flatnonzero(np.diff(x) < 0)
    assert 0 < drops.size <= pairs
    ulps = np.spacing(np.abs(x))
    assert np.max((x[drops] - x[drops + 1]) / ulps[drops]) <= largest_drop
    error = {}  # x - Q(u): one Newton step from x, exact to far below an ulp
    with mp.workdps(30):
        for i in sorted({*drops.tolist(), *(drops + 1).tolist()}):
            cdf, pdf = exact_cdf_pdf(spec, float(x[i]))
            error[i] = (cdf - mp.mpf(float(u[i]))) / pdf
            assert abs(float(error[i])) <= largest_error * ulps[i], (i, float(error[i]) / ulps[i])
        for i in drops.tolist():
            # Q(u[i+1]) - Q(u[i]) = (x[i+1] - error[i+1]) - (x[i] - error[i]) > 0
            assert mp.mpf(float(x[i + 1])) - error[i + 1] > mp.mpf(float(x[i])) - error[i], i


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 (XSL-RR 128/64) multiplier


def _pcg64_emitting(word):
    """A real PCG64 whose next raw 64-bit word is ``word``.

    PCG64 steps its 128-bit state (state * MULT + inc mod 2^128) and outputs
    hi ^ lo of the new state, rotated right by its top six bits. The new state
    hi = 0, lo = word therefore outputs ``word``; the state to load is that
    one stepped back once.
    """
    bitgen = np.random.PCG64(0)
    inc = bitgen.state["state"]["inc"]
    previous = (word - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": previous, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


def _top_draw_generator():
    # The largest raw word, 2^64 - 1: its top 53 bits give the largest integer draw, 2^53 - 1.
    return _pcg64_emitting(2**64 - 1)


DRAW_PATHS = ["state_write", "fallback"]


def _inject_top_draws(monkeypatch, path):
    """Make every row's first raw word 2^64 - 1, at the state source of the draw path.

    Both paths build a call's first PCG64 by ``_generator``, which draws the
    call's first row. The state-write path writes each later row's seeded
    state from ``_stream_states`` into that PCG64; the fallback, forced by a
    None ``_state_layout``, builds each row's PCG64 by ``_generator``.
    """
    layout = distributions._state_layout()  # probed, and cached, before _generator is replaced
    monkeypatch.setattr(distributions, "_generator", lambda words: _top_draw_generator())
    if path == "fallback":
        monkeypatch.setattr(distributions, "_state_layout", lambda: None)
        return
    if layout is None:
        pytest.skip("this interpreter's PCG64 takes the fallback")
    halves = _state_of(_top_draw_generator())
    row = np.array([halves[i] for i in layout[1]], dtype=np.uint64)
    monkeypatch.setattr(distributions, "_stream_states", lambda seed, streams: np.tile(row, (len(streams), 1)))


@pytest.mark.parametrize("path", DRAW_PATHS)
def test_top_integer_draw_stays_below_one(path, monkeypatch):
    assert _top_draw_generator().random_raw(1)[0] == 2**64 - 1
    assert _uniform_open(np.random.Generator(_top_draw_generator()).random(1))[0] == 1.0 - 2.0**-53
    _inject_top_draws(monkeypatch, path)
    for text in ("pareto(alpha=1,delta=1)", "exp(lambda=1)", "hillhorror(alpha=0.5)",
                 "frechet(alpha=2,mu=0,sigma=1)"):
        spec = tf.parse_spec(text)
        values = tf.sample(spec, tf.RngState(1, 0), 1).values
        # the injected word was drawn: the sample is the quantile of the top uniform
        top = distributions._quantile_array(spec, np.array([1.0 - 2.0**-53]))
        assert values.tobytes() == top.tobytes() and np.isfinite(values).all()
        # the first row drawn as built, and the later rows after their states are written
        rows = distributions.sample_blocks(spec, 1, [(range(0, 1), 1), (range(1, 4), 1)])
        assert [block.tobytes() for block in rows] == [top.tobytes(), np.tile(top, 3).tobytes()]


def _uniform_from_raw_words(words):
    # The sampler's documented mapping of raw words to uniforms:
    # u = ((w >> 11) + 0.5) / 2^53, clamped below 1.
    k = (words >> np.uint64(11)).astype(np.float64)
    return np.minimum((k + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0))


def test_uniform_open_matches_raw_word_formula_bit_for_bit():
    # Generator.random() draws of a PCG64, mapped in place, against the raw
    # words that the same PCG64 emits, mapped by the documented formula.
    edge_words = [0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 2**12, 2**64 - 2**11 - 1,
                  2**64 - 2**11, 2**64 - 2]
    for word in [*edge_words, 2**64 - 1]:
        assert _pcg64_emitting(word).random_raw(1)[0] == word
        expected = _uniform_from_raw_words(np.array([word], dtype=np.uint64))
        u = np.random.Generator(_pcg64_emitting(word)).random(1)
        assert _uniform_open(u) is u and u.tobytes() == expected.tobytes(), word
    for stream in range(1200):
        count = 1 + stream % 130
        expected = _uniform_from_raw_words(stream_generator(99, stream).random_raw(count))
        u = _uniform_open(np.random.Generator(stream_generator(99, stream)).random(count))
        assert u.tobytes() == expected.tobytes(), stream
    expected = _uniform_from_raw_words(np.random.PCG64(35).random_raw(10**6))
    u = _uniform_open(np.random.Generator(np.random.PCG64(35)).random(10**6))
    assert u.tobytes() == expected.tobytes()


def test_uniform_draw_matches_generator_integers():
    # Generator.random() on the sampler's PCG64, mapped by _uniform_open, must
    # give the u that Generator.integers(0, 2**53) gives on the same
    # SeedSequence(seed, spawn_key=(stream,)) stream.
    for stream in range(1000):
        seq = np.random.SeedSequence(entropy=2024, spawn_key=(stream,))
        k = np.random.Generator(np.random.PCG64(seq)).integers(0, 2**53, size=64, dtype=np.int64)
        expected = np.minimum((k + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0))
        u = _uniform_open(np.random.Generator(stream_generator(2024, stream)).random(64))
        assert u.tobytes() == expected.tobytes(), stream


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1])
def test_stream_seed_matches_numpy_seed_sequence(seed):
    # Seeds of one and two 32-bit words, streams of one to four words, and the
    # first and last streams of hash blocks (1024 streams each).
    block_edges = [1023, 1024, 2047, 2**32 - 1024, 2**64 - 1, 2**64]
    for stream in [*range(40), *block_edges, 2**32 - 1, 2**32, 2**40 + 3, 2**96 + 5, 10**30]:
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
        expected = np.random.PCG64(seq).random_raw(4)
        assert np.array_equal(stream_generator(seed, stream).random_raw(4), expected)
    block = distributions._seed_block(seed, 0)
    assert block.shape == (1024, 4) and block.dtype == np.uint64
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0


def _state_of(bitgen):
    """A PCG64's (state, inc) as (state lo, state hi, inc lo, inc hi), from numpy's documented ``state``."""
    state = bitgen.state["state"]
    return [value >> shift & (2**64 - 1) for value in (state["state"], state["inc"]) for shift in (0, 64)]


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1])
def test_seeded_states_match_numpy_pcg64(seed):
    # Block edges, streams of one to four 32-bit words, and streams >= 2^64.
    streams = [0, 1, 1023, 1024, 2047, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1023, 10**30]
    for stream in streams:
        numpy_state = _state_of(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))
        words = distributions._stream_words(seed, range(stream, stream + 1))
        assert distributions._seeded_states(words).tolist() == [numpy_state], stream
    layout = distributions._state_layout()
    if layout is not None:  # the cached blocks hold the same states in the generator's word order
        block = distributions._state_block(seed, 1)
        assert block.shape == (1024, 4) and block.dtype == np.uint64 and block.flags.c_contiguous
        assert block.tolist() == distributions._seeded_states(distributions._seed_block(seed, 1))[:, list(layout[1])].tolist()
        assert distributions._stream_states(seed, range(1000, 1030)).tolist() == np.concatenate(
            [distributions._state_block(seed, 0)[1000:], block[:6]]).tolist()
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0


@pytest.mark.parametrize("block", [0, 1, 2**22, 2**54 + 1], ids=["first", "second", "stream 2^32", "past 2^64"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_every_row_of_a_hash_block_matches_numpy(seed, block):
    # Every stream of a block against numpy's own SeedSequence and PCG64: blocks
    # of one-word streams, the block whose first stream is 2^32 (two words),
    # and one past 2^64, whose streams have three words.
    streams = range(block * 1024, (block + 1) * 1024)
    words = distributions._seed_block(seed, block)
    expected = [np.random.SeedSequence(seed, spawn_key=(s,)).generate_state(4, np.uint64).tolist() for s in streams]
    assert words.tolist() == expected
    layout = distributions._state_layout()
    if layout is not None:  # each row's (state, inc) halves in the generator's word order
        states = distributions._state_block(seed, block)
        seeded = [_state_of(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(s,)))) for s in streams]
        assert states.tolist() == [[halves[i] for i in layout[1]] for halves in seeded]


# 64-bit words that make the 128-bit sums and the 32-bit limb products carry
EDGE_WORDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2**32, 2**64 - 2, 2**64 - 1])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(EDGE_WORDS, st.integers(0, 2**64 - 1)), min_size=4, max_size=4))
def test_seeded_states_match_numpy_on_any_words_property(words):
    words = np.array([words], dtype=np.uint64)
    with np.errstate(all="raise"):
        states = distributions._seeded_states(words)
    assert states.dtype == np.uint64
    assert states.tolist() == [_state_of(distributions._generator(words[0]))]


def test_stream_seed_gives_only_the_four_words_that_seed_pcg64():
    words = distributions._stream_words(7, range(1))[0]
    seed = distributions._StreamSeed(words)
    assert seed.generate_state(4, np.uint64) is words
    assert seed.generate_state(4, "uint64") is words  # a dtype that is not np.uint64 itself
    # (4,) takes numpy's default dtype, uint32
    for args in [(4,), (4, np.uint32), (4, np.int64), (8, np.uint64), (2, np.uint64)]:
        with pytest.raises(ValueError, match="only the four 64-bit words"):
            seed.generate_state(*args)


class _FakeBitGenerator:
    """Stands in for a PCG64 whose state struct lies elsewhere."""

    def __init__(self, address):
        self.ctypes = mock.Mock(state_address=address)


def test_state_layout_refuses_out_of_object_addresses_without_reading_them(monkeypatch):
    reads = []
    monkeypatch.setattr(distributions, "_read_words", lambda address, count: reads.append(address) or [0] * count)
    probe = distributions._state_layout.__wrapped__
    # the state struct's address outside the generator object: nothing is read
    for address in (0, id(monkeypatch)):
        monkeypatch.setattr(np.random, "PCG64", lambda seed, address=address: _FakeBitGenerator(address))
        assert probe() is None and reads == []
    monkeypatch.undo()
    # the struct inside it, but its pointer to (state, inc) outside: only the pointer is read
    bitgen = distributions._generator(distributions._stream_words(0, range(1))[0])
    end = id(bitgen) + sys.getsizeof(bitgen)
    inside = bitgen.ctypes.state_address
    for pointer in (0, id(bitgen) - 8, end - 31, end, 2**64 - 1):
        reads.clear()
        monkeypatch.setattr(distributions, "_read_words",
                            lambda address, count, pointer=pointer: reads.append(address) or [pointer])
        monkeypatch.setattr(np.random, "PCG64", lambda seed: bitgen)
        assert probe() is None and reads == [inside], pointer


def test_state_layout_refuses_a_mismatched_layout_without_writing(monkeypatch):
    probe = distributions._state_layout.__wrapped__
    real_read, writes = distributions._read_words, []
    monkeypatch.setattr(distributions, "_state_memory", lambda address: writes.append(address))
    for change in (lambda words: words[::-1], lambda words: [words[0] ^ 1, *words[1:]],
                   lambda words: [words[2], words[3], words[0], words[1]]):
        monkeypatch.setattr(distributions, "_read_words",
                            lambda address, count, change=change: (real_read(address, count) if count == 1
                                                                   else change(real_read(address, count))))
        assert probe() is None and writes == []
    # a layout that matches but draws other words after the write is refused too
    monkeypatch.undo()
    monkeypatch.setattr(distributions, "_seeded_states", lambda words: np.zeros((len(words), 4), np.uint64))
    assert probe() is None
    monkeypatch.undo()
    assert probe() == distributions._state_layout()


def test_state_layout_is_refused_where_id_is_no_address(monkeypatch):
    monkeypatch.setattr(sys, "implementation", types.SimpleNamespace(name="pypy"))
    assert distributions._state_layout.__wrapped__() is None


def test_draw_paths_give_the_same_rows(monkeypatch):
    spec = tf.parse_spec("pareto(alpha=0.5,delta=1)")
    blocks = [(range(1000, 1100), 7), (range(5, 5), 3), (range(2**64 - 2, 2**64 + 3), 4), (range(3, 4), 1)]
    fast = distributions.sample_blocks(spec, 11, blocks)
    monkeypatch.setattr(distributions, "_state_layout", lambda: None)
    slow = distributions.sample_blocks(spec, 11, blocks)
    assert [rows.tobytes() for rows in fast] == [rows.tobytes() for rows in slow]


def _stream_raw_words(seed, stream, count):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))).random_raw(count)


def _reference_rows(spec, seed, streams, count, raw_words=_stream_raw_words):
    """The bytes of a block's sorted rows from an independent route: each
    stream's raw PCG64 words, the documented map, the quantile, a sort."""
    return b"".join(np.sort(distributions._quantile_array(spec, _uniform_from_raw_words(raw_words(seed, s, count))))
                    .tobytes() for s in streams)


# one call of several blocks: across the 1024-stream hash-block edge, one
# stream, none, and across the 2048 edge
EDGE_BLOCKS = [(range(990, 1030), 17), (range(1030, 1031), 4), (range(7, 7), 3), (range(2040, 2060), 9)]


@pytest.mark.parametrize("path", DRAW_PATHS)
@pytest.mark.parametrize("text", ["pareto(alpha=0.5,delta=1)", "t(n=4)"])
def test_sample_blocks_equal_the_raw_word_reference(text, path, monkeypatch):
    spec = tf.parse_spec(text)
    if path == "fallback":
        monkeypatch.setattr(distributions, "_state_layout", lambda: None)
    elif distributions._state_layout() is None:
        pytest.skip("this interpreter's PCG64 takes the fallback")
    matrices = distributions.sample_blocks(spec, 11, EDGE_BLOCKS)
    assert [matrix.tobytes() for matrix in matrices] == [
        _reference_rows(spec, 11, streams, count) for streams, count in EDGE_BLOCKS]
    # every row's first raw word 2^64 - 1, whose uniform is clamped to 1 - 2^-53
    _inject_top_draws(monkeypatch, path)
    assert _uniform_from_raw_words(_top_draw_generator().random_raw(1))[0] == 1.0 - 2.0**-53
    matrices = distributions.sample_blocks(spec, 11, EDGE_BLOCKS)

    def top(seed, stream, count):
        return _top_draw_generator().random_raw(count)

    assert [matrix.tobytes() for matrix in matrices] == [
        _reference_rows(spec, 11, streams, count, top) for streams, count in EDGE_BLOCKS]


# In a fresh interpreter, replace _generator before anything probes the
# PCG64 layout, with a generator of another stream (as the top-draw tests do),
# then draw ten rows. Prints the probed layout, the _generator calls and the
# sha256 of rows 1-9.
PATCHED_GENERATOR_RUNNER = """
import hashlib, json
import numpy as np
from tailfence import distributions
calls = []
distributions._generator = lambda words: calls.append(words.tolist()) or np.random.PCG64(0)
layout = distributions._state_layout()
spec = distributions.parse_spec("pareto(alpha=0.5,delta=1)")
rows = distributions.sample_blocks(spec, 11, [(range(1020, 1030), 6)])[0]
print(json.dumps({"layout": layout, "calls": len(calls), "rows": hashlib.sha256(rows[1:].tobytes()).hexdigest()}))
"""


def test_state_layout_probe_ignores_a_replaced_generator():
    layout = distributions._state_layout()
    if layout is None:
        pytest.skip("this interpreter's PCG64 takes the fallback")
    src = str(Path(tf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PATCHED_GENERATOR_RUNNER], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    report = json.loads(proc.stdout)
    assert report["layout"] == [layout[0], list(layout[1])]
    # the state-write path: one PCG64 built for the call, and rows 1-9 from their own written states
    spec = tf.parse_spec("pareto(alpha=0.5,delta=1)")
    rows = distributions.sample_blocks(spec, 11, [(range(1021, 1030), 6)])[0]
    assert report["calls"] == 1 and report["rows"] == hashlib.sha256(rows.tobytes()).hexdigest()


@pytest.mark.parametrize("path", DRAW_PATHS)
def test_a_full_batch_holds_one_float_matrix_and_the_transforms_temporaries(path, monkeypatch):
    # A batch's uniforms are filled in place and mapped in place, and every
    # step of the Pareto transform delta * exp(log1p(-u) / -alpha) writes
    # into one fresh array, so a 2^14-draw batch peaks at two matrices: its
    # uniforms and the transform's result. A fresh array per step peaked at
    # three, and drawing raw words, joining them and mapping the join above 4.5.
    if path == "fallback":
        monkeypatch.setattr(distributions, "_state_layout", lambda: None)
    spec = tf.parse_spec("pareto(alpha=0.5,delta=1)")
    blocks = [(range(960, 1088), 128)]
    matrix = 2**14 * np.dtype(np.float64).itemsize
    distributions.sample_blocks(spec, 5, blocks)  # fills the hash-block caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rows = distributions.sample_blocks(spec, 5, blocks)[0]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert rows.shape == (128, 128)
    assert peak < 2.5 * matrix, peak


@pytest.mark.parametrize("text", ["pareto(alpha=0.5,delta=1)", "t(n=4)"])
def test_concurrent_draws_give_the_serial_rows(text, pretend_cpus):
    # Each draw call writes its rows' states into its own PCG64, and the t(4)
    # calls of 2048 draws and more split their transforms over the one shared
    # pool (three CPUs pretended): threads drawing at once, more of them than
    # CPUs and switching often, must each get what they get alone.
    pretend_cpus(3)
    spec = tf.parse_spec(text)
    jobs = [(3, [(range(0, 400), 50)]), (4, [(range(2000, 2400), 50)]), (3, [(range(100, 300), 7)]), (5, [(range(9, 10), 3)])]
    serial = [distributions.sample_blocks(spec, seed, blocks)[0].tobytes() for seed, blocks in jobs]
    results = {}
    start = threading.Barrier(len(jobs))

    def draw(index, seed, blocks):
        start.wait(timeout=60)
        results[index] = {distributions.sample_blocks(spec, seed, blocks)[0].tobytes() for _ in range(20)}

    threads = [threading.Thread(target=draw, args=(i, *job)) for i, job in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(len(jobs))] == [{rows} for rows in serial]


@pytest.mark.parametrize("path", DRAW_PATHS)
def test_sample_rejects_non_finite_draws(path, monkeypatch):
    _inject_top_draws(monkeypatch, path)
    spec = tf.parse_spec("hillhorror(alpha=0.01)")  # Q(1 - 2^-53) overflows
    with pytest.raises(ValueError, match="NaN or infinite"):
        tf.sample(spec, tf.RngState(1, 0), 3)


# Ranges of streams as a grid point's seed words are sliced out of the hash
# blocks (1024 streams each): inside one block, across an edge, starting on
# one, across three blocks, one stream, none, and where a block's higher words change.
SAMPLE_ROW_STREAMS = [
    range(1, 41),
    range(1000, 1060),
    range(1024, 1064),
    range(1000, 3100),
    range(5000, 5001),
    range(77, 77),
    range(2**32 - 3, 2**32 + 4),
]


@pytest.mark.parametrize("streams", SAMPLE_ROW_STREAMS, ids=str)
@pytest.mark.parametrize("text", ["pareto(alpha=0.5,delta=1)", "t(n=4)", "gamma(alpha=0.5,beta=1)"])
@pytest.mark.parametrize("seed", [7, 2**40 + 1])
def test_sample_blocks_equal_stacked_samples_bit_for_bit(text, seed, streams):
    spec = tf.parse_spec(text)
    rows = distributions.sample_blocks(spec, seed, [(streams, 33)])[0]
    stacked = [tf.sample(spec, tf.RngState(seed, s), 33).sorted for s in streams]
    assert rows.shape == (len(streams), 33) and rows.flags.c_contiguous
    assert rows.tobytes() == b"".join(row.tobytes() for row in stacked)
    # An oracle from numpy alone: Generator.integers draws the top 53 bits k of
    # each word of SeedSequence(seed, spawn_key=(s,)), u = (k + 0.5) / 2^53 is
    # kept below 1, then the inverse transform and a sort.
    below_one = np.nextafter(1.0, 0.0)
    for s, row in zip(streams, rows):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(s,))))
        u = np.minimum((gen.integers(0, 2**53, 33) + 0.5) * 2.0**-53, below_one)
        assert np.sort(distributions._quantile_array(spec, u)).tobytes() == row.tobytes(), s


def test_stream_words_slice_each_block_once():
    for seed in (1, 99, 2**63 + 5):
        for streams in SAMPLE_ROW_STREAMS:
            words = distributions._stream_words(seed, streams)
            assert words.shape == (len(streams), 4) and words.dtype == np.uint64
            for stream, row in zip(streams, words):
                block, offset = divmod(stream, 1024)
                assert np.array_equal(row, distributions._seed_block(seed, block)[offset]), (seed, stream)
    inside = distributions._stream_words(1, range(1024, 1064))
    assert inside.base is distributions._seed_block(1, 1) and not inside.flags.writeable
    with pytest.raises(ValueError, match="consecutive"):
        distributions._stream_words(1, range(0, 10, 2))


@pytest.mark.parametrize("path", DRAW_PATHS)
def test_sample_blocks_reject_bad_counts_and_non_finite_draws(path, monkeypatch):
    spec = tf.parse_spec("hillhorror(alpha=0.01)")
    with pytest.raises(ValueError, match="count must be >= 1"):
        distributions.sample_blocks(spec, 1, [(range(3), 0)])
    with pytest.raises(ValueError, match="count must be an integer"):
        distributions.sample_blocks(spec, 1, [(range(3), 2.0)])
    with pytest.raises(ValueError, match="seed must be a 64-bit"):
        distributions.sample_blocks(spec, 2**64, [(range(3), 2)])
    with pytest.raises(ValueError, match="stream must be non-negative"):
        distributions.sample_blocks(spec, 1, [(range(-1, 3), 2)])
    with pytest.raises(ValueError, match="streams must be a range"):
        distributions.sample_blocks(spec, 1, [(range(3), 2), ([0, 1], 4)])
    _inject_top_draws(monkeypatch, path)
    with pytest.raises(ValueError, match="NaN or infinite"):  # Q(1 - 2^-53) overflows
        distributions.sample_blocks(spec, 1, [(range(3), 2)])


def test_sample_blocks_of_no_blocks_is_empty():
    for text in ("pareto(alpha=0.5,delta=1)", "t(n=4)"):
        assert distributions.sample_blocks(tf.parse_spec(text), 7, []) == []


@st.composite
def stream_blocks(draw, rows, counts):
    """Three blocks of different counts, the second right after the first and
    the third after a gap, plus an empty range, in any order."""
    first = draw(st.integers(0, 5000))
    sizes = [draw(rows) for _ in range(3)]
    gap = draw(st.integers(1, 3000))
    starts = [first, first + sizes[0], first + sizes[0] + sizes[1] + gap]
    count = draw(st.lists(counts, min_size=4, max_size=4, unique=True))
    blocks = [(range(start, start + size), n) for start, size, n in zip(starts, sizes, count)]
    empty = draw(st.integers(0, 6000))
    blocks.append((range(empty, empty), count[3]))
    return draw(st.permutations(blocks))


# Each t(4) block holds at least 30 * 70 = 2100 draws, so with two usable CPUs
# (pretended, as on one CPU nothing is split) the batch's transform and each
# block's alone are split over threads, and each sample's is not. The count is
# the same for every example, so the fixture's one setup serves them all.
@settings(derandomize=True, max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("text, rows, counts", [
    ("pareto(alpha=0.5,delta=1)", st.integers(1, 40), st.integers(1, 60)),
    ("t(n=4)", st.integers(30, 50), st.integers(70, 90)),
], ids=["pareto", "t4"])
def test_sample_blocks_equal_each_block_and_each_sample(text, rows, counts, data, pretend_cpus):
    pretend_cpus(2)
    spec = tf.parse_spec(text)
    blocks = data.draw(stream_blocks(rows, counts))
    seed = data.draw(st.sampled_from([3, 2**40 + 1]))
    transform, calls = distributions._transform, []

    def counting(spec, u):
        calls.append(u.size)
        return transform(spec, u)

    with mock.patch.object(distributions, "_transform", counting):
        matrices = distributions.sample_blocks(spec, seed, blocks)
        assert calls == [sum(len(streams) * count for streams, count in blocks)]
        assert len(matrices) == len(blocks)
        for (streams, count), matrix in zip(blocks, matrices):
            assert matrix.shape == (len(streams), count)
            alone = distributions.sample_blocks(spec, seed, [(streams, count)])[0]
            assert alone.tobytes() == matrix.tobytes()
            for s, row in zip(streams, matrix):
                assert tf.sample(spec, tf.RngState(seed, s), count).sorted.tobytes() == row.tobytes(), s


SPLIT_DRAWS = [1, 1023, 1024, 2047, 2048, 8360, 33333]


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("text", ALL_SPECS)
def test_split_transform_changes_no_byte(text, threads, monkeypatch, pretend_cpus):
    spec = tf.parse_spec(text)
    original = distributions._quantile_array
    blocks = []

    def recording(spec, u):
        blocks.append(u.size)
        return original(spec, u)

    monkeypatch.setattr(distributions, "_quantile_array", recording)
    pretend_cpus(threads)
    words = np.random.PCG64(threads).random_raw(max(SPLIT_DRAWS))
    uniforms = np.random.Generator(np.random.PCG64(threads)).random(max(SPLIT_DRAWS))
    for size in SPLIT_DRAWS:
        u = _uniform_open(uniforms[:size].copy())
        assert u.tobytes() == _uniform_from_raw_words(words[:size]).tobytes(), size
        u[-1] = 2.0**-54 if size % 2 else 1.0 - 2.0**-53  # the sampler's extremes, in the last block
        blocks.clear()
        split = distributions._transform(spec, u)
        # one block per thread, each of at least 1024 draws, for the two iterative families only
        expected = min(threads, size // 1024) if spec.family in ("gamma", "studentt") else 1
        assert len(blocks) == max(expected, 1) and sum(blocks) == size, size
        assert split.tobytes() == original(spec, u).tobytes(), size


def test_worker_blocks_run_under_the_callers_error_state(monkeypatch, pretend_cpus):
    original = distributions._quantile_array
    seen = []

    def recording(spec, u):
        seen.append((threading.get_ident(), np.geterr(), np.geterrcall(), u.size))
        return original(spec, u)

    def handler(kind, flag):
        raise AssertionError(f"floating-point {kind} in the transform")

    monkeypatch.setattr(distributions, "_quantile_array", recording)
    pretend_cpus(3)
    spec = tf.parse_spec("gamma(alpha=0.5,beta=1)")
    u = np.linspace(0.001, 0.999, 4096)
    with np.errstate(call=handler, divide="raise", invalid="call", under="ignore", over="print"):
        caller = np.geterr()
        split = distributions._transform(spec, u)
    assert caller != np.geterr()  # not numpy's defaults
    assert sorted(size for *_, size in seen) == [1365, 1365, 1366]
    # the caller transforms one block, the pool the other two (on one thread or two)
    assert sorted(ident == threading.get_ident() for ident, *_ in seen) == [False, False, True]
    assert all(errors == caller and call is handler for _, errors, call, _ in seen)
    assert split.tobytes() == original(spec, u).tobytes()


def test_worker_exception_reaches_the_caller_and_the_pool_threads_stay_bounded(monkeypatch, pretend_cpus):
    # The pool outlives each call, so the thread count does not return to its
    # baseline. Instead, over 50 split calls, every other one failing in a
    # worker block, at most usable CPUs - 1 threads are ever added, the same
    # threads serve every call, and each worker exception reaches the caller as raised.
    caller = threading.get_ident()
    error = ArithmeticError("raised in a worker block")
    original = distributions._quantile_array
    failing, workers = [False], set()

    def transform(spec, u):
        if threading.get_ident() != caller:
            workers.add(threading.current_thread())
            if failing[0]:
                raise error
        return original(spec, u)

    monkeypatch.setattr(distributions, "_quantile_array", transform)
    pretend_cpus(3)
    spec, u = tf.parse_spec("t(n=4)"), np.full(4096, 0.3)
    expected = original(spec, u).tobytes()
    # the fixture shut the process's pool down, so the first call builds a new one
    baseline = set(threading.enumerate())
    added = set()
    for call in range(50):
        failing[0] = call % 2 == 0
        if failing[0]:
            with pytest.raises(ArithmeticError) as raised:
                distributions._transform(spec, u)
            assert raised.value is error
        else:
            assert distributions._transform(spec, u).tobytes() == expected
        added |= set(threading.enumerate()) - baseline
    assert 1 <= len(added) <= 3 - 1 and workers <= added
    assert all(thread.is_alive() for thread in added)


def test_the_caller_waits_for_every_worker_block_before_it_re_raises(monkeypatch, pretend_cpus):
    caller = threading.get_ident()
    original = distributions._quantile_array
    finished = []

    def transform(spec, u):
        if threading.get_ident() == caller:
            raise ArithmeticError("raised in the caller's block")
        time.sleep(0.05)
        finished.append(u.size)
        return original(spec, u)

    monkeypatch.setattr(distributions, "_quantile_array", transform)
    pretend_cpus(3)
    with pytest.raises(ArithmeticError, match="caller's block"):
        distributions._transform(tf.parse_spec("t(n=4)"), np.full(4096, 0.3))
    assert sorted(finished) == [1365, 1366]  # both worker blocks, done before the caller re-raised


def test_many_splits_build_one_executor_and_keep_it_when_the_cpus_grow(monkeypatch, pretend_cpus):
    # Built at 2 CPUs, the pool has one thread. At 8 CPUs a split cuts 8
    # blocks, and the 7 handed to the pool wait in its queue for that thread.
    import concurrent.futures

    built, blocks = [], []
    original = distributions._quantile_array

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    def recording(spec, u):
        blocks.append((threading.current_thread(), u.size))
        return original(spec, u)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(distributions, "_quantile_array", recording)
    spec, u = tf.parse_spec("t(n=4)"), np.linspace(0.001, 0.999, 8192)
    expected = original(spec, u).tobytes()
    baseline = set(threading.enumerate())
    pretend_cpus(2)
    for _ in range(20):
        assert distributions._transform(spec, u).tobytes() == expected
    pretend_cpus(8)
    blocks.clear()
    assert distributions._transform(spec, u).tobytes() == expected
    assert [size for _, size in blocks] == [1024] * 8
    assert len(built) == 1 and distributions._transform_pool() is built[0] and built[0]._max_workers == 1
    added = set(threading.enumerate()) - baseline
    assert len(added) == 1 and {thread for thread, _ in blocks} == added | {threading.current_thread()}


def test_usable_cpus_falls_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert distributions._usable_cpus() == len(os.sched_getaffinity(0))
    # as on macOS and Windows, which have no affinity call
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert distributions._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert distributions._usable_cpus() == 1


# In a fresh interpreter on the number of CPUs given as the second argument
# (pretended): split a t(4) transform, so the transform pool's threads are
# alive, then run a t(4) study serially and over a process pool of two forked
# workers, each of which may split its transforms over half the CPUs. Every
# block transform appends its process id and thread name to the log file named
# by the first argument. Prints the process id, the live threads before the
# pooled run and whether each axis's CSV of the two runs is the same.
FORK_AFTER_SPLIT_RUNNER = """
import json, os, sys, threading
import numpy as np
import tailfence as tf
from tailfence import distributions

transform = distributions._quantile_array

def logging_transform(spec, u):
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()} {threading.current_thread().name}\\n")
    return transform(spec, u)

distributions._usable_cpus = lambda: int(sys.argv[2])
distributions._quantile_array = logging_transform
spec = tf.parse_spec("t(n=4)")
distributions._transform(spec, np.full(4096, 0.3))
config = tf.StudyConfig(spec=spec, seed=5, m=400, n_grid=(10, 20, 30, 40, 50), k_grid=(2, 3),
                        methods=("par_n", "hh_q", "hill"))
serial = tf.run_study(config)
alive = threading.active_count()
pooled = tf.run_study(config, workers=2)
print(json.dumps({"pid": os.getpid(), "alive": alive,
                  "same": [serial.csv_for_axis(axis) == pooled.csv_for_axis(axis) for axis in ("n", "k")]}))
"""


@pytest.mark.parametrize("cpus", [4, 2])
def test_a_forked_worker_splits_over_a_pool_of_its_own_share(cpus, tmp_path):
    # A forked child that submitted to its parent's pool would wait forever on
    # threads it does not have: the timeout turns that into a failure.
    log = tmp_path / "blocks.txt"
    src = str(Path(tf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # a session of its own, so a hung run's forked workers are killed with it
    with subprocess.Popen([sys.executable, "-c", FORK_AFTER_SPLIT_RUNNER, str(log), str(cpus)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the study over forked workers hung")
    assert proc.returncode == 0, stderr
    report = json.loads(stdout)
    assert report["same"] == [True, True]
    assert report["alive"] >= 2  # the parent's pool threads were alive when the workers forked
    children = {}
    for pid, thread in (line.split(" ", 1) for line in log.read_text().splitlines()):
        if pid != str(report["pid"]):
            children.setdefault(pid, set()).add(thread)
    assert children
    # each worker's share is cpus // 2: its own thread and at most one pool thread
    assert all(len(threads) <= 2 for threads in children.values()), children
    pooled = {pid for pid, threads in children.items() if any(t.startswith("tailfence-transform") for t in threads)}
    # at 4 CPUs a worker splits over a pool of its own; at 2 its share is one CPU, and nothing splits
    assert bool(pooled) is (cpus == 4), children


def test_sampling_deterministic_in_seed_and_stream():
    spec = tf.parse_spec("uniform(a=0,b=1)")
    a = tf.sample(spec, tf.RngState(123, 0), 5)
    b = tf.sample(spec, tf.RngState(123, 0), 5)
    c = tf.sample(spec, tf.RngState(123, 1), 5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sampling_support_and_count():
    smp = tf.sample(tf.parse_spec("pareto(alpha=1,delta=1)"), tf.RngState(3, 0), 10_000)
    assert smp.n == 10_000
    assert np.all(smp.values >= 1.0)
    with pytest.raises(ValueError, match="count"):
        tf.sample(tf.parse_spec("uniform(a=0,b=1)"), tf.RngState(3, 0), 0)


def test_sampling_mean_matches_clt_bound():
    # inverse-transform draws from exp(2): mean 0.5, sd 0.5 (seed-pinned check)
    smp = tf.sample(tf.parse_spec("exp(lambda=2)"), tf.RngState(77, 0), 100_000)
    assert abs(float(np.mean(smp.values)) - 0.5) <= 3 * 0.5 / math.sqrt(100_000)


@pytest.mark.parametrize("text", ALL_SPECS)
def test_sampling_ks_smoke(text):
    # fixed-seed empirical-CDF agreement, not a flaky random test
    spec = tf.parse_spec(text)
    smp = tf.sample(spec, tf.RngState(314, 1), 100_000)
    n = smp.n
    values = _cdf_array(spec, smp.sorted)
    upper = np.max(np.abs(values - np.arange(1, n + 1) / n))
    lower = np.max(np.abs(values - np.arange(0, n) / n))
    assert max(upper, lower) <= 1.95 * 2 / math.sqrt(n)


def test_rng_state_validation():
    with pytest.raises(ValueError):
        tf.RngState(-1, 0)
    with pytest.raises(ValueError):
        tf.RngState(2**64, 0)
    with pytest.raises(ValueError):
        tf.RngState(1, -1)
    with pytest.raises(ValueError):
        tf.RngState(np.int64(-1), 0)


@pytest.mark.parametrize(
    ("seed", "stream"),
    [(1.5, 0), (1, 2.5), (2.0, 0), (1, np.float64(3.0)), (True, 0), (1, False), ("1", 0), (1, None)],
)
def test_rng_state_rejects_non_integers(seed, stream):
    # rejected here, not later inside sample with a TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        tf.RngState(seed, stream)


def test_rng_state_takes_numpy_integers_as_python_ints():
    spec = tf.parse_spec("pareto(alpha=1,delta=1)")
    for seed, stream in [(np.uint64(2**64 - 1), np.int32(7)), (np.int64(12), 3), (12, np.uint16(3))]:
        rng = tf.RngState(seed, stream)
        assert type(rng.seed) is int and type(rng.stream) is int
        plain = tf.RngState(int(seed), int(stream))
        assert rng == plain
        assert np.array_equal(tf.sample(spec, rng, 5).values, tf.sample(spec, plain, 5).values)


def test_sample_count_must_be_an_integer():
    spec = tf.parse_spec("uniform(a=0,b=1)")
    for count in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="count must be an integer"):
            tf.sample(spec, tf.RngState(3, 0), count)
    assert tf.sample(spec, tf.RngState(3, 0), np.int64(4)).n == 4
