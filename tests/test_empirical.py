import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailfence as tf
from tailfence.empirical import row_quantiles


def test_sample_validation():
    with pytest.raises(ValueError, match="at least one"):
        tf.Sample([])
    with pytest.raises(ValueError, match="NaN or infinite"):
        tf.Sample([1.0, math.nan])
    with pytest.raises(ValueError, match="NaN or infinite"):
        tf.Sample([1.0, math.inf])
    with pytest.raises(ValueError, match="NaN or infinite"):
        tf.Sample([2.0, -math.inf, 1.0])
    with pytest.raises(ValueError, match="NaN or infinite"):
        tf.Sample([math.inf, math.nan, -math.inf])
    with pytest.raises(ValueError, match="one-dimensional"):
        tf.Sample([[1.0, 2.0], [3.0, 4.0]])


def test_sample_is_immutable_and_sorted():
    source = np.array([3.0, 1.0, 2.0])
    smp = tf.Sample(source)
    source[:] = 9.0  # the sample keeps its own copy
    assert list(smp.sorted) == [1.0, 2.0, 3.0]
    assert list(smp.values) == [3.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        smp.values[0] = 9.0
    with pytest.raises(ValueError):
        smp.sorted[0] = 9.0
    assert source.flags.writeable  # the caller's array is left as it was
    assert not np.shares_memory(smp.values, smp.sorted)
    assert tf.Sample(2.5).n == 1


def test_quantile_at_knots():
    smp = tf.Sample([10.0, 20.0, 30.0])
    assert tf.empirical_quantile(smp, 0.25) == 10.0  # (n+1)p = 1
    assert tf.empirical_quantile(smp, 0.5) == 20.0  # (n+1)p = 2
    assert tf.empirical_quantile(smp, 0.75) == 30.0


def test_quantile_interpolates():
    # (n+1)p = 3.75 between the 3rd and 4th order statistics
    smp = tf.Sample([1.0, 2.0, 3.0, 4.0])
    assert tf.empirical_quantile(smp, 0.75) == pytest.approx(3.75, abs=0.0)


def test_exact_knots_bit_equal_random_samples():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        scale = 10.0 ** rng.integers(-6, 7)
        smp = tf.Sample(rng.normal(size=n) * scale)
        for k in range(1, n + 1):
            value, clamped = tf.empirical_quantile_flagged(smp, k / (n + 1))
            assert not clamped
            assert value == smp.sorted[k - 1]  # bit-exact


def test_out_of_range_p_clamps_with_flag():
    smp = tf.Sample([5.0, 7.0, 9.0])
    value, clamped = tf.empirical_quantile_flagged(smp, 0.01)
    assert (value, clamped) == (5.0, True)
    value, clamped = tf.empirical_quantile_flagged(smp, 0.99)
    assert (value, clamped) == (9.0, True)
    value, clamped = tf.empirical_quantile_flagged(smp, 0.5)
    assert (value, clamped) == (7.0, False)
    single = tf.Sample([5.0])
    assert tf.empirical_quantile(single, 0.025) == 5.0
    assert tf.empirical_quantile(single, 0.975) == 5.0


def test_non_finite_p_clamps_or_raises():
    smp = tf.Sample([1.0, 2.0, 3.0, 4.0, 5.0])
    rows = np.array([smp.sorted, 10.0 * smp.sorted])
    # infinite p, and a finite p whose (n+1)p overflows, clamp with the flag set
    for p, low in [(math.inf, False), (1e308, False), (-math.inf, True), (-1e308, True)]:
        assert tf.empirical_quantile_flagged(smp, p) == ((1.0, True) if low else (5.0, True))
        assert row_quantiles(rows, p).tolist() == ([1.0, 10.0] if low else [5.0, 50.0])
    for p in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="p=nan"):
            tf.empirical_quantile_flagged(smp, p)
        with pytest.raises(ValueError, match="p=nan"):
            row_quantiles(rows, p)


def test_row_quantiles_match_the_sample_quantile():
    rng = np.random.default_rng(2719)
    for n in (1, 2, 3, 7, 11, 15, 40):
        rows = np.sort(rng.standard_t(2, size=(6, n)), axis=1)
        rows[0] = 3.0  # a constant row
        for p in (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0, 1 / (n + 1), n / (n + 1)):
            got = row_quantiles(rows, p).tolist()
            assert got == [tf.empirical_quantile(tf.Sample(row), p) for row in rows], (n, p)


def test_fences_small_samples():
    fen = tf.empirical_fences(tf.Sample([1.0, 2.0, 3.0, 4.0]))
    assert fen.q1 == pytest.approx(1.25, abs=0.0)
    assert fen.q3 == pytest.approx(3.75, abs=0.0)
    assert fen.outer_high == pytest.approx(11.25, abs=1e-12)

    constant = tf.empirical_fences(tf.Sample([4.2] * 10))
    assert constant.iqr == 0.0
    assert constant.outer_low == constant.outer_high == 4.2

    hundred = tf.empirical_fences(tf.Sample(np.arange(1.0, 101.0)))
    assert hundred.q1 == pytest.approx(25.25, abs=0.0)
    assert hundred.q3 == pytest.approx(75.75, abs=0.0)


def test_fences_come_from_the_type6_quartiles():
    smp = tf.Sample([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 60.0])
    fen = tf.empirical_fences(smp)
    q1, q3 = tf.empirical_quantile(smp, 0.25), tf.empirical_quantile(smp, 0.75)
    assert fen == tf.fences_from_quartiles(q1, q3)
    assert tf.outlier_band_counts(smp)[4] == 1


def test_fences_require_three_points():
    smp = tf.Sample([1.0, 2.0])
    for _ in range(2):  # on every call: no fences are cached for a small sample
        with pytest.raises(ValueError, match="sample too small for quartile fences"):
            tf.empirical_fences(smp)
        with pytest.raises(ValueError, match="sample too small for quartile fences"):
            tf.outlier_band_counts(smp)


def test_p_eR_no_outliers():
    assert tf.empirical_p_eR(tf.Sample([1.0, 2.0, 3.0, 4.0])) == 0.0


def test_p_eR_outlier_inflates_q3():
    # With X_(5) = 100 the type-6 q3 lands at 4 + 0.5*(100-4) = 52, so the
    # fence moves out to 203.5 and nothing exceeds it.
    smp = tf.Sample([1.0, 2.0, 3.0, 4.0, 100.0])
    fen = tf.empirical_fences(smp)
    assert fen.q1 == pytest.approx(1.5, abs=0.0)
    assert fen.q3 == pytest.approx(52.0, abs=0.0)
    assert tf.empirical_p_eR(smp) == 0.0


def test_p_eR_counts_exceedance():
    # q1 = 2.5, q3 = 7.5, outer fence 22.5: exactly the one big point is out
    smp = tf.Sample([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1000.0])
    assert tf.empirical_p_eR(smp) == pytest.approx(1.0 / 9.0, abs=0.0)
    assert tf.empirical_p_eL(smp) == 0.0


def test_negation_swaps_left_and_right():
    rng = np.random.default_rng(99)
    for _ in range(50):
        smp = tf.Sample(rng.standard_cauchy(size=int(rng.integers(5, 80))))
        neg = tf.Sample(-smp.values)
        assert tf.empirical_p_eL(neg) == tf.empirical_p_eR(smp)
        assert tf.empirical_p_eR(neg) == tf.empirical_p_eL(smp)
        eL, mL, inside, mR, eR = tf.outlier_band_counts(smp)
        neL, nmL, ninside, nmR, neR = tf.outlier_band_counts(neg)
        assert (neL, nmL, ninside, nmR, neR) == (eR, mR, inside, mL, eL)


def test_affine_equivariance():
    rng = np.random.default_rng(4321)
    for _ in range(25):
        values = rng.normal(size=40) * 3.0
        a, b = rng.uniform(0.1, 5.0), rng.uniform(-10.0, 10.0)
        smp = tf.Sample(values)
        transformed = tf.Sample(a * values + b)
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            want = a * tf.empirical_quantile(smp, p) + b
            got = tf.empirical_quantile(transformed, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_band_counts_partition_sample():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(3, 60))
        values = np.round(rng.normal(size=n) * 3.0)  # ties on purpose
        smp = tf.Sample(values)
        counts = tf.outlier_band_counts(smp)
        assert sum(counts) == n
        eL, mL, _, mR, eR = counts
        assert tf.empirical_p_eL(smp) == eL / n
        assert tf.empirical_p_mL(smp) == pytest.approx(mL / n, abs=1e-15)
        assert tf.empirical_p_mR(smp) == pytest.approx(mR / n, abs=1e-15)
        assert tf.empirical_p_eR(smp) == eR / n


ENGINE_SPECS = [
    "pareto(alpha=0.5,delta=1)",
    "frechet(alpha=1.5,mu=0,sigma=2)",
    "hillhorror(alpha=0.5)",
    "t(n=2)",
    "uniform(a=-2,b=5)",
    "exp(lambda=1)",
    "negweibull(alpha=1.5,mu=2,sigma=1)",
    "gumbel(mu=0,gamma=1)",
]


@st.composite
def engine_samples(draw, specs=tuple(ENGINE_SPECS)):
    """Replicate r of grid point g in an m-replicate study, drawn as the engine draws it,
    and in half the cases rounded to integers: ties, some of them on a fence."""
    spec = tf.parse_spec(draw(st.sampled_from(specs)))
    m = draw(st.integers(2, 1000))
    stream = draw(st.integers(0, 200)) * m + draw(st.integers(0, m - 1))
    seed = draw(st.integers(0, 2**64 - 1))
    smp = tf.sample(spec, tf.RngState(seed, stream), draw(st.integers(3, 150)))
    return tf.Sample(np.round(smp.values)) if draw(st.booleans()) else smp


def bracket_ulp(smp, q):
    """ulp of the larger of the two order statistics around q."""
    x = smp.sorted
    j = int(np.searchsorted(x, q, side="right"))
    return math.ulp(max(abs(x[max(j - 1, 0)]), abs(x[min(j, x.size - 1)])))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(smp=engine_samples(ENGINE_SPECS + ["gamma(alpha=0.02,beta=1)"]))  # ties at 0
def test_negation_mirrors_band_counts_property(smp):
    neg = tf.Sample(-smp.values)
    assert tf.outlier_band_counts(neg) == tf.outlier_band_counts(smp)[::-1]
    # Type-6 interpolates with weight g from one side and 1 - g from the
    # other, so a mirrored quartile may differ in its last bits.
    fen, mirrored = tf.empirical_fences(smp), tf.empirical_fences(neg)
    for q, q_neg in ((fen.q1, mirrored.q3), (fen.q3, mirrored.q1)):
        assert abs(q + q_neg) <= 4 * bracket_ulp(smp, q)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(smp=engine_samples(), k=st.integers(-20, 20))
def test_power_of_two_scaling_is_exact_property(smp, k):
    # every value stays a normal float here, so scaling by 2^k rounds nothing
    c = 2.0**k
    scaled = tf.Sample(c * smp.values)
    fen = tf.empirical_fences(smp)
    assert astuple(tf.empirical_fences(scaled)) == tuple(c * v for v in astuple(fen))
    assert tf.outlier_band_counts(scaled) == tf.outlier_band_counts(smp)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    smp=engine_samples(),
    a=st.floats(1e-3, 1e3).filter(lambda a: math.frexp(a)[0] != 0.5),  # not a power of two
    b=st.floats(-1e3, 1e3),
    p=st.floats(0.0, 1.0),
)
def test_affine_equivariance_property(smp, a, b, p):
    # With u = 2^-53 and y = fl(fl(a*x) + b), the type-6 quantile
    # y_lo + g*(y_hi - y_lo) of the transformed sample and fl(fl(a*Q_x) + b)
    # each differ from a*(x_lo + g*(x_hi - x_lo)) + b (exact, same g) by
    # first-order terms in u:
    #   transformed: u*S + u*T from each y_i, 4u*T from the difference and
    #   the product with g (|g*(y_hi - y_lo)| <= 2T), u*T from the sum;
    #   direct: 5u*X from Q_x's own three roundings (X = S / a), u*S from
    #   a*Q_x, u*T from + b;
    # S = a*max(|x_lo|, |x_hi|), T = max(|y_lo|, |y_hi|). In all 7u(S + T),
    # and u*v <= ulp(v), so 7 (ulp(S) + ulp(T)); 8 leaves room for the
    # second-order terms. Knots and clamped p return y_i = fl(fl(a*x_i) + b)
    # itself, exactly.
    y = tf.Sample(a * smp.values + b)
    got = tf.empirical_quantile(y, p)
    want = a * tf.empirical_quantile(smp, p) + b
    # x_lo and x_hi lie within one place of p(n+1) (the knot snapping moves j by one)
    j = int(p * (smp.n + 1))
    window = slice(max(j - 2, 0), min(j + 2, smp.n))
    s = a * float(np.max(np.abs(smp.sorted[window])))
    t = float(np.max(np.abs(y.sorted[window])))
    assert abs(got - want) <= 8 * (math.ulp(s) + math.ulp(t))


def test_empirical_rate_consistent_for_exponential():
    # seed-pinned statistical check: n = 1e5 draws from exp(1)
    smp = tf.sample(tf.parse_spec("exp(lambda=1)"), tf.RngState(2024, 0), 100_000)
    assert abs(tf.empirical_p_eR(smp) - 1.0 / 108.0) <= 0.002


def test_load_sample_plain_and_header(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("1.5\n2.5\n\n3.5\n")
    assert list(tf.load_sample(plain).values) == [1.5, 2.5, 3.5]

    csvfile = tmp_path / "col.csv"
    csvfile.write_text("value\n1.0\n2.0\n")
    assert list(tf.load_sample(csvfile).values) == [1.0, 2.0]


def test_load_sample_strips_a_byte_order_mark(tmp_path):
    # a BOM left on the first value made it fail float() and be dropped as a header
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n4.5\n")
    assert list(tf.load_sample(bom).values) == [1.5, 2.5, 3.5, 4.5]

    header = tmp_path / "bom_header.csv"
    header.write_bytes(b"\xef\xbb\xbfvalue\n1.0\n2.0\n")
    assert list(tf.load_sample(header).values) == [1.0, 2.0]


def test_load_sample_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\noops\n3.0\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        tf.load_sample(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no data"):
        tf.load_sample(empty)
