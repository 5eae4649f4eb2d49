"""Catalog of ten distribution families: CDF, quantile, inverse-transform sampling.

Every family is driven by a :class:`DistributionSpec` value. Closed-form
families evaluate their textbook formulas. The numeric families each use
one scipy.special pair: gamma the regularized incomplete gamma function
(``gammainc``/``gammaincinv``), normal ``ndtr``/``ndtri``, and Student-t
the regularized incomplete beta function (``betainc``/``betaincinv``) in a
central and a tail form, split at the quartiles; each Student-t draw is
inverted once, and each CDF point evaluated once, through the one form its
branch uses (the CDF evaluates both only within 2^-20 of the quartile). The
Hill-horror law is defined by its quantile function; its CDF is the closed
form ``1 - exp(-alpha * W(x / alpha))`` with W the Lambert W function.

scipy.special is imported on the first call that needs one of these
functions, not with this module: it is most of the package's import time and
memory. In a fresh interpreter (2-core x86 VM) ``import tailfence`` takes
0.31 s instead of 0.68 s, and a run that touches only closed-form families
(Hill-horror sampling included) never loads it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .empirical import Sample

FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "uniform": ("a", "b"),
    "exponential": ("lambda",),
    "gamma": ("alpha", "beta"),
    "normal": ("mu", "sigma2"),
    "studentt": ("n",),
    "pareto": ("alpha", "delta"),
    "frechet": ("alpha", "mu", "sigma"),
    "negweibull": ("alpha", "mu", "sigma"),
    "gumbel": ("mu", "gamma"),
    "hillhorror": ("alpha",),
}

_ALIASES = {
    "exp": "exponential",
    "t": "studentt",
    "student": "studentt",
    "gauss": "normal",
    "hh": "hillhorror",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _validate_params(family: str, p: dict[str, float]) -> None:
    for name, value in p.items():
        _require(math.isfinite(value), f"{family}: parameter {name} must be finite, got {value}")
    if family == "uniform":
        _require(p["a"] < p["b"], f"uniform: requires a < b, got a={p['a']}, b={p['b']}")
    elif family == "exponential":
        _require(p["lambda"] > 0, f"exponential: requires lambda > 0, got {p['lambda']}")
    elif family == "gamma":
        _require(p["alpha"] > 0, f"gamma: requires alpha > 0, got {p['alpha']}")
        _require(p["beta"] > 0, f"gamma: requires beta > 0, got {p['beta']}")
    elif family == "normal":
        _require(p["sigma2"] > 0, f"normal: requires sigma2 > 0, got {p['sigma2']}")
    elif family == "studentt":
        _require(
            p["n"] >= 1 and p["n"] == int(p["n"]),
            f"studentt: requires integer n >= 1, got {p['n']}",
        )
    elif family == "pareto":
        _require(p["alpha"] > 0, f"pareto: requires alpha > 0, got {p['alpha']}")
        _require(p["delta"] > 0, f"pareto: requires delta > 0, got {p['delta']}")
    elif family in ("frechet", "negweibull"):
        _require(p["alpha"] > 0, f"{family}: requires alpha > 0, got {p['alpha']}")
        _require(p["sigma"] > 0, f"{family}: requires sigma > 0, got {p['sigma']}")
    elif family == "gumbel":
        _require(p["gamma"] > 0, f"gumbel: requires gamma > 0, got {p['gamma']}")
    elif family == "hillhorror":
        _require(p["alpha"] > 0, f"hillhorror: requires alpha > 0, got {p['alpha']}")


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged family identifier plus validated parameter record."""

    family: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        name = self.family.strip().lower()
        name = _ALIASES.get(name, name)
        if name not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}")
        expected = FAMILY_PARAMS[name]
        given = dict(self.params)
        for key in given:
            if key not in expected:
                raise ValueError(f"unknown parameter {key!r} for family {name}")
        missing = [key for key in expected if key not in given]
        if missing:
            raise ValueError(f"{name}: missing parameter {missing[0]!r}")
        params = {key: float(given[key]) for key in expected}
        _validate_params(name, params)
        object.__setattr__(self, "family", name)
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v:.12g}" for k, v in self.params.items())
        return f"{self.family}({inner})"


_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$")


def parse_spec(text: str) -> DistributionSpec:
    """Parse the compact text form ``family(name=value,...)``."""
    match = _SPEC_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse distribution spec {text!r}; expected family(name=value,...)")
    family, body = match.group(1), match.group(2)
    params: dict[str, float] = {}
    if body:
        for token in body.split(","):
            if "=" not in token:
                raise ValueError(f"cannot parse parameter {token.strip()!r}; expected name=value")
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            try:
                value = float(raw.strip())
            except ValueError:
                raise ValueError(f"invalid number {raw.strip()!r} for parameter {key!r}") from None
            if key in params:
                raise ValueError(f"duplicate parameter {key!r}")
            params[key] = value
    return DistributionSpec(family, params)


@dataclass(frozen=True)
class RngState:
    """Seed plus replicate stream index; fully determines a sample."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        _require(0 <= self.seed < 2**64, f"seed must be a 64-bit unsigned integer, got {self.seed}")
        _require(self.stream >= 0, f"stream must be non-negative, got {self.stream}")


# --- numeric families ---------------------------------------------------------

@functools.cache
def _special():
    # Importing scipy.special costs ~0.3 s and ~25 MB of resident memory (2-core
    # x86 VM), more than the rest of the package, and the closed-form families
    # never need it. The cache is the function's own, so the first numeric call
    # binds no module global.
    from scipy import special

    return special


@functools.lru_cache(maxsize=16)
def _t_quartile_band(df: float) -> tuple[float, float]:
    # |x| bounds 2^-20 (relative) either side of the upper quartile q. The
    # density times q exceeds 0.15 there for every df, so outside the band the
    # central mass is more than 1.4e-7 from 1/4, far beyond betainc's
    # rounding: the computed mass and |x| fall on the same side of the split.
    q = float(_t_ppf(df, 0.75))
    return q * (1.0 - 2.0**-20), q * (1.0 + 2.0**-20)


def _t_cdf(df, x):
    # Two incomplete-beta forms, split at the quartiles: 0.5 -/+ the central
    # mass P(0 < T < |x|) while that is at most 1/4, else the tail mass
    # P(T > |x|), so a small tail probability never comes from 0.5 - central.
    # Each element evaluates only the form it uses, except in a thin band
    # around the quartile, where the computed central mass decides the form.
    betainc = _special().betainc
    lo, hi = _t_quartile_band(df)
    half = 0.5 * df
    x = np.asarray(x, float)
    if x.ndim == 0:
        # A scalar call (every public cdf) picks its form in Python: on a 0-d
        # array the per-element selection below costs more than the betainc
        # call it saves.
        t = float(x)
        tt = t * t
        if abs(t) <= lo or (abs(t) < hi and 0.5 * betainc(0.5, half, tt / (df + tt)) <= 0.25):
            v = 0.5 * betainc(0.5, half, tt / (df + tt))
            return 0.5 + v if t >= 0 else 0.5 - v
        v = 0.5 * betainc(half, 0.5, df / (df + tt))
        return 1.0 - v if t >= 0 else v
    xx = x * x
    ax = np.abs(x)
    inner = ax <= lo
    band = (lo < ax) & (ax < hi)
    if band.any():
        xb = xx[band]
        inner[band] = 0.5 * betainc(0.5, half, xb / (df + xb)) <= 0.25
    # one betainc call on per-element (a, b, y)
    v = 0.5 * betainc(
        np.where(inner, 0.5, half),
        np.where(inner, half, 0.5),
        np.where(inner, xx, df) / (df + xx),
    )
    upper = np.where(inner, 0.5 + v, 1.0 - v)
    lower = np.where(inner, 0.5 - v, v)
    return np.where(x >= 0, upper, lower)


def _t_ppf(df, p):
    # Inverts the two _t_cdf forms with the same split at the quartiles. Each
    # element goes through only the form its branch uses: one betaincinv call
    # on per-element (a, b, y), the central form where |2p - 1| <= 1/2.
    p = np.asarray(p, float)
    d = 2.0 * p - 1.0
    mass = np.abs(d)  # P(|T| < |x|)
    central = mass <= 0.5
    half = 0.5 * df
    # The central form inverts mass, the tail form 2 * min(p, 1 - p) (1 - mass
    # in exact arithmetic); in float64 too, each branch's is the smaller one.
    w = _special().betaincinv(
        np.where(central, 0.5, half),
        np.where(central, half, 0.5),
        np.minimum(mass, 2.0 * np.minimum(p, 1.0 - p)),
    )
    # x^2 = df * w / (1 - w) in the central form, df * (1 - w) / w in the tail
    # form; picking numerator and denominator first never divides by w = 0.
    v = 1.0 - w
    num, den = np.where(central, (w, v), (v, w))
    return np.copysign(np.sqrt(df * num / den), d)  # d < 0 iff p < 1/2; +0.0 at 1/2


def _hh_quantile(alpha, p):
    p = np.asarray(p, float)
    with np.errstate(over="ignore"):
        return np.power(1.0 - p, -1.0 / alpha) * (-np.log1p(-p))


# --- vectorized CDF / quantile dispatch --------------------------------------

def _power_in_sigma_units(dx, sigma, power):
    # max(dx / sigma, 0) ** power. Where dx / sigma overflows (sigma < 1, dx
    # finite), it is dx ** power * sigma ** -power, evaluated through logs.
    z = np.maximum(dx / sigma, 0.0)
    out = np.power(z, power)
    if sigma < 1.0:  # else z overflows only where dx does, and out is already right
        over = z == math.inf
        if np.count_nonzero(over):  # cheaper than over.any() on a numpy scalar
            out = np.where(over, np.exp(power * (np.log(dx) - math.log(sigma))), out)
    return out


# np.errstate as a decorator costs about half of a `with` block per call
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cdf_array(spec: DistributionSpec, x) -> np.ndarray:
    x = np.asarray(x, float)
    p = spec.params
    family = spec.family
    if family == "uniform":
        return np.clip((x - p["a"]) / (p["b"] - p["a"]), 0.0, 1.0)
    if family == "exponential":
        return np.where(x > 0, -np.expm1(-p["lambda"] * np.maximum(x, 0.0)), 0.0)
    if family == "gamma":
        return _special().gammainc(p["alpha"], p["beta"] * np.maximum(x, 0.0))
    if family == "normal":
        return _special().ndtr((x - p["mu"]) / math.sqrt(p["sigma2"]))
    if family == "studentt":
        return _t_cdf(p["n"], x)
    if family == "pareto":
        safe = np.maximum(x, p["delta"])
        return np.where(x < p["delta"], 0.0, -np.expm1(p["alpha"] * np.log(p["delta"] / safe)))
    if family == "frechet":
        zpow = _power_in_sigma_units(x - p["mu"], p["sigma"], -p["alpha"])
        return np.where(x > p["mu"], np.exp(-zpow), 0.0)
    if family == "negweibull":
        zpow = _power_in_sigma_units(-(x - p["mu"]), p["sigma"], p["alpha"])
        return np.where(x < p["mu"], np.exp(-zpow), 1.0)
    if family == "gumbel":
        return np.exp(-np.exp(-(x - p["mu"]) / p["gamma"]))
    if family == "hillhorror":
        # Q(p) = u * exp(u / alpha) with u = -log(1 - p), so u = alpha * W(x / alpha).
        w = _special().lambertw(np.maximum(x, 0.0) / p["alpha"]).real
        return -np.expm1(-p["alpha"] * w)
    raise AssertionError(f"unhandled family {family}")


@np.errstate(over="ignore")
def _quantile_array(spec: DistributionSpec, prob) -> np.ndarray:
    prob = np.asarray(prob, float)
    p = spec.params
    family = spec.family
    if family == "uniform":
        return p["a"] + prob * (p["b"] - p["a"])
    if family == "exponential":
        return -np.log1p(-prob) / p["lambda"]
    if family == "gamma":
        return _special().gammaincinv(p["alpha"], prob) / p["beta"]
    if family == "normal":
        return p["mu"] + math.sqrt(p["sigma2"]) * _special().ndtri(prob)
    if family == "studentt":
        return _t_ppf(p["n"], prob)
    if family == "pareto":
        return p["delta"] * np.exp(-np.log1p(-prob) / p["alpha"])
    if family == "frechet":
        return p["mu"] + p["sigma"] * np.power(-np.log(prob), -1.0 / p["alpha"])
    if family == "negweibull":
        return p["mu"] - p["sigma"] * np.power(-np.log(prob), 1.0 / p["alpha"])
    if family == "gumbel":
        return p["mu"] - p["gamma"] * np.log(-np.log(prob))
    if family == "hillhorror":
        return _hh_quantile(p["alpha"], prob)
    raise AssertionError(f"unhandled family {family}")


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X <= x) for the given spec; total on finite x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return float(_cdf_array(spec, x))


def quantile(spec: DistributionSpec, p: float) -> float:
    """Generalized inverse inf{x : F(x) >= p} for p in (0,1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return float(_quantile_array(spec, p))


# --- replicate streams ----------------------------------------------------------
#
# Stream (seed, stream) is PCG64 seeded by SeedSequence(seed, spawn_key=(stream,)).
# Building numpy's SeedSequence costs ~20 us, mostly Python-level overhead and
# as much as the rest of a replicate's draw, so its hash (numpy's
# bit_generator.pyx) is computed here, for an aligned block of 1024 streams
# at a time. The pool is mixed from the seed once per seed, with Python ints.
# Within a block only the stream's low 32-bit word varies (1024 divides
# 2^32), so the stream's word count, and with it every hash constant, is the
# same for the whole block: the low word is a uint64 array of 1024 values,
# the higher words are Python ints, and one pass of 32-bit arithmetic on
# uint64 arrays gives the four 64-bit words that seed PCG64 for all 1024
# streams. Every operand is a uint64 array or a non-negative Python int
# below 2^64, which promotes to uint64 under both the legacy and the NEP 50
# rules; a numpy uint64 scalar never meets a Python int. test_distributions
# pins the words to numpy's SeedSequence.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_BLOCK = 1024


def _words32(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    # value is a 32-bit Python int or a uint64 array of 32-bit values; the
    # product of two 32-bit values fits in 64 bits, so nothing wraps early.
    value = value ^ hash_const  # not ^=, which would write into a caller's array
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    # the subtraction may wrap modulo 2^64 on arrays; the mask keeps its low 32 bits
    mixed = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return mixed ^ (mixed >> 16)


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's 4-word pool after the seed's words, and its hash constant."""
    words = _words32(seed)  # at most two: RngState keeps seed < 2^64
    words += [0] * (4 - len(words))  # padded to the pool size, as with a spawn key
    pool = []
    hash_const = _INIT_A
    for word in words:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    return tuple(pool), hash_const


@functools.lru_cache(maxsize=4)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of streams block*1024 ... block*1024 + 1023: a read-only (1024, 4) array."""
    pool, hash_const = _seed_pool(seed)
    pool = list(pool)
    first = block * _BLOCK
    low = first & _MASK32
    words = [np.arange(low, low + _BLOCK, dtype=np.uint64), *_words32(first)[1:]]
    for word in words:
        for dst in range(4):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight 32-bit words, read as four
    # little-endian 64-bit words
    out = []
    hash_const = _INIT_B
    for i in range(8):
        value, hash_const = _hashmix(pool[i & 3], hash_const, _MULT_B)
        out.append(value)
    seeds = np.stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)], axis=1)
    seeds.flags.writeable = False
    return seeds


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """SeedSequence(seed, spawn_key=(stream,)) reduced to the PCG64 seed words."""

    __slots__ = ("words",)

    def __init__(self, rng: RngState):
        block, row = divmod(rng.stream, _BLOCK)
        self.words = _seed_block(rng.seed, block)[row]

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the four 64-bit words that seed PCG64 are available")
        return self.words


def _generator(rng: RngState) -> np.random.PCG64:
    return np.random.PCG64(_StreamSeed(rng))


_SHIFT = np.uint64(11)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _uniform_open(bitgen: np.random.PCG64, count: int) -> np.ndarray:
    # The top 53 bits k of each raw 64-bit word are the integers that
    # Generator.integers(0, 2**53) draws (Lemire's method never rejects for a
    # power-of-two range), without building a Generator. (k + 0.5) / 2^53
    # keeps u off 0, but k + 0.5 rounds to 2^53 for the top k (1 - 2^-54 is
    # not representable), so clamp: u lies in [2^-54, 1 - 2^-53] and every
    # quantile stays finite.
    words = bitgen.random_raw(count)
    words >>= _SHIFT
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


def sample(spec: DistributionSpec, rng: RngState, count: int) -> Sample:
    """Draw ``count`` i.i.d. observations by inverse transform.

    Stream ``rng`` is a SeedSequence(seed, spawn_key=(stream,)) feeding
    PCG64, so identical (seed, stream) pairs produce identical samples
    regardless of execution order, and replicate streams can be drawn in any
    order or process. The uniforms are the raw PCG64 words mapped to
    [2^-54, 1 - 2^-53]; no ``Generator`` is built.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = _uniform_open(_generator(rng), count)
    return Sample(_quantile_array(spec, u))
