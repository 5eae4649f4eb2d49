"""Catalog of ten distribution families: CDF, quantile, inverse-transform sampling.

Every family is driven by a :class:`DistributionSpec` value. The CDF and
quantile formulas take either a spec, whose parameters are floats, or a
:class:`FamilyColumns`, which holds the specs of one family with each
parameter as a per-spec column, so a family's specs are evaluated in one
call; row i of a column call equals spec i's own call bit for bit.
Closed-form families evaluate their textbook formulas. The numeric families each use
one scipy.special pair: gamma the regularized incomplete gamma function
(``gammainc``/``gammaincinv``), normal ``ndtr``/``ndtri``, and Student-t
the regularized incomplete beta function (``betainc``/``betaincinv``) in a
central and a tail form, split at the quartiles; each Student-t draw is
inverted once, through the one form its branch uses, and the CDF evaluates
both forms and takes the one that the computed central mass picks. The
Hill-horror law is defined by its quantile function; its CDF is the closed
form ``1 - exp(-alpha * W(x / alpha))`` with W the Lambert W function.

scipy.special is imported on the first call that needs one of these
functions, not with this module: it is most of the package's import time and
memory. In a fresh interpreter (2-core x86 VM) ``import tailfence`` takes
0.31 s instead of 0.68 s, and a run that touches only closed-form families
(Hill-horror sampling included) never loads it.

Sampling runs the inverse transform once over a batch of draws. For gamma
and Student-t, whose inversions are iterative and release the GIL, a batch
of at least 2048 draws is split into contiguous blocks, one per CPU of the
process's share (a worker of ``run_study(config, workers=k)`` gets 1/k of
them), transformed on threads; every step is elementwise, so no byte depends
on the split. The threads are one pool, built once per process on its first
split (``concurrent.futures`` is imported then); its idle threads use no
CPU, and a forked child clears it and builds its own.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .empirical import Sample, sort_finite_rows

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

# The number format of every CSV: 12 significant digits. ``NUMBER_FORMAT % v``
# is ``f"{v:.12g}"`` for every float (tests/test_cli.py checks it).
NUMBER_FORMAT = "%.12g"

# Per family, the ``%`` template of ``DistributionSpec.param_text``: its
# parameters' values, in the family's order, fill it.
_PARAM_TEXT = {
    family: ",".join(f"{name}={NUMBER_FORMAT}" for name in names) for family, names in FAMILY_PARAMS.items()
}

_ALIASES = {
    "exp": "exponential",
    "t": "studentt",
    "student": "studentt",
    "gauss": "normal",
    "hh": "hillhorror",
}


# Parameters that must be positive, in every family that has them.
_POSITIVE = frozenset({"lambda", "alpha", "beta", "sigma2", "delta", "sigma", "gamma"})


def _validate_params(family: str, p: dict[str, float]) -> None:
    # Plain `if` tests: each message is formatted only when its check fails.
    for name, value in p.items():
        if not math.isfinite(value):
            raise ValueError(f"{family}: parameter {name} must be finite, got {value}")
    for name, value in p.items():
        if name in _POSITIVE and not value > 0:
            raise ValueError(f"{family}: requires {name} > 0, got {value}")
    if family == "uniform" and not p["a"] < p["b"]:
        raise ValueError(f"uniform: requires a < b, got a={p['a']}, b={p['b']}")
    # Above n = 10^6 the t CDF drifts (relative error 3e-10 at 10^7 against
    # mpmath; cdf(2) = 0.5 at 10^17); the normal family is the limit.
    if family == "studentt" and not (1 <= p["n"] <= 10**6 and p["n"] == int(p["n"])):
        raise ValueError(f"studentt: requires integer n with 1 <= n <= 10^6, got {p['n']}")


def checked_int(value, what: str) -> int:
    """``value`` as a Python int; ValueError unless it is an int or a numpy integer.

    bool is refused: a flag passed as a count or a seed is a mistake.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


class _Params(dict):
    """A spec's validated parameters: a dict that refuses every change.

    A dict, so ``json`` writes it and ``==`` compares it as before; unlike
    ``types.MappingProxyType`` it hashes (by its items) and pickles.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("DistributionSpec params are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _Params, (dict(self),)


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged family identifier plus validated, read-only parameter record."""

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # Each of the family's names is looked up once, and a plain float
        # (parse_spec gives nothing else) skips the type check and float().
        family, given = self.family, self.params
        name = family.strip().lower() if isinstance(family, str) else None
        name = _ALIASES.get(name, name)
        expected = FAMILY_PARAMS.get(name)
        if expected is None:
            raise ValueError(f"unknown family {family!r}")
        if not (isinstance(given, dict) or isinstance(given, Mapping)):  # a dict skips the slower ABC check
            raise ValueError(f"{name}: params must be a mapping of names to numbers, got {given!r}")
        params = {}
        for key in expected:
            # `in` first: a lookup would fill in a defaultdict's or a Counter's missing key
            if key not in given:
                break
            params[key] = given[key]
        if len(params) != len(expected) or len(given) != len(expected):
            for key in given:
                if key not in expected:
                    raise ValueError(f"unknown parameter {key!r} for family {name}")
            missing = [key for key in expected if key not in given]
            raise ValueError(f"{name}: missing parameter {missing[0]!r}")
        for key, value in params.items():
            if type(value) is float:
                continue
            try:
                # a flag given as a number is a mistake, and float() would parse text
                if isinstance(value, (bool, np.bool_, str, bytes, bytearray, memoryview)):
                    raise TypeError
                params[key] = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name}: parameter {key} must be a number, got {value!r}") from None
        _validate_params(name, params)
        # a frozen instance's fields, written past its __setattr__ (4x cheaper than object.__setattr__)
        fields = self.__dict__
        fields["family"] = name
        fields["params"] = _Params(params)

    def param_text(self) -> str:
        """The parameters as ``name=value,...``, each value to 12 significant digits."""
        return _PARAM_TEXT[self.family] % tuple(self.params.values())

    def __str__(self) -> str:
        return f"{self.family}({self.param_text()})"


@dataclass(frozen=True)
class FamilyColumns:
    """Specs of one family with each parameter as an (n, 1) column.

    The CDF and quantile formulas take it in place of a spec: a column
    broadcasts against an (n, m) or (m,) argument, so row i of the result is
    spec i's, bit for bit.
    """

    family: str
    params: dict[str, np.ndarray]

    @classmethod
    def of(cls, specs: list[DistributionSpec]) -> FamilyColumns:
        """The columns of ``specs``, which must all be of one family."""
        family = specs[0].family
        names = FAMILY_PARAMS[family]
        values = np.array([[spec.params[name] for name in names] for spec in specs])
        return cls(family, {name: values[:, j : j + 1] for j, name in enumerate(names)})


_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$")


def parse_spec(text: str) -> DistributionSpec:
    """Parse the compact text form ``family(name=value,...)``."""
    match = _SPEC_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse distribution spec {text!r}; expected family(name=value,...)")
    family, body = match.groups()
    params: dict[str, float] = {}
    if body:
        for token in body.split(","):
            key, equals, raw = token.partition("=")
            if not equals:
                raise ValueError(f"cannot parse parameter {token.strip()!r}; expected name=value")
            key = key.strip().lower()
            try:
                # not float(raw): float() refuses the separators \x1c-\x1f that strip() removes
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
        seed, stream = checked_int(self.seed, "seed"), checked_int(self.stream, "stream")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if stream < 0:
            raise ValueError(f"stream must be non-negative, got {stream}")


def _libm(log, x: np.ndarray, rows: np.ndarray, fill: float = math.nan) -> np.ndarray:
    """``log`` (``math.log`` or ``math.log1p``) of x on ``rows``, ``fill`` on the others.

    libm on Python floats, not np.log, whose SIMD kernels may differ from libm
    in the last bit: the results do not depend on the host's numpy build.
    """
    logs = np.full(x.shape, fill)
    logs[rows] = list(map(log, x[rows].tolist()))
    return logs


# --- numeric families ---------------------------------------------------------

@functools.cache
def _special():
    # Importing scipy.special costs ~0.3 s and ~25 MB of resident memory (2-core
    # x86 VM), more than the rest of the package, and the closed-form families
    # never need it. The cache is the function's own, so the first numeric call
    # binds no module global.
    from scipy import special

    return special


def _t_cdf(df, x):
    # Two incomplete-beta forms: 0.5 -/+ the central mass P(0 < T < |x|) where
    # the computed central mass is at most 1/4, else the tail mass P(T > |x|),
    # so a small tail probability never comes from 0.5 - central.
    betainc = _special().betainc
    x = np.asarray(x, float)
    xx = x * x
    central = 0.5 * betainc(0.5, 0.5 * df, xx / (df + xx))
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + xx))
    inner = central <= 0.25
    upper = np.where(inner, 0.5 + central, 1.0 - tail)
    lower = np.where(inner, 0.5 - central, tail)
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
    smaller = np.minimum(p, 1.0 - p)
    # The central form inverts mass, the tail form 2 * min(p, 1 - p) (1 - mass
    # in exact arithmetic); in float64 too, each branch's is the smaller one.
    w = _special().betaincinv(
        np.where(central, 0.5, half),
        np.where(central, half, 0.5),
        np.minimum(mass, 2.0 * smaller),
    )
    # x^2 = df * w / (1 - w) in the central form, df * (1 - w) / w in the tail
    # form; picking numerator and denominator first never divides by the
    # central form's w = 0 at p = 1/2.
    v = 1.0 - w
    num = np.where(central, w, v)
    den = np.where(central, v, w)
    # Only t(1) and t(2) reach a subnormal or 0 tail-form w: below p ~ 5e-155
    # and ~ 5e-309 (t(3) keeps w > 1e-216 down to p = 5e-324). The df test
    # (a bool for a float df, a bool column for a df column) spares the
    # sampler's other t-families the array check.
    small = df < 3
    if (small if isinstance(small, bool) else small.any()) and (tiny := (den < 2.0**-1022) & small).any():
        # There df * (1 - w) / w overflows or divides by 0. x comes from the
        # leading tail term instead, min(p, 1 - p) = w^(df/2) / (df * B(df/2, 1/2))
        # with x^2 = df / w, exact to a relative O(w).
        log_df = _libm(math.log, np.broadcast_to(df, tiny.shape), tiny)
        half_log_w = (log_df + _special().betaln(half, 0.5) + np.log(smaller)) / df
        x = np.where(tiny, np.sqrt(df) * np.exp(-half_log_w), np.sqrt(df * num / np.where(tiny, 1.0, den)))
    else:
        x = np.sqrt(df * num / den)
    return np.copysign(x, d)  # d < 0 iff p < 1/2; +0.0 at 1/2


# --- vectorized CDF / quantile dispatch --------------------------------------

def _power(x, exponent):
    """``np.power(x, exponent)`` for a float exponent or an (n, 1) exponent column.

    A float exponent of -1, 0.5 or 2 takes a fast path in np.power (1/x,
    sqrt(x) and x*x in numpy 2), whose last bit may differ from that of the
    pow kernel that a column takes on every row. So the rows of a column
    with one of those exponents are raised again with a float exponent: row
    i of the result is what np.power gives for row i's float exponent.
    """
    out = np.power(x, exponent)
    if isinstance(exponent, float):
        return out
    for i, value in enumerate(exponent[:, 0].tolist()):
        if value in (-1.0, 0.5, 2.0):
            out[i] = np.power(np.broadcast_to(x, out.shape)[i], value)
    return out


def _power_in_sigma_units(dx, sigma, power):
    # max(dx / sigma, 0) ** power. Where dx / sigma overflows (sigma < 1, dx
    # finite), it is dx ** power * sigma ** -power, evaluated through logs.
    # With sigma >= 1, z overflows only where dx does, and out is already right.
    z = np.maximum(dx / sigma, 0.0)
    out = _power(z, power)
    over = (z == math.inf) & (sigma < 1.0)
    if np.count_nonzero(over):  # cheaper than over.any() on a numpy scalar
        log_sigma = _libm(math.log, np.broadcast_to(sigma, over.shape), over)
        out = np.where(over, np.exp(power * (np.log(dx) - log_sigma)), out)
    return out


# np.errstate as a decorator costs about half of a `with` block per call
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cdf_array(spec: DistributionSpec | FamilyColumns, x) -> np.ndarray:
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
        return _special().ndtr((x - p["mu"]) / np.sqrt(p["sigma2"]))
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
def _quantile_array(spec: DistributionSpec | FamilyColumns, prob) -> np.ndarray:
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
        return p["mu"] + np.sqrt(p["sigma2"]) * _special().ndtri(prob)
    if family == "studentt":
        return _t_ppf(p["n"], prob)
    if family == "pareto":
        # log1p(-p) / -alpha is -(log1p(-p) / alpha) bit for bit, one ufunc fewer
        if not prob.ndim or isinstance(spec, FamilyColumns):
            # a scalar call has no temporary worth saving (the in-place steps
            # made a scalar quantile take 5.7 us against 2.0 us), and columns
            # broadcast against prob
            return p["delta"] * np.exp(np.log1p(-prob) / -p["alpha"])
        # a spec's batch: every step writes into one fresh array, so no temporary is live
        x = np.negative(prob)
        np.log1p(x, x)
        np.divide(x, -p["alpha"], x)
        np.exp(x, x)
        return np.multiply(p["delta"], x, x)
    if family == "frechet":
        return p["mu"] + p["sigma"] * _power(-np.log(prob), -1.0 / p["alpha"])
    if family == "negweibull":
        return p["mu"] - p["sigma"] * _power(-np.log(prob), 1.0 / p["alpha"])
    if family == "gumbel":
        return p["mu"] - p["gamma"] * np.log(-np.log(prob))
    if family == "hillhorror":
        return _power(1.0 - prob, -1.0 / p["alpha"]) * (-np.log1p(-prob))
    raise AssertionError(f"unhandled family {family}")


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X <= x) for the given spec; total on finite x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return _cdf_array(spec, [x]).item()


def quantile(spec: DistributionSpec, p: float) -> float:
    """Generalized inverse inf{x : F(x) >= p} for p in (0,1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return float(_quantile_array(spec, p))


# --- replicate streams ----------------------------------------------------------
#
# Stream (seed, stream) is PCG64 seeded by SeedSequence(seed, spawn_key=(stream,)).
# Building numpy's SeedSequence for each stream costs ~20 us, mostly
# Python-level overhead and as much as the rest of a replicate's draw. So
# numpy gives only the seed's pool (SeedSequence(seed).pool); the spawn-key
# stage of the hash and generate_state (numpy's bit_generator.pyx) run here,
# for an aligned block of 1024 streams at a time.
# Each hashmix step XORs its value with the current hash constant,
# multiplies the constant by a fixed factor and the value by the new
# constant, so the constants form a chain that no value changes, computed
# up front (_hash_chain). Within a block only the stream's low 32-bit word
# varies (1024 divides 2^32), so the stream's word count, and with it every
# constant, is the same for the whole block: one pass of uint32 arithmetic
# over a (pool word, stream) array, which wraps modulo 2^32 as the hash
# does, gives the four 64-bit words that seed PCG64 for all 1024 streams.
# Every constant is a np.uint32 and every operation has an array operand,
# so numpy 1.24 and numpy 2 promote alike and no scalar overflow warns.
# test_distributions pins the words to numpy's SeedSequence. A grid point
# slices its streams' words out of the blocks once (_stream_words).
#
# Seeding a PCG64 from four words takes its (state, inc) to a 128-bit value
# that the words fix (_seeded_states), computed here for a whole block too
# (_state_block). A draw call builds one PCG64 by _generator from its first
# row's words, which draws that row, and, where _state_layout found where
# that PCG64 keeps its (state, inc), writes each later row's seeded state
# there before drawing the row: a 32-byte copy in place of a PCG64 build per
# row. Elsewhere each row's PCG64 is built from its stream's four words by
# _generator, the reference path. Either way a numpy Generator over the
# row's PCG64 fills the row's slot of the call's one float64 run in place
# (Generator.random(out=row), (w >> 11) * 2^-53 for each raw word w).

_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_BLOCK = 1024


def _words32(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_chain(init: int, mult: int, start: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of hashmix steps ``start`` ... ``start + steps - 1``: (XOR, multiplier) (steps, 1) uint32 columns.

    Step s XORs with init * mult^s and multiplies by init * mult^(s+1), mod 2^32.
    """
    chain = np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(start, start + steps + 1)], np.uint32)
    return chain[:-1, None], chain[1:, None]


# generate_state(4, uint64): eight steps, the output's 32-bit word i from pool word i % 4
_OUT_XOR, _OUT_MULT = _hash_chain(_INIT_B, _MULT_B, 0, 8)


@functools.cache
def _spawn_chain(words: int) -> tuple[np.ndarray, np.ndarray]:
    """The (XOR, multiplier) constants of a spawn key of ``words`` 32-bit words: (words, 4, 1) each.

    They follow the pool's 16 mixing steps, whatever the seed, one step per
    (key word, pool word).
    """
    xor, mult = _hash_chain(_INIT_A, _MULT_A, 16, 4 * words)
    return xor.reshape(words, 4, 1), mult.reshape(words, 4, 1)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ (mixed >> _SHIFT)


@functools.lru_cache(maxsize=4)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of streams block*1024 ... block*1024 + 1023: a read-only (1024, 4) array."""
    low, *high = _words32(block * _BLOCK)
    xor, mult = _spawn_chain(1 + len(high))
    # one row per pool word, one column per stream
    streams = np.arange(low, low + _BLOCK, dtype=np.uint32)
    pool = _mix(np.random.SeedSequence(seed).pool[:, None], _hashmix(streams, xor[0], mult[0]))
    for hashed in _hashmix(np.array(high, np.uint32)[:, None, None], xor[1:], mult[1:]):
        pool = _mix(pool, hashed)
    out = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MULT)
    # each stream's eight 32-bit words, read as four little-endian 64-bit
    # words, then in native order (a copy on a big-endian host only)
    seeds = np.empty((_BLOCK, 4), "<u8")
    seeds.view("<u4")[...] = out.T
    seeds = seeds.astype(np.uint64, copy=False)
    seeds.flags.writeable = False
    return seeds


def _block_rows(per_block, seed: int, streams: range) -> np.ndarray:
    """The rows of consecutive streams in the per-block arrays of ``per_block(seed, block)``.

    Sliced out of each hash block the range meets, so a range that crosses a
    block edge costs one slice per block, and a range inside one block is a
    read-only view of it.
    """
    if streams.step != 1:
        raise ValueError(f"streams must be consecutive, got {streams}")
    parts = []
    first, stop = streams.start, streams.stop
    while first < stop:
        block, row = divmod(first, _BLOCK)
        take = min(stop - first, _BLOCK - row)
        parts.append(per_block(seed, block)[row : row + take])
        first += take
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty((0, 4), np.uint64)


def _stream_words(seed: int, streams: range) -> np.ndarray:
    """PCG64 seed words of consecutive streams: a (len(streams), 4) array."""
    return _block_rows(_seed_block, seed, streams)


# numpy's PCG64 (XSL-RR 128/64) multiplier, as its low and high 64-bit halves
_PCG_MULT_LO, _PCG_MULT_HI = 0x4385DF649FCCF645, 0x2360ED051FC65DA4


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)


def _seeded_states(words: np.ndarray, order=(0, 1, 2, 3)) -> np.ndarray:
    """The (state, inc) of the PCG64 that each row of seed words seeds: an (n, 4) array.

    Each row holds the 64-bit halves (state lo, state hi, inc lo, inc hi),
    taken in ``order`` (one of ``_WORD_ORDERS``). numpy
    seeds PCG64 with initstate = w0 * 2^64 + w1 and inc = 2 * (w2 * 2^64 + w3)
    + 1, and steps twice around adding initstate, so the seeded state is
    (inc + initstate) * MULT + inc mod 2^128. Every operand is a uint64
    array or a Python int below 2^64, which promotes to uint64 under both the
    legacy and the NEP 50 rules; the uint64 sums wrap silently, and each
    carry is a comparison. The words are read as contiguous columns, and
    each half is written straight into its column of the result.
    """
    w0, w1, w2, w3 = np.ascontiguousarray(words.T)
    inc_lo, inc_hi = w3 << 1 | 1, w2 << 1 | w3 >> 63
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    product_lo = lo * _PCG_MULT_LO
    product_hi = _mul_high(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    state_lo = product_lo + inc_lo
    state_hi = product_hi + inc_hi + (state_lo < product_lo)
    halves = state_lo, state_hi, inc_lo, inc_hi
    states = np.empty((len(words), 4), np.uint64)
    for column, half in enumerate(order):
        states[:, column] = halves[half]
    return states


@functools.lru_cache(maxsize=4)
def _state_block(seed: int, block: int) -> np.ndarray:
    """Seeded (state, inc) of streams block*1024 ... block*1024 + 1023 in PCG64 memory order: a read-only (1024, 4) array."""
    states = _seeded_states(_seed_block(seed, block), _state_layout()[1])
    states.flags.writeable = False
    return states


def _stream_states(seed: int, streams: range) -> np.ndarray:
    """Seeded (state, inc) of consecutive streams in PCG64 memory order: a (len(streams), 4) array."""
    return _block_rows(_state_block, seed, streams)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """SeedSequence(seed, spawn_key=(stream,)) reduced to its four PCG64 seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself, which needs no np.dtype() call
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only the four 64-bit words that seed PCG64 are available")
        return self.words


def _generator(words: np.ndarray) -> np.random.PCG64:
    """The PCG64 of one stream, from its four seed words (a row of ``_stream_words``)."""
    return np.random.PCG64(_StreamSeed(words))


# the orders in which a PCG64 may keep the 64-bit halves of (state, inc):
# (lo, hi) for a native 128-bit integer on a little-endian host, (hi, lo)
# for numpy's emulated 128-bit struct
_WORD_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2))


def _read_words(address: int, count: int) -> list[int]:
    """``count`` native 64-bit words at ``address``."""
    return list((ctypes.c_uint64 * count).from_address(address))


def _state_memory(address: int) -> memoryview:
    """The 32 bytes at ``address`` as a writable byte view."""
    return memoryview((ctypes.c_char * 32).from_address(address)).cast("B")


@functools.cache
def _state_layout() -> tuple[int, tuple[int, ...]] | None:
    """Where a PCG64 keeps its (state, inc): (offset from ``id``, word order), or None.

    numpy documents ``PCG64.ctypes.state_address``, the address of the
    generator's state struct, whose first field points to its (state, inc).
    Each address is read only where it lies inside the generator object.
    The four words found there must be the generator's documented
    ``state`` in one of ``_WORD_ORDERS``, and once a second stream's
    ``_seeded_states`` are written there, the generator must draw what
    that stream's own PCG64 draws. Anything else, or an interpreter whose
    ``id`` is not an address, gives None: each row then builds its own
    PCG64. Run once per process; the cache is the function's own. The
    probe builds its PCG64s itself, not by ``_generator``, so a replaced
    ``_generator`` cannot decide what every later draw does.
    """
    if sys.implementation.name != "cpython":
        return None
    words = _stream_words(0, range(2))
    bitgen = np.random.PCG64(_StreamSeed(words[0]))
    start = id(bitgen)
    end = start + sys.getsizeof(bitgen)
    address = bitgen.ctypes.state_address
    if not start <= address <= end - 8:
        return None
    pointer = _read_words(address, 1)[0]
    if not start <= pointer <= end - 32:
        return None
    seeded = bitgen.state["state"]
    halves = [value >> shift & _MASK64 for value in (seeded["state"], seeded["inc"]) for shift in (0, 64)]
    found = _read_words(pointer, 4)
    order = next((order for order in _WORD_ORDERS if found == [halves[i] for i in order]), None)
    if order is None:
        return None
    expected = np.random.PCG64(_StreamSeed(words[1])).random_raw(8)
    _state_memory(pointer)[:] = _seeded_states(words[1:])[0, list(order)].tobytes()
    if not np.array_equal(bitgen.random_raw(8), expected):
        return None
    return pointer - start, order


_BELOW_ONE = math.nextafter(1.0, 0.0)


def _uniform_open(u: np.ndarray) -> np.ndarray:
    """``Generator.random()`` draws moved, in place, into [2^-54, 1 - 2^-53]; returns ``u``.

    Generator.random() gives (w >> 11) * 2^-53 from each raw PCG64 word w:
    k / 2^53 with k the word's top 53 bits, which Generator.integers(0, 2**53)
    draws. Adding 2^-54 keeps u off 0: it rounds (2k + 1) / 2^54 to a double,
    exactly as (k + 0.5) / 2^53 does. For the top k that is 1.0 (1 - 2^-54
    is not representable), so clamp: every quantile stays finite.
    """
    u += 2.0**-54
    np.minimum(u, _BELOW_ONE, out=u)
    return u


# The families whose quantile is an iterative scipy.special inversion
# (gammaincinv, betaincinv: ~0.4-0.8 us a draw, with the GIL released). A
# closed form costs a few ns a draw, less than handing its block to a thread.
_THREADED_FAMILIES = frozenset({"gamma", "studentt"})
# fewest draws per thread: below it, handing a block to a thread costs more than it saves
_MIN_THREAD_DRAWS = 1024


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_sharers = 1  # processes that share the usable CPUs: k in a worker of run_study(config, workers=k)


def _share_cpus(processes: int) -> None:
    """A process pool's initializer: make this process one of ``processes`` that share the CPUs."""
    global _sharers
    _sharers = processes


# The split transforms' thread pool: built once per process, on its first
# split, with one thread fewer than the process's share of the CPUs. A forked
# child (a process pool's worker) has only the thread that forked, so it
# clears the cache and builds a pool of its own share.
@functools.cache
def _transform_pool():
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(1, _usable_cpus() // _sharers - 1), thread_name_prefix="tailfence-transform")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_transform_pool.cache_clear)


def _transform(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    """``_quantile_array`` of a flat array of uniforms; split over threads for gamma and Student-t.

    The split takes one contiguous block per CPU of the process's share
    (``_usable_cpus() // _sharers``), with at least ``_MIN_THREAD_DRAWS``
    draws in each. The calling thread transforms the first block, and the
    process's pool (``_transform_pool``) the others under the caller's numpy
    error state. The caller waits for every block before it returns or
    re-raises; a worker's exception reaches it as raised. Every step of a
    quantile is elementwise, so no byte depends on the split.
    """
    threads = 1
    if spec.family in _THREADED_FAMILIES:
        threads = min(_usable_cpus() // _sharers, u.size // _MIN_THREAD_DRAWS)
    if threads < 2:
        return _quantile_array(spec, u)
    from concurrent.futures import wait

    bounds = [u.size * i // threads for i in range(threads + 1)]
    blocks = [u[start:stop] for start, stop in zip(bounds, bounds[1:])]
    # numpy keeps its error state per thread (numpy 2: in a context variable),
    # and a pool thread has the defaults
    errors, call = np.geterr(), np.geterrcall()

    def worker(block):
        with np.errstate(call=call, **errors):
            return _quantile_array(spec, block)

    pool = _transform_pool()
    futures = [pool.submit(worker, block) for block in blocks[1:]]
    try:
        # the caller's block first: waiting on a future before it leaves the caller idle
        parts = [_quantile_array(spec, blocks[0])]
    finally:
        wait(futures)
    parts += [future.result() for future in futures]
    return np.concatenate(parts)


def _block_matrices(run: np.ndarray, shapes) -> list[np.ndarray]:
    """Each ``(streams, count)`` block's slice of a flat run, as a (len(streams), count) view."""
    matrices, start = [], 0
    for streams, count in shapes:
        matrices.append(run[start : start + len(streams) * count].reshape(len(streams), count))
        start += len(streams) * count
    return matrices


def _draw_rows(spec: DistributionSpec, seed: int, blocks) -> list[np.ndarray]:
    """Per ``(streams, count)`` block, ``count`` draws per stream in draw order, as a (len(streams), count) matrix.

    ``sample`` is its one-block case. The uniforms of all the blocks' rows
    fill one flat float64 run, each row in place by ``Generator.random(out=row)``
    from its own stream: one PCG64 per call, built from the first row's seed
    words, which draws that row as built and each later row after that row's
    stream's seeded state is written into it (or, where ``_state_layout`` is
    None, a PCG64 per row). Blocks whose streams adjoin form one run, whose
    states (or words) are fetched at once: an n-axis batch's points are one
    run. The run is mapped onto the open interval once,
    in place (``_uniform_open``), and inverse-transformed once
    (``_transform``); each block's matrix is its slice of the result. The
    PCG64 is the call's own, so concurrent calls share no state.
    """
    layout, shapes, runs = _state_layout(), [], []
    for streams, count in blocks:
        count = checked_int(count, "count")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not isinstance(streams, range):
            raise ValueError(f"streams must be a range of consecutive streams, got {streams!r}")
        RngState(seed, streams.start)  # validates the seed and the first stream
        shapes.append((streams, count))
        if runs and runs[-1].stop == streams.start:
            runs[-1] = range(runs[-1].start, streams.stop)
        elif streams:
            runs.append(streams)
    uniforms = np.empty(sum(len(streams) * count for streams, count in shapes))
    rows = [row for matrix in _block_matrices(uniforms, shapes) for row in matrix]
    if layout is None:
        words = (row_words for run in runs for row_words in _stream_words(seed, run))
        for row, row_words in zip(rows, words):
            np.random.Generator(_generator(row_words)).random(out=row)
    elif rows:
        # the call's first row is drawn as built, so a one-row call writes no state
        generator = _generator(_stream_words(seed, runs[0][:1])[0])
        random = np.random.Generator(generator).random
        random(out=rows[0])
        runs[0] = runs[0][1:]
        states = b"".join([_stream_states(seed, run).tobytes() for run in runs])
        memory = _state_memory(id(generator) + layout[0])
        for row, start in zip(rows[1:], range(0, len(states), 32)):
            memory[:] = states[start : start + 32]
            random(out=row)
    return _block_matrices(_transform(spec, _uniform_open(uniforms)), shapes)


def sample(spec: DistributionSpec, rng: RngState, count: int) -> Sample:
    """Draw ``count`` i.i.d. observations by inverse transform.

    Stream ``rng`` is a SeedSequence(seed, spawn_key=(stream,)) feeding
    PCG64, so identical (seed, stream) pairs produce identical samples
    regardless of execution order, and replicate streams can be drawn in any
    order or process. The uniforms are the raw PCG64 words w mapped to
    [2^-54, 1 - 2^-53] as (w >> 11) * 2^-53 + 2^-54: Generator.random()
    on the stream's PCG64, then ``_uniform_open``.
    """
    return Sample(_draw_rows(spec, rng.seed, [(range(rng.stream, rng.stream + 1), count)])[0][0])


def sample_blocks(spec: DistributionSpec, seed: int, blocks) -> list[np.ndarray]:
    """One sorted sample of ``count`` draws per stream of each ``(streams, count)`` block, drawn as one batch.

    ``streams`` is a range of consecutive streams, and a block's matrix has
    shape (len(streams), count). Its row i equals the ``sorted`` of
    ``sample(spec, RngState(seed, streams[i]), count)`` bit for bit, whatever
    the other blocks: the inverse transform runs once over all the blocks'
    draws, split over threads for gamma and Student-t, and every step is
    elementwise or per row.
    """
    return [sort_finite_rows(rows) for rows in _draw_rows(spec, seed, blocks)]
