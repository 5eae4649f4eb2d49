"""``parse_spec`` and ``DistributionSpec`` against a frozen reference copy.

The reference is the two-pass version that these tests replaced: it copies
the params into a dict, checks the names, then type-checks and converts
every value, also the floats that ``parse_spec`` hands it. For every drawn text and every drawn ``(family, params)`` pair the code
under test must give the same family, the same params (values, types and
key order) and the same ``str(spec)``, or raise the same exception with the
same text. The one intended difference: params that are not a mapping (a
list of pairs, a string) are refused, where the reference took anything
``dict()`` accepts.
"""

import collections
import math
import re
import types
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfence.distributions import DistributionSpec, parse_spec

# --- the reference --------------------------------------------------------------

REF_FAMILY_PARAMS = {
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
REF_ALIASES = {"exp": "exponential", "t": "studentt", "student": "studentt", "gauss": "normal", "hh": "hillhorror"}
REF_POSITIVE = frozenset({"lambda", "alpha", "beta", "sigma2", "delta", "sigma", "gamma"})
REF_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$")


def ref_validate_params(family, p):
    for name, value in p.items():
        if not math.isfinite(value):
            raise ValueError(f"{family}: parameter {name} must be finite, got {value}")
    for name, value in p.items():
        if name in REF_POSITIVE and not value > 0:
            raise ValueError(f"{family}: requires {name} > 0, got {value}")
    if family == "uniform" and not p["a"] < p["b"]:
        raise ValueError(f"uniform: requires a < b, got a={p['a']}, b={p['b']}")
    if family == "studentt" and not (1 <= p["n"] <= 10**6 and p["n"] == int(p["n"])):
        raise ValueError(f"studentt: requires integer n with 1 <= n <= 10^6, got {p['n']}")


def ref_spec(family, params):
    """The reference ``DistributionSpec(family, params)``, as its ``(family, params)``."""
    name = family.strip().lower() if isinstance(family, str) else None
    name = REF_ALIASES.get(name, name)
    if name not in REF_FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    expected = REF_FAMILY_PARAMS[name]
    try:
        given = dict(params)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: params must be a mapping of names to numbers, got {params!r}") from None
    for key in given:
        if key not in expected:
            raise ValueError(f"unknown parameter {key!r} for family {name}")
    missing = [key for key in expected if key not in given]
    if missing:
        raise ValueError(f"{name}: missing parameter {missing[0]!r}")
    out = {}
    for key in expected:
        try:
            if isinstance(given[key], (bool, np.bool_, str, bytes, bytearray, memoryview)):
                raise TypeError
            out[key] = float(given[key])
        except (TypeError, ValueError):
            raise ValueError(f"{name}: parameter {key} must be a number, got {given[key]!r}") from None
    ref_validate_params(name, out)
    return name, out


def ref_parse_spec(text):
    """The reference ``parse_spec(text)``, as its ``(family, params)``."""
    match = REF_SPEC_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse distribution spec {text!r}; expected family(name=value,...)")
    family, body = match.group(1), match.group(2)
    params = {}
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
    return ref_spec(family, params)


# --- comparing outcomes --------------------------------------------------------


def ref_outcome(call, *args):
    """``(family, [(name, hex), ...], str)`` of the reference result, or ``(type, message)``."""
    try:
        family, params = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    text = ",".join(f"{k}={v:.12g}" for k, v in params.items())
    return family, [(k, type(v), float.hex(v)) for k, v in params.items()], f"{family}({text})"


def outcome(call, *args):
    """The same shape as :func:`ref_outcome`, of the code under test."""
    try:
        spec = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return spec.family, [(k, type(v), float.hex(v)) for k, v in spec.params.items()], str(spec)


# --- drawn texts -----------------------------------------------------------------

# ASCII whitespace, Unicode whitespace (NEL, no-break space, em space,
# ideographic space) and none; also the separators \x1c-\x1f, which str.strip()
# removes but float() refuses
SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f",
                          "\x85", "\xa0", " ", "　", " \xa0 "])
FAMILY_NAMES = sorted(REF_FAMILY_PARAMS) + sorted(REF_ALIASES) + ["cauchy", "x", "_", "t2"]
PARAM_NAMES = sorted({n for names in REF_FAMILY_PARAMS.values() for n in names}) + ["x", "Alpha", "LAMBDA", ""]
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1", "0.5", "-0", "+2", "1e400", "-1e400", "1e-400", "inf", "-Infinity", "nan",
                     "1_0", "1__0", "0x10", "1e", ".", "", "abc", "1 0", "١", "１", "1.5\xa0", "½"]),
)


@st.composite
def mixed_case(draw, name):
    return "".join(c.upper() if draw(st.booleans()) else c for c in name)


@st.composite
def tokens(draw):
    name = draw(st.sampled_from(PARAM_NAMES).flatmap(mixed_case))
    value = draw(VALUES)
    if draw(st.integers(0, 9)) == 0:
        return draw(SPACES) + name + draw(SPACES)  # no '='
    return draw(SPACES) + name + draw(SPACES) + "=" + draw(SPACES) + value + draw(SPACES)


@st.composite
def spec_texts(draw):
    family = draw(st.sampled_from(FAMILY_NAMES).flatmap(mixed_case))
    family_params = REF_FAMILY_PARAMS.get(REF_ALIASES.get(family.lower(), family.lower()), ())
    parts = draw(st.lists(tokens(), max_size=4))
    # often the family's own names with numbers, so that some texts parse
    if family_params and draw(st.booleans()):
        parts = [f"{name}={draw(st.floats(0.5, 20.0))!r}" for name in family_params] + parts[:1]
        parts = draw(st.permutations(parts))
    if draw(st.integers(0, 5)) == 0:
        parts.insert(draw(st.integers(0, len(parts))), "")  # an empty or trailing token
    if parts and draw(st.integers(0, 5)) == 0:
        parts.append(parts[0])  # a duplicate
    body = ",".join(parts)
    return draw(SPACES) + family + draw(SPACES) + "(" + body + ")" + draw(SPACES)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(text=st.one_of(spec_texts(), st.text(max_size=30)))
def test_parse_spec_matches_the_reference(text):
    assert outcome(parse_spec, text) == ref_outcome(ref_parse_spec, text), repr(text)


@pytest.mark.parametrize("text", [
    "pareto(alpha=\x850.5\x85,delta=\xa01 )",
    "pareto( ALPHA =0.5 , Delta= 1 )",
    "t(n=　3　)",
    "exp(lambda=1,)",
    "exp(,lambda=1)",
    "exp(lambda=1,lambda=1)",
    "exp(lambda=x\x85)",
    "exp(lambda)",
    "exp(lambda=1,x=2)",
    "pareto(alpha=1)",
    "uniform(a=1_0,b=2_0)",
    "\x85Gauss\x85(mu=0,sigma2=1)\x85",
])
def test_parse_spec_edge_texts_match_the_reference(text):
    assert outcome(parse_spec, text) == ref_outcome(ref_parse_spec, text)


# --- drawn (family, params) pairs -------------------------------------------------

NUMBERS = st.one_of(
    st.floats(),
    st.floats(0.5, 20.0),
    st.integers(-3, 30),
    st.integers(),  # beyond 2^1024 float() raises OverflowError in both
    st.floats(0.5, 20.0).map(np.float64),
    st.floats(0.5, 20.0, width=32).map(np.float32),
    st.integers(1, 30).map(np.int64),
    st.integers(0, 200).map(np.uint8),
    st.integers(1, 30).map(Fraction),
    st.integers(1, 30).map(Decimal),
)
NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_, None, [1.0], (1.0,), {}, 1j, object()]),
    st.sampled_from(["1", "0.5", " 2 ", "x"]),
    st.sampled_from(["1", "0.5"]).map(np.str_),
    st.sampled_from([b"1", b"0.5"]),
    st.sampled_from([b"1", b"0.5"]).map(bytearray),
    st.sampled_from([b"1", b"0.5"]).map(memoryview),
)
FAMILIES = st.one_of(
    st.sampled_from(FAMILY_NAMES).flatmap(mixed_case).flatmap(lambda name: st.tuples(SPACES, SPACES).map(
        lambda pad: pad[0] + name + pad[1])),
    st.sampled_from([None, 5, b"pareto", np.str_("pareto")]),
)


@st.composite
def param_dicts(draw, family):
    """A dict over the family's names (some missing), unknown names and other keys (some non-strings)."""
    name = REF_ALIASES.get(family.strip().lower(), family.strip().lower()) if isinstance(family, str) else None
    names = list(REF_FAMILY_PARAMS.get(name, ("alpha", "delta")))
    names = [n for n in names if draw(st.integers(0, 7))]  # now and then one missing
    extra = draw(st.lists(st.sampled_from(["x", "Alpha", "a", "mu", 1, None, b"alpha"]), max_size=2))
    values = st.one_of(NUMBERS, NUMBERS, NUMBERS, NOT_NUMBERS)
    keys = draw(st.permutations(names + extra))
    return {key: draw(values) for key in keys}


MAPPINGS = (dict, collections.OrderedDict, types.MappingProxyType,
            lambda d: collections.defaultdict(float, d), collections.Counter)


@st.composite
def family_params(draw):
    family = draw(FAMILIES)
    params = draw(param_dicts(family))
    kind = draw(st.integers(0, 9))
    if kind < 5:
        return family, draw(st.sampled_from(MAPPINGS))(params)
    if kind < 7:
        return family, list(params.items())  # pairs: refused now
    return family, draw(st.sampled_from([None, 7, "ab", ["ab", "ba"], [("lambda", 1.0)], 1.5, b"xy"]))


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(pair=family_params())
def test_distribution_spec_matches_the_reference(pair):
    family, params = pair
    before = list(params.items()) if isinstance(params, Mapping) else None
    expected = ref_outcome(ref_spec, family, params)
    name = family.strip().lower() if isinstance(family, str) else None
    name = REF_ALIASES.get(name, name)
    if name in REF_FAMILY_PARAMS and not isinstance(params, Mapping):
        expected = (ValueError, f"{name}: params must be a mapping of names to numbers, got {params!r}")
    assert outcome(DistributionSpec, family, params) == expected, pair
    if before is not None:  # a defaultdict or a Counter gains no key
        assert list(params.items()) == before


def test_spec_keeps_no_reference_to_the_callers_dict():
    given_params = {"delta": 1, "alpha": 0.5}
    spec = DistributionSpec("pareto", given_params)
    given_params["alpha"] = 2.0
    assert list(spec.params.items()) == [("alpha", 0.5), ("delta", 1.0)]
    assert spec.params is not given_params
