"""Byte oracle: sha256 of the `simulate`, `chars` and `table1` outputs, and
the exact `estimate` lines.

Every CSV and manifest byte must stay the same across engine changes. A
deliberate byte change is versioned in the manifest and announced in
CHANGES.md, and only then are these digests re-recorded.

Each `simulate` config runs all ten methods at seed 42 and m = 30 over the
default grids (n = 10..100 step 5, k = 2..99 at n = 100). `chars` runs one
fixed spec list, every family at several shapes, at three multiplier pairs,
and a second list in which the families interleave, so rows out of input order
would show. `estimate` runs each of the ten methods on one data file that the
test writes itself: a header and 200 Pareto(1.5) quantiles, in a scrambled order.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from tailfence import distributions
from tailfence.cli import main

GOLDEN = {
    "pareto(alpha=0.5,delta=1)": {
        "pareto_n.csv": "fd3df48b8701aaa3ab5935e76f8edc57fa842de36610b4af0757a39dfa2d0594",
        "pareto_k.csv": "5545e8d5af137762532e94fd3b3ae45383990d0bf4814ebf68c015ad32614fe8",
        "pareto_manifest.json": "fae31c275358c4cdbf98fc8b444a9c8bfd249b36c7dbb5a1b430118413da7134",
    },
    "frechet(alpha=0.5,mu=0,sigma=1)": {
        "frechet_n.csv": "738f832d018e2a3826000ba2337ac68798fd139edfba0814b941c251e980a14f",
        "frechet_k.csv": "3678a6bc10bac8b703f0553f4207f6a475a1c8c693883b479f40583928ea9e98",
        "frechet_manifest.json": "f30f84351dd021e853adfabb840ecaa885dd2fdb319a5ce77dc25f8f4a768dc1",
    },
    "hillhorror(alpha=0.5)": {
        "hillhorror_n.csv": "4c9c392bfb4df142307022a19ac597fdcf661911d02bc3e074e432162bd45433",
        "hillhorror_k.csv": "7f1b07c46f5ae9bbd6269f0209ef69851bbb2dc79219c5c01617905d7d3ca8a5",
        "hillhorror_manifest.json": "d3e23c8da2a83b12b8b23f0a2e59f09881d1298480d00a75f31cb8067e1af071",
    },
    "t(n=4)": {
        "studentt_n.csv": "1512cc8aac71b13dfc35927b60d6eb1b81b076df060c5937bc7561862692feaf",
        "studentt_k.csv": "a4ea204830ae6e842a117ed55ec113803cf1f641ca4014661baf99394755fdb9",
        "studentt_manifest.json": "920d2113555bb86585085e7bd7a30de2109e5ed2dddb079ce747dc10e57f5801",
    },
    "gamma(alpha=0.3,beta=1)": {
        "gamma_n.csv": "71ebd59e6bd760447aeaf7ec25cd6393694ef04be9435a8d84d5459adfd0c7e8",
        "gamma_k.csv": "87368cfc8ea764b511234d4d7f4271be075d1f9bbb4fbbe4bb31fd1a7e0ad954",
        "gamma_manifest.json": "46bb6a7af9e101e66c0231a41ccc3c6f47a995616fe0422b937be19d4eadfe44",
    },
}


@pytest.mark.parametrize("path", ["state_write", "fallback"])
@pytest.mark.parametrize("spec", list(GOLDEN))
def test_simulate_output_bytes(spec, path, tmp_path, monkeypatch):
    # each draw call writes its rows' seeded states into one PCG64; the
    # fallback, where no state layout is found, builds a PCG64 per row
    if path == "fallback":
        monkeypatch.setattr(distributions, "_state_layout", lambda: None)
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--dist", spec, "--seed", "42", "--m", "30", "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN[spec]


# Shapes on both sides of each closed form's branches: the Frechet left tail
# and the negative-Weibull right tail open above frechet_left_tail_threshold
# (5.47 at outer = 3), hillhorror(alpha=100) leaves its closed form at
# outer = 0.25, and the small pair gives the uniform and exponential families
# mass past the low fence.
CHARS_SPECS = (
    ["uniform(a=0,b=1)", "uniform(a=-3,b=2.5)"]
    + [f"exp(lambda={lam})" for lam in (0.01, 1, 250)]
    + [f"gamma(alpha={a},beta={b})" for a, b in ((0.3, 1), (1, 2), (5, 0.5), (50, 1))]
    + ["normal(mu=0,sigma2=1)", "normal(mu=3,sigma2=0.25)"]
    + [f"t(n={n})" for n in range(1, 41)]
    + [f"pareto(alpha={a},delta=2)" for a in (0.1, 0.5, 1, 2.5, 10, 100)]
    + [f"frechet(alpha={a},mu=1,sigma=2)" for a in (0.2, 0.5, 2, 5.5, 8, 40)]
    + [f"negweibull(alpha={a},mu=-1,sigma=0.5)" for a in (0.3, 1, 3, 5.5, 10)]
    + ["gumbel(mu=0,gamma=1)", "gumbel(mu=-2,gamma=5)"]
    + [f"hillhorror(alpha={a})" for a in (0.2, 0.5, 1, 3, 10, 100)]
)

GOLDEN_CHARS = {
    (1.5, 3.0): "983ccf7c5611afdda3b165e1fc3724492d1933b9082795de67ab20d3399734fe",
    (0.2, 0.25): "e3922b4f54813b2b05faeb634b4b9b16c92b251698f1c085f39579b634deece9",
    (2.0, 6.0): "99813b9bfd23675b7208351d7185924760413e292ea27670e793cb65ad8a2bc3",
}

# Families interleaved, two specs given twice (t(n=3) and
# pareto(alpha=0.5,delta=2)), and gumbel, alone in its family, between two
# runs of Pareto specs. A chars that returned its rows grouped by family would pass
# GOLDEN_CHARS, whose families are contiguous, but not these.
INTERLEAVED_CHARS_SPECS = [
    "pareto(alpha=0.5,delta=2)",
    "pareto(alpha=2.5,delta=1)",
    "gumbel(mu=0,gamma=1)",
    "pareto(alpha=10,delta=3)",
    "pareto(alpha=100,delta=1)",
    "t(n=3)",
    "normal(mu=0,sigma2=1)",
    "t(n=1)",
    "exp(lambda=2)",
    "t(n=3)",
    "frechet(alpha=2,mu=0,sigma=0.5)",
    "gamma(alpha=0.3,beta=1)",
    "uniform(a=0,b=1)",
    "negweibull(alpha=3,mu=0,sigma=2)",
    "frechet(alpha=8,mu=1,sigma=2)",
    "hillhorror(alpha=0.5)",
    "gamma(alpha=5,beta=0.5)",
    "pareto(alpha=0.5,delta=2)",
    "hillhorror(alpha=100)",
    "exp(lambda=0.01)",
    "negweibull(alpha=10,mu=-1,sigma=0.5)",
    "normal(mu=3,sigma2=0.25)",
    "t(n=40)",
    "uniform(a=-3,b=2.5)",
    "frechet(alpha=0.2,mu=-1,sigma=3)",
]

GOLDEN_INTERLEAVED_CHARS = {
    (1.5, 3.0): "e2e26b63e072a2150264371ceea3abdd89a3e84574fbb8562f034350c4bdd396",
    (0.2, 0.25): "cf4184d7c304a69b0a5ee65fe053fbb358a6e88ad71ef9363d5dcf161188dfe9",
    (2.0, 6.0): "2c543b1f9e23f70b7bdcccf2a3cf8e195530e8343d8e0852f356dccb53e232bb",
}

GOLDEN_TABLE1 = "35ee26d8891b8d6145eaf5715d19ab974eb2c4d95e521aa80daa919208261ade"


def _digest(argv, path):
    with redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _chars_digest(specs, inner, outer, path):
    argv = ["chars", "--inner-fence", str(inner), "--outer-fence", str(outer)]
    for spec in specs:
        argv += ["--dist", spec]
    return _digest(argv, path)


@pytest.mark.parametrize(("inner", "outer"), list(GOLDEN_CHARS))
def test_chars_output_bytes(inner, outer, tmp_path):
    assert _chars_digest(CHARS_SPECS, inner, outer, tmp_path / "chars.csv") == GOLDEN_CHARS[inner, outer]


@pytest.mark.parametrize(("inner", "outer"), list(GOLDEN_INTERLEAVED_CHARS))
def test_interleaved_chars_output_bytes(inner, outer, tmp_path):
    digest = _chars_digest(INTERLEAVED_CHARS_SPECS, inner, outer, tmp_path / "chars.csv")
    assert digest == GOLDEN_INTERLEAVED_CHARS[inner, outer]


def test_table1_output_bytes(tmp_path):
    assert _digest(["table1"], tmp_path / "table1.csv") == GOLDEN_TABLE1


# The Pareto(alpha=1.5) quantiles at (j + 0.5)/200, j = 37*i mod 200: no RNG,
# and not in sorted order. hh_q rejects the data, and the new methods leave k empty.
ESTIMATE_DATA = [(1.0 - ((37 * i % 200) + 0.5) / 200) ** (-1 / 1.5) for i in range(200)]

GOLDEN_ESTIMATE = {
    "par_n": "par_n,,1.50511734963,true,",
    "par_q": "par_q,,1.4908624256,true,",
    "fr_n": "fr_n,,1.48865164929,true,",
    "fr_q": "fr_q,,2.13399327232,true,",
    "hh_n": "hh_n,,3.37002970674,true,",
    "hh_q": "hh_q,,-1.31470129672,false,family mismatch",
    "hill": "hill,20,1.48888091145,true,",
    "thill": "thill,20,1.44211486677,true,",
    "pickands": "pickands,20,1.45081227437,true,",
    "moment": "moment,20,1.73064416815,true,",
}


@pytest.mark.parametrize("method", list(GOLDEN_ESTIMATE))
def test_estimate_output_lines(method, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x\n" + "".join(f"{v!r}\n" for v in ESTIMATE_DATA))
    argv = ["estimate", "--in", str(data), "--method", method, "--out", str(tmp_path / "estimate.csv")]
    if GOLDEN_ESTIMATE[method].split(",")[1]:
        argv += ["--k", "20"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    expected = f"method,k,alpha_hat,valid,reason\n{GOLDEN_ESTIMATE[method]}\n"
    assert (tmp_path / "estimate.csv").read_text() == expected
