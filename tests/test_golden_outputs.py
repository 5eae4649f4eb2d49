"""Byte oracle: sha256 of the `simulate` outputs for five fixed configs.

Every CSV and manifest byte must stay the same across engine changes. A
deliberate byte change is versioned in the manifest and announced in
CHANGES.md, and only then are these digests re-recorded.

Each config runs all ten methods at seed 42 and m = 30 over the default
grids (n = 10..100 step 5, k = 2..99 at n = 100).
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

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


@pytest.mark.parametrize("spec", list(GOLDEN))
def test_simulate_output_bytes(spec, tmp_path):
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--dist", spec, "--seed", "42", "--m", "30", "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN[spec]
