"""scipy.special loads on the first numeric-family call, never at import,
multiprocessing only when a study asks for a process pool, and the thread
pool only when a gamma or Student-t transform is split over threads.

Each check runs in a fresh interpreter, because this test process has
already imported scipy. The script prints one JSON line: the commands after
which scipy.special and multiprocessing were loaded, and the digests of what
they wrote.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tailfence
from tailfence import distributions
from tailfence.cli import main

from test_golden_outputs import GOLDEN

SRC = str(Path(tailfence.__file__).resolve().parents[1])

CLOSED_FORM = [
    "pareto(alpha=0.5,delta=1)",
    "frechet(alpha=1.5,mu=0,sigma=2)",
    "exp(lambda=2)",
    "negweibull(alpha=1.5,mu=2,sigma=1)",
    "gumbel(mu=0,gamma=1)",
    "uniform(a=-2,b=5)",
]
# (spec, whether its quantile needs scipy.special): the Hill-horror law is
# defined by a closed-form quantile, and only its CDF needs lambertw.
NUMERIC = [
    ("gamma(alpha=0.3,beta=1)", True),
    ("normal(mu=5,sigma2=4)", True),
    ("t(n=4)", True),
    ("hillhorror(alpha=0.5)", False),
]
SMALL_STUDY = ["--seed", "3", "--m", "5", "--n-grid", "10,20", "--k-grid", "2,3"]

# Runs (label, argv) pairs through cli.main and reports, after each, whether
# scipy.special, multiprocessing, concurrent.futures and its thread pool are
# loaded and the sha256 of each file it wrote or of its stdout. A second
# argument, if given, is the number of CPUs the transform may split over.
RUNNER = """
import hashlib, io, json, sys, tempfile
from contextlib import redirect_stdout
from pathlib import Path

loaded = lambda: "scipy.special" in sys.modules
pool_loaded = lambda: "multiprocessing" in sys.modules
futures_loaded = lambda: "concurrent.futures" in sys.modules
threads_loaded = lambda: "concurrent.futures.thread" in sys.modules
import tailfence
report = {"import": loaded(), "import_pool": pool_loaded(), "import_futures": futures_loaded(), "commands": {}}
if len(sys.argv) > 2:
    tailfence.distributions._usable_cpus = lambda: int(sys.argv[2])
from tailfence.cli import main
report["import_cli"] = loaded()
with tempfile.TemporaryDirectory() as tmp:
    for label, argv in json.loads(sys.argv[1]):
        out = Path(tmp) / label
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        with redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
        files = sorted(out.iterdir()) if out.is_dir() else []
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        report["commands"][label] = {"code": code, "loaded": loaded(), "pool_loaded": pool_loaded(),
                                     "futures_loaded": futures_loaded(), "threads_loaded": threads_loaded(),
                                     "digests": digests}
print(json.dumps(report))
"""


def fresh_run(commands, cpus=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", RUNNER, json.dumps(commands)] + ([] if cpus is None else [str(cpus)])
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def in_process_digests(argv, out):
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    with redirect_stdout(io.StringIO()) as stdout:
        assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())} if out.is_dir() else {}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


def test_closed_form_commands_never_load_scipy_special(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{2.0 ** (i / 7)}\n" for i in range(40)))
    commands = []
    for i, spec in enumerate(CLOSED_FORM):
        commands.append((f"chars{i}", ["chars", "--dist", spec]))
        commands.append((f"simulate{i}", ["simulate", "--dist", spec, *SMALL_STUDY,
                                          "--out", "{out}"]))
    for method in tailfence.ALL_METHODS:
        k = ["--k", "5"] if method in tailfence.CLASSICAL_METHODS else []
        commands.append((f"estimate-{method}", ["estimate", "--in", str(data),
                                                "--method", method, *k]))
    report = fresh_run(commands)
    assert report["import"] is False
    assert report["import_cli"] is False
    assert all(run["code"] == 0 for run in report["commands"].values())
    assert [label for label, run in report["commands"].items() if run["loaded"]] == []


@pytest.mark.parametrize(("spec", "numeric_quantile"), NUMERIC)
def test_numeric_families_load_scipy_special_on_first_use(spec, numeric_quantile, tmp_path):
    if spec in GOLDEN:
        study = ["simulate", "--dist", spec, "--seed", "42", "--m", "30", "--out", "{out}"]
    else:
        study = ["simulate", "--dist", spec, *SMALL_STUDY, "--out", "{out}"]
    chars = ["chars", "--dist", spec]
    report = fresh_run([("simulate", study), ("chars", chars)])
    assert report["import_cli"] is False
    runs = report["commands"]
    assert runs["simulate"]["code"] == 0 and runs["simulate"]["loaded"] is numeric_quantile
    assert runs["chars"]["code"] == 0 and runs["chars"]["loaded"] is True
    assert runs["chars"]["digests"] == in_process_digests(chars, tmp_path / "c")
    written = dict(runs["simulate"]["digests"])
    written.pop("stdout")  # the output paths, which name a temporary directory
    if spec in GOLDEN:
        assert written == GOLDEN[spec]
    else:
        expected = in_process_digests(study, tmp_path / "s")
        expected.pop("stdout")
        assert written == expected


def test_serial_studies_never_load_multiprocessing():
    # The process pool is imported when run_study is asked for workers > 1, not
    # before. The t(4) study's two n-points, one batch of 6000 draws, split their
    # transform over two threads; a Pareto transform never splits, and loads no executor.
    study = ["--seed", "3", "--m", "200", "--n-grid", "10,20", "--k-grid", "2,3", "--out", "{out}"]
    report = fresh_run([("pareto", ["simulate", "--dist", "pareto(alpha=0.5,delta=1)", *study]),
                        ("t4", ["simulate", "--dist", "t(n=4)", *study])], cpus=2)
    assert report["import_pool"] is False and report["import_futures"] is False
    pareto, t4 = report["commands"]["pareto"], report["commands"]["t4"]
    assert pareto["code"] == 0 and pareto["futures_loaded"] is False and pareto["pool_loaded"] is False
    assert t4["code"] == 0 and t4["threads_loaded"] is True and t4["pool_loaded"] is False


def test_first_numeric_call_binds_no_module_global():
    distributions._special.cache_clear()
    before = dict(vars(distributions))
    tailfence.quantile(tailfence.parse_spec("gamma(alpha=0.5,beta=1)"), 0.75)
    after = dict(vars(distributions))
    assert distributions._special.cache_info().currsize == 1
    assert before.keys() == after.keys()
    assert [name for name in before if before[name] is not after[name]] == []
