"""The benchmark's workloads and the seeded inputs of each pass.

Every workload is one client in a closed loop: a pass is one ``tailfence``
CLI command run in-process through ``tailfence.cli.main``, and the next pass
starts when the previous one returns. The run seed decides the inputs of
every pass and goes nowhere else; the program only sees the generated
command lines.

Study workloads draw their study seed for each pass from the reference seed
pool recorded in ``reference/<workload>.json`` (in an order the run seed
permutes), because the output oracle needs a recorded reference for every
study it checks. ``chars_grid`` has no RNG, so the run seed permutes the
order of its 244 specs instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Shapes 0.1, 0.2, ..., 4.0 for the five shape families of the chars grid.
_SHAPES = [f"{i / 10:g}" for i in range(1, 41)]


def _chars_specs() -> tuple[str, ...]:
    specs = []
    for a in _SHAPES:
        specs += [
            f"gamma(alpha={a},beta=1)",
            f"pareto(alpha={a},delta=1)",
            f"frechet(alpha={a},mu=0,sigma=1)",
            f"negweibull(alpha={a},mu=0,sigma=1)",
            f"hillhorror(alpha={a})",
        ]
    specs += [f"t(n={n})" for n in range(1, 41)]
    specs += ["uniform(a=0,b=1)", "exp(lambda=1)", "normal(mu=0,sigma2=1)", "gumbel(mu=0,gamma=1)"]
    return tuple(specs)


CHARS_SPECS = _chars_specs()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # CLI arguments of a study without --seed/--out; None for chars_grid.
    study_args: tuple[str, ...] | None
    points: int  # grid points per study pass (0 for chars_grid)
    m: int  # replicates per grid point (0 for chars_grid)
    outputs: tuple[str, ...]  # files one pass writes, relative to its output dir

    @property
    def is_study(self) -> bool:
        return self.study_args is not None

    @property
    def items_per_pass(self) -> int:
        """Replicates (points x m) for a study; specs for chars_grid."""
        return self.points * self.m if self.is_study else len(CHARS_SPECS)


K_M = 40
T4_M = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="study_k_pareto",
            why="default-simulate k-sweep: 98 k-points at n=100 where per-replicate "
            "engine overhead (generator build, Sample, scalar estimators) dominates",
            study_args=(
                "simulate", "--dist", "pareto(alpha=0.5,delta=1)", "--n-grid", "100",
                "--methods", "hill,thill,pickands,moment", "--m", str(K_M),
            ),
            points=98,
            m=K_M,
            outputs=("pareto_k.csv", "pareto_manifest.json"),
        ),
        Workload(
            name="study_n_t4",
            why="same engine on a 19-point n-sweep of t(4), where the bisection "
            "quantile dominates and the three quartile methods always fail",
            study_args=(
                "simulate", "--dist", "t(n=4)", "--n-grid", "10:100:5",
                "--methods", "par_n,par_q,fr_n,fr_q,hh_n,hh_q", "--m", str(T4_M),
            ),
            points=19,
            m=T4_M,
            outputs=("studentt_n.csv", "studentt_manifest.json"),
        ),
        Workload(
            name="chars_grid",
            why="one chars call over 244 specs: scalar quantile/cdf calls, no RNG "
            "and no engine, so per-call overhead shows",
            study_args=None,
            points=0,
            m=0,
            outputs=("chars.csv",),
        ),
    )
}


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


class PassPlan:
    """The command line of every pass of one run, fixed by (workload, seed)."""

    def __init__(self, workload: Workload, seed: int, reference: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload.name) if reference is None else reference
        rng = random.Random(f"{workload.name}/{seed}")
        if workload.is_study:
            self._study_seeds = list(self.reference["seeds"])
            rng.shuffle(self._study_seeds)

    def study_seed(self, index: int) -> int:
        """Study seed of pass ``index``; the seed pool repeats after one full cycle."""
        return self._study_seeds[index % len(self._study_seeds)]

    def argv(self, index: int, outdir: Path) -> list[str]:
        if self.workload.is_study:
            return [*self.workload.study_args, "--seed", str(self.study_seed(index)),
                    "--out", str(outdir)]
        argv = ["chars"]
        for spec in self.chars_specs(index):
            argv += ["--dist", spec]
        return argv + ["--out", str(outdir / "chars.csv")]

    def chars_specs(self, index: int) -> list[str]:
        """The chars_grid specs of pass ``index``, in the order they are given."""
        specs = list(CHARS_SPECS)
        random.Random(f"{self.workload.name}/{self.seed}/{index}").shuffle(specs)
        return specs
