"""The benchmark's workloads: which problems each one generates and how it solves them.

A run turns its seed into a batch of problem seeds and generates one
``ProblemInstance`` per problem seed; the program only ever sees them as
``problem.json`` files.  Iteration counts differ between instances of one
generator (4-5 on many-objects, 7-9 on large-objects, 8-26 on noisy-outliers),
so every run solves a batch and reports the mean over it, which keeps runs
with different seeds comparable.  ``tiny`` shrinks each workload to a size the
self-test runs in about a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from hippi.cli import bench_instance
from hippi.core import ProblemInstance
from hippi.synth import GenConfig, generate

TINY_BATCH = 2


@dataclass(frozen=True)
class Workload:
    name: str
    problem: Callable[[int, bool], ProblemInstance]
    batch: int
    solve_args: tuple[str, ...]
    fscore_floor: float

    def problems(self, seed: int, tiny: bool) -> list[tuple[int, ProblemInstance]]:
        """(problem seed, instance) pairs; batches of different run seeds never overlap."""
        n = TINY_BATCH if tiny else self.batch
        return [(seed * n + i, self.problem(seed * n + i, tiny)) for i in range(n)]


def _many_objects(seed: int, tiny: bool) -> ProblemInstance:
    # The ROADMAP ladder's rung: 200 objects of 20 points, m = 4000.
    return bench_instance(200 if tiny else 4000, 20, seed)


def _large_objects(seed: int, tiny: bool) -> ProblemInstance:
    # Eight objects of 250 points, m = 2000; the twice-average rule gives d = 500.
    return bench_instance(200 if tiny else 2000, 25 if tiny else 250, seed)


def _noisy_outliers(seed: int, tiny: bool) -> ProblemInstance:
    # 50 objects, m ~ 1000: 20% outliers and 80% visibility keep f near 0.65.
    return generate(
        GenConfig(
            k=10 if tiny else 50,
            d_true=20,
            visibility=0.8,
            coord_noise_sigma=0.02,
            feature_dim=8,
            feature_noise_sigma=0.3,
            outlier_fraction=0.2,
            seed=seed,
        )
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="many-objects",
            problem=_many_objects,
            batch=2,
            solve_args=("--d", "40", "--init", "random"),
            fscore_floor=0.9,
        ),
        Workload(
            name="large-objects",
            problem=_large_objects,
            batch=4,
            solve_args=("--init", "random"),
            fscore_floor=0.95,
        ),
        Workload(
            name="noisy-outliers",
            problem=_noisy_outliers,
            batch=24,
            solve_args=("--init", "greedy", "--weight-mode", "intra-ratio"),
            fscore_floor=0.4,
        ),
    )
}
