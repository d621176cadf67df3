"""Cycle-consistent multi-matching via higher-order projected power iteration."""

from hippi.assignment import lap_exact, project_to_universe
from hippi.baselines import (
    greedy_init,
    pairwise_lap_matchings,
    random_init,
    spectral_sync,
    vote_similarity,
)
from hippi.core import (
    OUTLIER,
    BlockIndex,
    MultiAdjacency,
    PairwiseMatchingSet,
    ProblemInstance,
    SimilarityMatrix,
    UniverseAssignment,
    expand,
)
from hippi.kernels import (
    PSD_TOL,
    DegenerateGeometryError,
    KernelConfig,
    PsdReport,
    assert_psd,
    build_adjacency,
    build_similarity,
)
from hippi.metrics import (
    CycleReport,
    MatchReport,
    fscore,
    verify_cycle_consistency,
)
from hippi.solver import (
    Iterate,
    SolverConfig,
    SolverTrace,
    WbarOperator,
    hippi_solve,
    objective,
    universe_size,
)
from hippi.synth import (
    GenConfig,
    GenerationError,
    generate,
    twin_prototype_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BlockIndex",
    "CycleReport",
    "DegenerateGeometryError",
    "GenConfig",
    "GenerationError",
    "Iterate",
    "KernelConfig",
    "MatchReport",
    "MultiAdjacency",
    "OUTLIER",
    "PSD_TOL",
    "PairwiseMatchingSet",
    "ProblemInstance",
    "PsdReport",
    "SimilarityMatrix",
    "SolverConfig",
    "SolverTrace",
    "UniverseAssignment",
    "WbarOperator",
    "assert_psd",
    "build_adjacency",
    "build_similarity",
    "expand",
    "fscore",
    "generate",
    "greedy_init",
    "hippi_solve",
    "lap_exact",
    "objective",
    "pairwise_lap_matchings",
    "project_to_universe",
    "random_init",
    "spectral_sync",
    "twin_prototype_instance",
    "universe_size",
    "verify_cycle_consistency",
    "vote_similarity",
    "__version__",
]
