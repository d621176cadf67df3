"""Projected power iteration for cycle-consistent multi-matching.

The solver maximises ``f(U) = tr(U^T Wb U U^T Wb U) = ||U^T Wb U||_F^2`` over
universe assignments ``U``, where ``Wb = W^T A W`` couples the inter-object
similarity ``W`` with the block-diagonal intra-object adjacency ``A``.  Each
iteration lifts the current assignment through ``V = Wb U (U^T Wb U)`` and
projects ``V`` back onto the assignment set with per-block LAPs; that step is
:func:`iterates`.  When ``Wb`` is positive semidefinite the objective never
decreases, and because the feasible set is finite the sequence stalls after
finitely many steps.  The solver stops at the first iterate whose assignment
it has seen before: a fixed point ``U_{t+1} = U_t``, or a cycle, whose
assignments tie in objective when ``Wb`` is PSD.  Iterates are compared by a
fixed-size digest of their column vectors, so stopping never depends on float
equality.

``U`` is stored as a column-index vector, so all products against it are
gather/scatter passes over ``W`` rather than dense ``m x d`` multiplies; one
iteration costs ``O(m^2 d)`` plus ``k`` small LAPs.  The gather ``W U`` runs
over blocks of :data:`GATHER_ROWS` rows, so it never copies all of ``W``: each
block's permuted columns stay in cache, and each output entry sums the same
elements in the same order as an unblocked pass would.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from hippi.assignment import project_to_universe
from hippi.core import BlockIndex, MultiAdjacency, SimilarityMatrix, UniverseAssignment

UNIVERSE_RULES = ("twice-average", "max-block")

#: Rows of ``W`` gathered per block in ``W U``; a block holds ``32 m`` floats.
GATHER_ROWS = 32


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget: the most iterates a solve evaluates."""

    max_iters: int = 200

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolverTrace:
    """Objective value and wall time per iterate, plus the stop reason.

    An iterate's wall time covers the projection that produced it and its
    evaluation.  ``converged`` is True when the run stopped because an
    assignment repeated, False when it ran out of iterations.
    """

    objectives: np.ndarray
    wall_times: np.ndarray
    converged: bool

    def __post_init__(self):
        for name in ("objectives", "wall_times"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.objectives.shape != self.wall_times.shape:
            raise ValueError("objectives and wall_times must align")

    @property
    def iterations(self) -> int:
        return int(self.objectives.size)


def _segments(assignment: np.ndarray, d: int):
    """Sort point indices by universe slot; used to sum rows/columns per slot."""
    counts = np.bincount(assignment, minlength=d)
    order = np.argsort(assignment, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return order, starts, counts > 0


def _gather_columns(w: np.ndarray, assignment: np.ndarray, d: int) -> np.ndarray:
    """``W @ U`` with ``U`` one-hot per row: add W's columns into their slots."""
    order, starts, nonempty = _segments(assignment, d)
    out = np.zeros((w.shape[0], d))
    if nonempty.any():
        bounds = starts[nonempty]
        for r in range(0, w.shape[0], GATHER_ROWS):
            rows = slice(r, r + GATHER_ROWS)
            out[rows, nonempty] = np.add.reduceat(w[rows, order], bounds, axis=1)
    return out


def _pool_rows(x: np.ndarray, assignment: np.ndarray, d: int) -> np.ndarray:
    """``U^T @ X``: add X's rows into their universe slots."""
    order, starts, nonempty = _segments(assignment, d)
    out = np.zeros((d, x.shape[1]))
    if nonempty.any():
        out[nonempty] = np.add.reduceat(x[order], starts[nonempty], axis=0)
    return out


class WbarOperator:
    """Matrix-free ``Wb = W^T A W``; ``adjacency=None`` means ``A = I``.

    ``w`` must be exactly symmetric; that is not re-checked here.
    :meth:`from_kernels` takes it from a :class:`SimilarityMatrix`, which
    validates it on construction.
    """

    def __init__(
        self,
        w: np.ndarray,
        index: BlockIndex,
        adjacency: MultiAdjacency | None = None,
    ):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"similarity must be square, got {w.shape}")
        if w.shape[0] != index.m:
            raise ValueError(f"similarity is {w.shape[0]} x {w.shape[0]}, index has m={index.m}")
        if adjacency is not None and adjacency.index.sizes != index.sizes:
            raise ValueError("adjacency blocks do not match the object index")
        self.w = w
        self.index = index
        self.adjacency = adjacency

    @classmethod
    def from_kernels(
        cls, similarity: SimilarityMatrix, adjacency: MultiAdjacency | None
    ) -> "WbarOperator":
        return cls(similarity.data, similarity.index, adjacency)

    def times_assignment(self, u: UniverseAssignment) -> np.ndarray:
        """``Wb @ U`` without ever forming the dense one-hot ``U``."""
        wu = _gather_columns(self.w, u.assignment, u.d)
        if self.adjacency is not None:
            wu = self.adjacency.matmul(wu)
        return self.w @ wu


def iterates(
    wbar: WbarOperator, u: UniverseAssignment
) -> Iterator[tuple[UniverseAssignment, float]]:
    """The power iteration from ``u``: yields ``(U_t, f(U_t))`` for t = 0, 1, ...

    The lift ``Wb U_t (U_t^T Wb U_t)`` is projected to ``U_{t+1}`` only when
    the next item is requested, so a consumer that stops after ``U_t`` pays
    for no extra projection.  The sequence never ends on its own.
    """
    if u.index.sizes != wbar.index.sizes:
        raise ValueError("initial assignment does not match the operator's index")
    while True:
        p = wbar.times_assignment(u)
        mid = _pool_rows(p, u.assignment, u.d)
        yield u, float((mid * mid.T).sum())
        u = project_to_universe(p @ mid, u.index)


def objective(wbar: WbarOperator, u: UniverseAssignment) -> float:
    """``f(U) = ||U^T Wb U||_F^2``, evaluated through gather/scatter products."""
    return next(iterates(wbar, u))[1]


def hippi_solve(
    wbar: WbarOperator,
    u0: UniverseAssignment,
    config: SolverConfig | None = None,
) -> tuple[UniverseAssignment, SolverTrace]:
    """Run the projected power iteration from ``u0`` until an assignment repeats.

    Returns the final assignment together with a trace holding one objective
    value per evaluated iterate.  The run stops at the first iterate equal to
    an earlier one, a fixed point or a cycle, and then ``converged`` is True;
    hitting ``max_iters`` first leaves it False.
    One 16-byte digest is kept per iterate, so the check costs O(iterations)
    memory whatever ``m`` is.
    """
    config = config or SolverConfig()
    objectives: list[float] = []
    wall: list[float] = []
    seen: set[bytes] = set()
    converged = False
    tic = time.perf_counter()
    for u, f in islice(iterates(wbar, u0), config.max_iters):
        wall.append(time.perf_counter() - tic)
        objectives.append(f)
        digest = hashlib.blake2b(u.assignment, digest_size=16).digest()
        if digest in seen:
            converged = True
            break
        seen.add(digest)
        tic = time.perf_counter()
    trace = SolverTrace(
        objectives=np.asarray(objectives),
        wall_times=np.asarray(wall),
        converged=converged,
    )
    return u, trace


def universe_size(
    index: BlockIndex, rule: str = "twice-average", explicit: int | None = None
) -> int:
    """Pick the number of universe slots ``d>= max_i m_i`` for a problem.

    ``explicit`` overrides the rule; "twice-average" rounds up twice the mean
    object size (clamped to the largest object), "max-block" uses the largest
    object size exactly.
    """
    largest = max(index.sizes)
    if explicit is not None:
        if explicit < largest:
            raise ValueError(
                f"universe size {explicit} is smaller than the largest object ({largest})"
            )
        return int(explicit)
    if rule == "twice-average":
        return max(int(np.ceil(2.0 * float(np.mean(index.sizes)))), largest)
    if rule == "max-block":
        return largest
    raise ValueError(f"rule must be one of {UNIVERSE_RULES}")
