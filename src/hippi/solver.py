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
equality, and a repeat is caught before the operator is applied to it.

``U`` is stored as a column-index vector, so all products against it are
gather/scatter passes over ``W`` rather than dense ``m x d`` multiplies.  A
column of ``Wb U``, ``U^T Wb U`` or the lift that belongs to an empty slot is
exactly zero, so every product runs on the ``d_occ <= min(m, d)`` occupied
slots only, grouped by :attr:`~hippi.core.UniverseAssignment.slot_runs`, and
``f`` is summed over those slots alone.  The one array of an iteration that
can be sized by ``d`` is the projection's fallback for a lift with a
non-positive score.  One iteration costs ``O(m^2 d_occ)`` plus ``k`` LAPs
over the used columns, and the lift reaches
:func:`~hippi.assignment.project_to_universe` in that compact ``m x d_occ``
form with its slot numbers.  The solver never reads ``W``'s storage: it
takes ``W U`` from ``W``'s ``gather`` and ``W X`` from its ``@``, so a new
kind of ``W`` plugs in as one type.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from hippi.assignment import project_to_universe
from hippi.core import (
    BlockIndex,
    MultiAdjacency,
    SimilarityMatrix,
    UniverseAssignment,
    integer_fields,
)

UNIVERSE_RULES = ("twice-average", "max-block")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget: the most iterates a solve evaluates."""

    max_iters: int = 200

    def __post_init__(self):
        integer_fields(self, ("max_iters",))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolverTrace:
    """Objective value per iterate, plus the stop reason.

    ``objectives`` is a read-only float copy of the values given; the trace
    holds no times, so a caller that wants them times the run itself.
    ``converged`` is True when the run stopped because an assignment
    repeated, False when it ran out of iterations.
    """

    objectives: np.ndarray
    converged: bool

    def __post_init__(self):
        objectives = np.asarray(self.objectives, dtype=np.float64).copy()
        objectives.flags.writeable = False
        object.__setattr__(self, "objectives", objectives)

    @property
    def iterations(self) -> int:
        return int(self.objectives.size)


def _pool_rows(x: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``U^T @ X`` on the occupied slots: add X's rows into their slots."""
    return np.add.reduceat(x[order], starts, axis=0)


class WbarOperator:
    """Matrix-free ``Wb = W^T A W``; ``adjacency=None`` means ``A = I``.

    ``similarity`` is ``W``: any exactly symmetric operator with ``index``,
    ``gather(order, starts)`` (``W U`` on the occupied slots) and ``@``.
    :class:`SimilarityMatrix` is the dense one; it validates ``W`` itself.
    """

    def __init__(self, similarity: SimilarityMatrix, adjacency: MultiAdjacency | None = None):
        if adjacency is not None and adjacency.index.sizes != similarity.index.sizes:
            raise ValueError("adjacency blocks do not match the object index")
        self.similarity = similarity
        self.index = similarity.index
        self.adjacency = adjacency

    @classmethod
    def from_kernels(cls, similarity: SimilarityMatrix, adjacency: MultiAdjacency | None):
        return cls(similarity, adjacency)

    def times_assignment(self, u: UniverseAssignment) -> np.ndarray:
        """``Wb @ U`` on ``u``'s occupied slots, without forming the one-hot ``U``.

        Returns ``m x d_occ``: column ``r`` belongs to slot
        ``u.slot_runs[2][r]``, in ascending slot order.  The dropped columns,
        those of the empty slots, are exactly zero.
        """
        if u.index.sizes != self.index.sizes:
            raise ValueError("assignment does not match the operator's index")
        order, starts, _ = u.slot_runs
        wu = self.similarity.gather(order, starts)
        if self.adjacency is not None:
            wu = self.adjacency.matmul(wu)
        return self.similarity @ wu


def _evaluate(wbar: WbarOperator, u: UniverseAssignment) -> tuple[np.ndarray, np.ndarray, float]:
    """One operator application: ``Wb U`` and ``U^T Wb U`` on the occupied slots, and ``f(U)``.

    ``f`` is summed over the ``d_occ x d_occ`` matrix of the occupied slots;
    an empty slot adds nothing, so ``f`` and its rounding do not depend on ``d``.
    """
    order, starts, _ = u.slot_runs
    p = wbar.times_assignment(u)
    mid = _pool_rows(p, order, starts)
    return p, mid, float((mid * mid.T).sum())


def _project(u: UniverseAssignment, p: np.ndarray, mid: np.ndarray) -> UniverseAssignment:
    """The next iterate: the lift ``Wb U (U^T Wb U)`` on the occupied slots, projected."""
    return project_to_universe(p @ mid, u.index, columns=u.slot_runs[2], d=u.d)


def iterates(
    wbar: WbarOperator, u: UniverseAssignment
) -> Iterator[tuple[UniverseAssignment, float]]:
    """The power iteration from ``u``: yields ``(U_t, f(U_t))`` for t = 0, 1, ...

    The lift ``Wb U_t (U_t^T Wb U_t)`` is formed and projected to ``U_{t+1}``
    only when the next item is requested, so a consumer that stops after
    ``U_t`` pays for no extra projection.  The sequence never ends on its own.
    """
    while True:
        p, mid, f = _evaluate(wbar, u)
        yield u, f
        u = _project(u, p, mid)


def objective(wbar: WbarOperator, u: UniverseAssignment) -> float:
    """``f(U) = ||U^T Wb U||_F^2``, evaluated through gather/scatter products."""
    return _evaluate(wbar, u)[2]


def _digest(u: UniverseAssignment) -> bytes:
    return hashlib.blake2b(u.assignment, digest_size=16).digest()


def hippi_solve(
    wbar: WbarOperator,
    u0: UniverseAssignment,
    config: SolverConfig | None = None,
) -> tuple[UniverseAssignment, SolverTrace]:
    """Run the projected power iteration from ``u0`` until an assignment repeats.

    Returns the final assignment together with a trace holding one objective
    value per iterate.  The run stops at the first iterate equal to an earlier
    one, a fixed point or a cycle, and then ``converged`` is True; hitting
    ``max_iters`` first leaves it False.  A repeated iterate is recognised as
    soon as the projection returns it, so the operator is never applied to it:
    its trace entry is the objective recorded when it was first evaluated,
    which the same assignment reproduces bit for bit.  The steps are those of
    :func:`iterates`.  One 16-byte digest and one float are kept per iterate,
    so the check costs O(iterations) memory whatever ``m`` is.
    """
    config = config or SolverConfig()
    objectives: list[float] = []
    seen: dict[bytes, float] = {}
    u = u0
    while True:
        digest = _digest(u)
        converged = digest in seen
        if converged:
            f = seen[digest]
        else:
            p, mid, f = _evaluate(wbar, u)
            seen[digest] = f
        objectives.append(f)
        if converged or len(objectives) == config.max_iters:
            break
        u = _project(u, p, mid)
    return u, SolverTrace(objectives=np.asarray(objectives), converged=converged)


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
