"""Projected power iteration for cycle-consistent multi-matching.

The solver maximises ``f(U) = tr(U^T Wb U U^T Wb U) = ||U^T Wb U||_F^2`` over
universe assignments ``U``, where ``Wb = W^T A W`` couples the inter-object
similarity ``W`` with the block-diagonal intra-object adjacency ``A``.  Each
iteration lifts the current assignment through ``V = Wb U (U^T Wb U)`` and
projects ``V`` back onto the assignment set with per-block LAPs; that step is
:class:`Iterate`.  When ``Wb`` is positive semidefinite the objective never
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
``f`` is summed over those slots alone.  No array of an iteration is sized
by ``d``: the projection adds at most ``max_i m_i`` empty slots to a lift
with a non-positive score.  One iteration costs ``O(m^2 d_occ)`` plus ``k`` LAPs
over the used columns, and the lift reaches
:func:`~hippi.assignment.project_to_universe` in that compact ``m x d_occ``
form with its slot numbers.  The solver never reads ``W``'s storage: it
takes ``W U`` from ``W``'s ``gather`` and ``W X`` from its ``@``, so a new
kind of ``W`` plugs in as one type.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hippi.assignment import project_to_universe
from hippi.core import (
    BlockIndex,
    MultiAdjacency,
    SimilarityMatrix,
    UniverseAssignment,
    integer_fields,
)


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


class Iterate:
    """One step of the power iteration: ``U_t``, then lazily ``f(U_t)`` and ``U_{t+1}``.

    ``Wb`` is applied to :attr:`u` at most once, on the first read of
    :attr:`objective` or :meth:`successor`; ``Wb U`` and ``U^T Wb U`` are kept
    on the occupied slots.  ``f`` is summed over that ``d_occ x d_occ`` matrix,
    so an empty slot adds nothing and ``f`` and its rounding do not depend on
    ``d``.  Every walk of the iteration goes through this step.
    """

    def __init__(self, wbar: WbarOperator, u: UniverseAssignment):
        self.wbar = wbar
        self.u = u

    @cached_property
    def _applied(self) -> tuple[np.ndarray, np.ndarray]:
        order, starts, _ = self.u.slot_runs
        p = self.wbar.times_assignment(self.u)
        return p, np.add.reduceat(p[order], starts, axis=0)  # U^T p: rows added into slots

    @cached_property
    def objective(self) -> float:
        """``f(U_t) = ||U^T Wb U||_F^2``."""
        mid = self._applied[1]
        return float((mid * mid.T).sum())

    def successor(self) -> Iterate:
        """``U_{t+1}``: the lift ``Wb U (U^T Wb U)`` on the occupied slots, projected."""
        p, mid = self._applied
        u = self.u
        return Iterate(
            self.wbar, project_to_universe(p @ mid, u.index, columns=u.slot_runs[2], d=u.d)
        )


def objective(wbar: WbarOperator, u: UniverseAssignment) -> float:
    """``f(U) = ||U^T Wb U||_F^2``, evaluated through gather/scatter products."""
    return Iterate(wbar, u).objective


def hippi_solve(
    wbar: WbarOperator,
    u0: UniverseAssignment,
    config: SolverConfig | None = None,
) -> tuple[UniverseAssignment, SolverTrace]:
    """Run the projected power iteration from ``u0`` until an assignment repeats.

    Returns the final assignment together with a trace holding one objective
    value per iterate.  The run stops at the first iterate equal to an earlier
    one, a fixed point or a cycle, and then ``converged`` is True; hitting
    ``max_iters`` first leaves it False.  Each :class:`Iterate` is digested
    before its objective is read, so the operator is never applied to a
    repeated iterate: its trace entry is the objective recorded when it was
    first evaluated, which the same assignment reproduces bit for bit.  One
    16-byte digest and one float are kept per iterate, so the check costs
    O(iterations) memory whatever ``m`` is.
    """
    config = config or SolverConfig()
    objectives: list[float] = []
    seen: dict[bytes, float] = {}
    it = Iterate(wbar, u0)
    while True:
        digest = hashlib.blake2b(it.u.assignment, digest_size=16).digest()
        converged = digest in seen
        if not converged:
            seen[digest] = it.objective
        objectives.append(seen[digest])
        if converged or len(objectives) == config.max_iters:
            return it.u, SolverTrace(objectives=np.asarray(objectives), converged=converged)
        it = it.successor()


def universe_size(index: BlockIndex, d: int | None = None) -> int:
    """The number of universe slots for a problem, checked by :meth:`BlockIndex.universe`.

    ``d`` if given, else twice the mean object size rounded up, at least the
    largest object.
    """
    if d is None:
        d = max(-(-2 * index.m // index.k), max(index.sizes))
    return index.universe(d)
