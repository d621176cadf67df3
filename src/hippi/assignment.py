"""The rectangular linear assignment solver and the projection onto valid assignments.

The projection of a dense score matrix onto the set of universe assignments
maximises ``<U, V>`` and decomposes into one independent rectangular LAP per
object block (rows = points, columns = universe slots, rows <= columns,
surplus columns simply stay free).  Each block is solved exactly by scipy's
Jonker-Volgenant implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from hippi.core import BlockIndex, UniverseAssignment

@dataclass(frozen=True)
class ScoreBlock:
    """One object's slice of the score matrix: ``rows`` points, ``cols`` slots."""

    rows: int
    cols: int
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (self.rows, self.cols):
            raise ValueError(f"scores must be ({self.rows}, {self.cols}), got {scores.shape}")
        if self.rows > self.cols:
            raise ValueError(f"need rows <= cols, got {self.rows} > {self.cols}")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", scores)

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "ScoreBlock":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(rows=scores.shape[0], cols=scores.shape[1], scores=scores)


def lap_exact(block: ScoreBlock) -> np.ndarray:
    """Exactly optimal injective assignment of rows to columns (maximising)."""
    # With rows <= cols every row is assigned, so the row indices come back as
    # 0..rows-1 and the column indices are already in row order.
    _, col_ind = linear_sum_assignment(block.scores, maximize=True)
    return col_ind.astype(np.int64, copy=False)


def objective_value(block: ScoreBlock, assignment: np.ndarray) -> float:
    return float(block.scores[np.arange(block.rows), assignment].sum())


def project_to_universe(v: np.ndarray, index: BlockIndex) -> UniverseAssignment:
    """Euclidean projection of a dense ``m x d`` score matrix onto assignments.

    Maximises ``<U, V>`` over all valid universe assignments, which is the
    Euclidean projection because ``<U, U> = m`` is constant on the set.  Solves
    the k blocks independently.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != index.m:
        raise ValueError(f"scores must be ({index.m}, d), got {v.shape}")
    d = v.shape[1]
    if d < max(index.sizes):
        raise ValueError(f"universe size {d} is smaller than the largest object")
    parts = [lap_exact(ScoreBlock.from_scores(v[index.slice_of(i)])) for i in range(index.k)]
    return UniverseAssignment(assignment=np.concatenate(parts), d=d, index=index)
