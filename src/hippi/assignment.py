"""The rectangular linear assignment solver and the projection onto valid assignments.

The projection of a dense score matrix onto the set of universe assignments
maximises ``<U, V>`` and decomposes into one independent rectangular LAP per
object block (rows = points, columns = universe slots, rows <= columns,
surplus columns simply stay free).  :func:`lap_exact` solves each block, a
plain score array, exactly with scipy's Jonker-Volgenant implementation.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from hippi.core import BlockIndex, UniverseAssignment


def lap_exact(scores: np.ndarray) -> np.ndarray:
    """Exactly optimal injective assignment of rows to columns (maximising).

    Returns each row's column.  Raises ``ValueError`` when there are more rows
    than columns or an entry is not finite (scipy would accept ``-inf``).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] > scores.shape[1]:
        raise ValueError(f"need a 2-D score block with rows <= cols, got {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    # With rows <= cols every row is assigned, so the row indices come back as
    # 0..rows-1 and the column indices are already in row order.
    _, col_ind = linear_sum_assignment(scores, maximize=True)
    return col_ind.astype(np.int64, copy=False)


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
    cols = np.concatenate([lap_exact(v[index.slice_of(i)]) for i in range(index.k)])
    cols.setflags(write=False)
    return UniverseAssignment(assignment=cols, d=d, index=index)
