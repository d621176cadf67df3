"""The rectangular linear assignment solver and the projection onto valid assignments.

The projection of a dense score matrix onto the set of universe assignments
maximises ``<U, V>`` and decomposes into one independent rectangular LAP per
object block (rows = points, columns = universe slots, rows <= columns,
surplus columns simply stay free).  :func:`lap_exact` solves each block, a
plain score array, exactly with scipy's Jonker-Volgenant implementation.  Its
cost grows with the number of columns, so all-zero columns, those of empty
universe slots in the solver's lift, are left out whenever that is exact.
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
    the k blocks independently, one :func:`lap_exact` call each.

    All-zero columns are left out of the LAPs when that cannot change the
    answer: let ``C`` be the columns of ``v`` that are not all zero.  If ``C``
    misses some column, ``|C| >= max_i m_i`` and every entry of ``v[:, C]`` is
    positive, each block is solved on ``v[:, C]`` alone.  This is exact: in
    any assignment of a block that puts a row on a zero column, fewer than
    ``m_i <= |C|`` rows sit on ``C``, so some column of ``C`` is free, and
    moving the row there raises the score by a positive entry.  Every optimum
    therefore uses ``C`` columns only, and the optima of the restricted LAP
    are exactly those of the full one.  Otherwise every block is solved over
    all ``d`` columns.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != index.m:
        raise ValueError(f"scores must be ({index.m}, d), got {v.shape}")
    d = v.shape[1]
    if d < max(index.sizes):
        raise ValueError(f"universe size {d} is smaller than the largest object")
    used = np.flatnonzero(v.any(axis=0))
    if max(index.sizes) <= used.size < d:
        restricted = np.take(v, used, axis=1)
        if restricted.min() > 0:
            v = restricted
    cols = np.concatenate([lap_exact(v[index.slice_of(i)]) for i in range(index.k)])
    if v.shape[1] < d:
        cols = used[cols]
    cols.setflags(write=False)
    return UniverseAssignment(assignment=cols, d=d, index=index)
