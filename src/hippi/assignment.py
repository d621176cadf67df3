"""The rectangular linear assignment solver and the projection onto valid assignments.

The projection of a dense score matrix onto the set of universe assignments
maximises ``<U, V>`` and decomposes into one independent rectangular LAP per
object block (rows = points, columns = universe slots, rows <= columns,
surplus columns simply stay free).  :func:`lap_exact` solves each block, a
plain score array, exactly with scipy's shortest-augmenting-path solver.  Its
cost grows with the number of columns, so callers hand over only the columns
of the slots that may score nonzero (the solver's lift on its occupied slots,
an initialisation's anchor slots); the empty slots, which score zero, are
left out of the LAPs whenever that is exact, and otherwise only as many are
added as an object has points, so no array is sized by the universe.

scipy starts every solve from zero dual variables.  On the solver's lift,
a positive product of non-negative kernels, a few column effects dominate
every row, so the row maxima almost never point at the optimal columns and
every augmenting path runs long.  A block of at least
:data:`CENTRED_MIN_ROWS` rows whose scores are all positive is therefore
handed to :func:`lap_exact` in an equivalent form with the same optima: only
the columns some row ranks among its top ``n``, made square with zero rows,
with each row's and then each column's mean subtracted (see
:func:`project_to_universe` for why the optima do not change).  Smaller
blocks, and scores with a zero or a negative entry, such as those of the
spectral and greedy initialisations, are solved as they are.  Centring pays
only on column-dominated scores: on a 250-row lift block it cut the solve
from 40 to 15 ms, but on uniform random or tied small-integer scores of the
same size it was 1.7 to 55 times slower than the plain solve.  Positive
scores are the observable mark of the lift, which is column-dominated.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy.optimize import linear_sum_assignment

from hippi.core import BlockIndex, UniverseAssignment, finite_extremes

#: Fewest rows for which a positive block is solved in its centred square form.
#: On lift blocks of ``bench_instance`` the plain solve took 13.5 ms at 32 rows
#: and 31.0 ms at 48, the centred one 17.1 and 22.1 ms: break-even lies between.
CENTRED_MIN_ROWS = 40

#: Bound on a centred block's largest score times its column count.  Every
#: row or column sum then stays within a quarter of the float range and every
#: centred entry within twice the largest score, so no ``inf`` appears; a
#: block beyond it is solved as it is.
_CENTRED_MAX_TOTAL = sys.float_info.max / 4


def lap_exact(scores: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """Exactly optimal injective assignment of rows to columns (maximising).

    Returns each row's column.  Raises ``ValueError`` when there are more rows
    than columns or, with ``check_finite``, names the first row that holds a NaN
    or an infinity (``scores row 3 is not finite``; scipy would accept ``-inf``).
    A caller that has checked the scores already passes ``check_finite=False``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] > scores.shape[1]:
        raise ValueError(f"need a 2-D score block with rows <= cols, got {scores.shape}")
    if check_finite:
        finite_extremes(scores, lambda r: f"scores row {r}")
    # With rows <= cols every row is assigned, so the row indices come back as
    # 0..rows-1 and the column indices are already in row order.
    _, col_ind = linear_sum_assignment(scores, maximize=True)
    return col_ind.astype(np.int64, copy=False)


def _solve_block(block: np.ndarray, positive: bool) -> np.ndarray:
    """One finite block's columns: :func:`lap_exact` on the block, centred when that pays."""
    n, c = block.shape
    if not positive or n < CENTRED_MIN_ROWS or block.max() > _CENTRED_MAX_TOTAL / c:
        return lap_exact(block, check_finite=False)
    keep = np.arange(c)
    if c > n:
        nth = np.partition(block, c - n, axis=1)[:, c - n : c - n + 1]
        keep = np.flatnonzero((block >= nth).any(axis=0))
        block = block[:, keep]
    square = np.zeros((keep.size, keep.size))
    np.subtract(block, block.mean(axis=1, keepdims=True), out=square[:n])
    square -= square.mean(axis=0)
    return keep[lap_exact(square, check_finite=False)[:n]]


def project_to_universe(
    v: np.ndarray, index: BlockIndex, *, columns: np.ndarray, d: int
) -> UniverseAssignment:
    """Euclidean projection of an ``m x d`` score matrix onto assignments.

    Maximises ``<U, V>`` over all valid universe assignments, which is the
    Euclidean projection because ``<U, U> = m`` is constant on the set.  Solves
    the k blocks independently, one :func:`lap_exact` call each.

    ``v`` holds the scores of the strictly ascending slots ``columns`` of a
    universe of ``d`` slots; every other slot is empty and scores zero.

    If ``v`` has at least ``max_i m_i`` columns and every entry is positive,
    each block is solved on ``v``'s columns alone.  This is exact: an empty
    slot is a zero column, and in any assignment of a block that puts a row
    on one, fewer than ``m_i`` rows sit on ``v``'s columns, so one of them is
    free, and moving the row there raises the score by a positive entry.  No
    optimum uses an empty slot, so the optima of the restricted LAP are
    exactly those of the full one.  Otherwise the lowest ``max_i m_i`` empty
    slots (all of them, if fewer) join ``v`` as zero columns in slot order,
    which is exact too: a block of ``n <= max_i m_i`` rows uses at most ``n``
    empty slots, and all of them score alike.  So no array is sized by ``d``.

    When every solved score is positive, a block of ``n >= CENTRED_MIN_ROWS``
    rows and ``c`` columns goes to :func:`lap_exact` transformed in four
    steps, none of which changes its set of optimal assignments:

    1. Keep only the columns that some row ranks among its ``n`` largest
       entries, ties included.  A row on a column below its own ``n``-th
       largest entry has ``n`` better columns, at most ``n - 1`` of them
       taken by the other rows, and moving to a free one raises the score:
       no optimum uses such a column.
    2. Subtract each row's mean.  Every row is assigned exactly once, so
       every assignment's score falls by the same sum.
    3. Pad with zero rows to a square block.  Any assignment of the real
       rows extends to a permutation, and the padding rows add zero.
    4. Subtract each column's mean.  In a square problem every column is
       used exactly once, so again every score shifts by one constant.

    The padding rows' columns are discarded.  The centred scores make the
    row and column maxima agree with the optimum far more often, which is
    what shortens scipy's augmenting paths.  Scores so large that centring
    could overflow are solved as they are.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != index.m:
        raise ValueError(f"scores must be ({index.m}, width), got {v.shape}")
    width, largest, d = v.shape[1], max(index.sizes), index.universe(d)
    columns = np.asarray(columns)
    if (
        columns.shape != (width,)
        or (np.diff(columns) <= 0).any()
        or (width and (columns[0] < 0 or columns[-1] >= d))
    ):
        raise ValueError(f"columns must be {width} ascending slots in [0, {d})")
    # One finiteness check per lift: the blocks' LAPs skip theirs.
    lo, _ = finite_extremes(v, lambda g: f"object {index.owner[g]} row {index.local[g]}: score")
    positive = width >= largest and lo > 0
    pad = 0 if positive else min(d - width, largest)
    if pad:
        # The first ``width + pad`` slots hold at least ``pad`` empty ones.
        empty = np.setdiff1d(np.arange(width + pad), columns, assume_unique=True)[:pad]
        merged = np.union1d(columns, empty)
        padded = np.zeros((index.m, width + pad))
        padded[:, np.searchsorted(merged, columns)] = v
        v, columns = padded, merged
    cols = columns[
        np.concatenate([_solve_block(v[index.slice_of(i)], positive) for i in range(index.k)])
    ]
    cols.setflags(write=False)
    return UniverseAssignment(assignment=cols, d=d, index=index)
