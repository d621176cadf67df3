"""Core types for cycle-consistent multi-matching.

The points of all ``k`` objects are stacked into one global index range
``[0, m)``; :class:`BlockIndex` owns the translation between global indices,
``(object, local)`` pairs and block slices.  A matching state is a
:class:`UniverseAssignment`: every point gets exactly one of ``d`` universe
columns, and two points of different objects correspond iff they share a
column.  :func:`expand` materialises the implied pairwise matchings as a
:class:`PairwiseMatchingSet`: one ``m x k`` array of each point's match in
each object.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

#: Ground-truth label for points that correspond to no universe point.
OUTLIER = -1

#: Relative tolerance on the smallest eigenvalue of an adjacency block.
PSD_TOL = 1e-8

#: Tile side of the symmetry check, and rows per block of the finiteness check.
SYMMETRY_TILE = 256

#: Rows of ``W`` per block in :meth:`SimilarityMatrix.gather`; a block holds ``32 m`` floats.
GATHER_ROWS = 32


def _owned(a, dtype) -> np.ndarray:
    """A read-only, C-contiguous ``dtype`` array holding ``a``'s values.

    An input that is already C-contiguous, of ``dtype``, owns its data and is
    read-only is adopted unchanged; anything else is copied.  Adoption is what
    lets a freshly built ``m x m`` matrix be handed over without a second copy.
    A writeable view taken of the input before it was frozen, or a later
    ``setflags(write=True)`` on it, is the caller's responsibility: writes
    through either would change the adopted array.
    """
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a and a.flags.owndata and not a.flags.writeable:
        return a
    if out.base is not None or out is a:
        out = out.copy()
    out.setflags(write=False)
    return out


def _exactly_symmetric(a: np.ndarray) -> bool:
    """``np.array_equal(a, a.T)``, compared tile by tile so each read stays in cache."""
    n = a.shape[0]
    t = SYMMETRY_TILE
    return all(
        np.array_equal(a[r : r + t, c : c + t], a[c : c + t, r : r + t].T)
        for r in range(0, n, t)
        for c in range(r, n, t)
    )


def as_integer(value, what: str) -> int:
    """``value`` as an ``int``; a bool, a fractional number or a non-number raises.

    The ``ValueError`` names ``what``.  An integral float such as ``2.0`` is
    accepted, since JSON writers may emit one.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def integer_fields(config, required=(), optional=()) -> None:
    """Pass the named fields of a frozen dataclass through :func:`as_integer`.

    A field named in ``optional`` may also be ``None``.
    """
    for name in (*required, *optional):
        value = getattr(config, name)
        if value is not None or name in required:
            object.__setattr__(config, name, as_integer(value, name))


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN or infinities in a 2-D array, by row blocks, naming the first bad row."""
    for r in range(0, a.shape[0], SYMMETRY_TILE):
        bad_rows = np.flatnonzero(~np.isfinite(a[r : r + SYMMETRY_TILE]).all(axis=1))
        if bad_rows.size:
            raise ValueError(f"{what} row {r + int(bad_rows[0])} is not finite")


@dataclass(frozen=True)
class BlockIndex:
    """Index bookkeeping for ``k`` stacked objects of sizes ``(m_1, ..., m_k)``."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(as_integer(s, f"object {i}: size") for i, s in enumerate(self.sizes))
        if len(sizes) == 0:
            raise ValueError("need at least one object")
        if any(s < 1 for s in sizes):
            raise ValueError(f"every object needs at least one point, got sizes={sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        return self.offsets[-1]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Cumulative start rows, one per object, plus the total ``m`` at the end."""
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    @cached_property
    def owner(self) -> np.ndarray:
        """The object of each global point, as a read-only length-``m`` array."""
        return _owned(np.repeat(np.arange(self.k), self.sizes), np.int64)

    @cached_property
    def local(self) -> np.ndarray:
        """The local index of each global point in its object, read-only."""
        return _owned(np.arange(self.m) - np.array(self.offsets)[self.owner], np.int64)

    def slice_of(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A collection of k point sets with features and optional planted labels.

    ``points[i]`` is an ``(m_i, dim)`` coordinate array (dim 2 or 3) and
    ``features[i]`` an ``(m_i, f)`` descriptor array with ``f`` shared across
    objects.  ``ground_truth[i]``, when present, labels each point with its
    universe index or :data:`OUTLIER`.  ``distances[i]`` optionally carries a
    precomputed intra-object distance matrix (e.g. geodesic) that overrides
    Euclidean distances during adjacency construction.
    """

    points: tuple[np.ndarray, ...]
    features: tuple[np.ndarray, ...]
    ground_truth: tuple[np.ndarray, ...] | None = None
    distances: tuple[np.ndarray, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        points = tuple(_owned(p, np.float64) for p in self.points)
        features = tuple(_owned(f, np.float64) for f in self.features)
        if len(points) == 0:
            raise ValueError("need at least one object")
        if len(features) != len(points):
            raise ValueError("points and features must cover the same objects")
        for i, p in enumerate(points):
            if p.ndim != 2 or p.shape[0] < 1:
                raise ValueError(f"object {i}: points must be a nonempty (m_i, dim) array")
            if p.shape[1] not in (2, 3):
                raise ValueError(f"object {i}: ambient dimension must be 2 or 3, got {p.shape[1]}")
            _require_finite(p, f"object {i}: points")
        dim = points[0].shape[1]
        if any(p.shape[1] != dim for p in points):
            raise ValueError("all objects must share the same ambient dimension")
        fdim = features[0].shape[1] if features[0].ndim == 2 else -1
        for i, (p, f) in enumerate(zip(points, features)):
            if f.ndim != 2 or f.shape[0] != p.shape[0]:
                raise ValueError(f"object {i}: features must be (m_i, f) with m_i={p.shape[0]}")
            if f.shape[1] != fdim:
                raise ValueError("feature dimensionality must be identical across objects")
            _require_finite(f, f"object {i}: features")
        gt = self.ground_truth
        if gt is not None:
            gt = tuple(_owned(g, np.int64) for g in gt)
            if len(gt) != len(points) or any(
                g.shape != (p.shape[0],) for g, p in zip(gt, points)
            ):
                raise ValueError("ground truth must label every point of every object")
            if any(g.min() < OUTLIER for g in gt):
                raise ValueError(f"ground-truth labels must be >= {OUTLIER}")
        dist = self.distances
        if dist is not None:
            dist = tuple(_owned(dm, np.float64) for dm in dist)
            if len(dist) != len(points):
                raise ValueError("distance matrices must cover every object")
            for i, (dm, p) in enumerate(zip(dist, points)):
                n = p.shape[0]
                if dm.shape != (n, n):
                    raise ValueError(f"object {i}: distance matrix must be ({n}, {n})")
                _require_finite(dm, f"object {i}: distances")
                if not np.array_equal(dm, dm.T) or dm.min() < 0:
                    raise ValueError(f"object {i}: distances must be symmetric and non-negative")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "ground_truth", gt)
        object.__setattr__(self, "distances", dist)

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.index.sizes

    @property
    def m(self) -> int:
        return self.index.m

    @cached_property
    def index(self) -> BlockIndex:
        return BlockIndex(tuple(p.shape[0] for p in self.points))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            self.seed == other.seed
            and len(self.points) == len(other.points)
            and all(np.array_equal(a, b) for a, b in zip(self.points, other.points))
            and all(np.array_equal(a, b) for a, b in zip(self.features, other.features))
            and _opt_tuple_equal(self.ground_truth, other.ground_truth)
            and _opt_tuple_equal(self.distances, other.distances)
        )


def _opt_tuple_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Dense ``m x m`` matrix of finite, non-negative cross-object similarity scores.

    Exactly symmetric by storage, with zero diagonal blocks (no intra-object
    similarities).
    """

    data: np.ndarray
    index: BlockIndex

    def __post_init__(self):
        data = _owned(self.data, np.float64)
        m = self.index.m
        if data.shape != (m, m):
            raise ValueError(f"similarity matrix must be ({m}, {m}), got {data.shape}")
        # Each 16-row block's min and max, read while the block is in cache.
        # NaN and infinities reach the extremes, so these find any of them.
        ext = np.array([(b.min(), b.max()) for b in np.split(data, range(16, m, 16))])
        lo, hi = ext[:, 0].min(), ext[:, 1].max()
        if not np.isfinite([lo, hi]).all():
            _require_finite(data, "similarity matrix")
        if not _exactly_symmetric(data):
            raise ValueError("similarity matrix must be exactly symmetric")
        if lo < 0:
            raise ValueError("similarity scores must be non-negative")
        for i in range(self.index.k):
            s = self.index.slice_of(i)
            if np.any(data[s, s]):
                raise ValueError(f"diagonal block {i} must be zero")
        object.__setattr__(self, "data", data)

    @property
    def m(self) -> int:
        return self.index.m

    def block(self, i: int, j: int) -> np.ndarray:
        return self.data[self.index.slice_of(i), self.index.slice_of(j)]

    def gather(self, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """``W @ U`` on the occupied slots; ``order`` and ``starts`` are from ``slot_runs``.

        By blocks of :data:`GATHER_ROWS` rows, whose permuted columns stay in cache.
        """
        out = np.empty((self.m, starts.size))
        for r in range(0, self.m, GATHER_ROWS):
            rows = slice(r, r + GATHER_ROWS)
            out[rows] = np.add.reduceat(self.data[rows, order], starts, axis=1)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.data @ x

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityMatrix):
            return NotImplemented
        return self.index == other.index and np.array_equal(self.data, other.data)


@dataclass(frozen=True, eq=False)
class MultiAdjacency:
    """Block-diagonal geometric kernel ``A = diag(A_1, ..., A_k)``.

    Each block is symmetric and expected to be positive semidefinite within
    ``PSD_TOL`` (smallest eigenvalue >= -PSD_TOL * ||A_i||); that expectation
    is diagnosed, not enforced here, so that `kernels.assert_psd` can inspect
    and repair offending blocks.  The global matrix is never materialised.

    Each run of consecutive equal-size blocks is stored as one read-only
    ``(count, size, size)`` stack, and ``blocks`` holds views into the stacks,
    so :meth:`matmul` makes one batched product per run instead of one per
    block, and no block is held twice.
    """

    blocks: tuple[np.ndarray, ...]
    index: BlockIndex
    _runs: tuple[tuple[slice, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        idx = self.index
        if len(self.blocks) != idx.k:
            raise ValueError("need one adjacency block per object")
        blocks = []
        for i, (b, s) in enumerate(zip(self.blocks, idx.sizes)):
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (s, s):
                raise ValueError(f"block {i} must be ({s}, {s}), got {b.shape}")
            if not np.array_equal(b, b.T):
                raise ValueError(f"block {i} must be exactly symmetric")
            blocks.append(b)
        runs, views, first = [], [], 0
        for _, run in groupby(idx.sizes):
            last = first + len(list(run))
            stack = np.stack(blocks[first:last])
            stack.setflags(write=False)
            runs.append((slice(idx.offsets[first], idx.offsets[last]), stack))
            views.extend(stack)
            first = last
        object.__setattr__(self, "blocks", tuple(views))
        object.__setattr__(self, "_runs", tuple(runs))

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Apply the block-diagonal matrix to a global vector or matrix."""
        if x.shape[0] != self.index.m:
            raise ValueError(f"operand must have {self.index.m} rows, got {x.shape[0]}")
        # C order, so each run's rows of ``out`` reshape to a view that matmul fills.
        out = np.empty(x.shape)
        for rows, stack in self._runs:
            count, size, _ = stack.shape
            np.matmul(
                stack, x[rows].reshape(count, size, -1), out=out[rows].reshape(count, size, -1)
            )
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiAdjacency):
            return NotImplemented
        return self.index == other.index and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )


@dataclass(frozen=True, eq=False)
class UniverseAssignment:
    """Point-to-universe matching: column index in ``[0, d)`` for each point.

    Stored as a length-``m`` column-index vector rather than a dense binary
    matrix; products against it are gathers/scatters.  Within each object
    block the columns are pairwise distinct, so each block is a partial
    permutation with full row support.
    """

    assignment: np.ndarray
    d: int
    index: BlockIndex

    def __post_init__(self):
        a = _owned(self.assignment, np.int64)
        d = as_integer(self.d, "universe size d")
        idx = self.index
        if d < max(idx.sizes):
            raise ValueError(
                f"universe size {d} is smaller than the largest object ({max(idx.sizes)}); "
                "no valid assignment exists"
            )
        if a.shape != (idx.m,):
            raise ValueError(f"assignment must have length {idx.m}, got {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= d):
            raise ValueError(f"universe columns must lie in [0, {d})")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "d", d)
        # A stable sort by column keeps each column's points in object order, so
        # two points of one object on one column end up side by side.  Sorting,
        # not counting per (object, column), keeps the cost independent of d.
        # The sort is cached in ``slot_runs``, so the solver reuses it.
        order, _, _ = self.slot_runs
        col, owner = a[order], idx.owner[order]
        clash = owner[1:][(col[1:] == col[:-1]) & (owner[1:] == owner[:-1])]
        if clash.size:
            raise ValueError(
                f"object {int(clash.min())} assigns two points to the same universe column"
            )

    @property
    def m(self) -> int:
        return self.index.m

    def block(self, i: int) -> np.ndarray:
        return self.assignment[self.index.slice_of(i)]

    @cached_property
    def slot_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points grouped by slot, as ``(order, starts, occupied)``.

        ``order`` lists the points by ascending slot, stably; the points of the
        ``r``-th occupied slot ``occupied[r]`` start at ``order[starts[r]]``.
        Only occupied slots appear, so all three cost ``O(m log m)`` whatever
        ``d`` is.  This is the one grouping of points by slot: the solver,
        :func:`expand` and the f-score read it, so none of them depends on ``d``.
        """
        order = np.argsort(self.assignment, kind="stable")
        col = self.assignment[order]
        starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
        occupied = col[starts]
        for arr in (order, starts, occupied):
            arr.setflags(write=False)
        return order, starts, occupied

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniverseAssignment):
            return NotImplemented
        return (
            self.index == other.index
            and self.d == other.d
            and np.array_equal(self.assignment, other.assignment)
        )


@dataclass(frozen=True, eq=False)
class PairwiseMatchingSet:
    """All k^2 pairwise partial permutations, as one read-only ``m x k`` array.

    ``targets[g, j]`` is the local index in object ``j`` of global point
    ``g``'s match, or -1: the pairwise counterpart of
    :class:`UniverseAssignment`'s length-``m`` vector.  The map ``(i, j)``
    is column ``j`` of object ``i``'s rows, and its non-negative entries are
    pairwise distinct, which is exactly the partial-permutation condition.
    """

    targets: np.ndarray
    index: BlockIndex

    def __post_init__(self):
        t = _owned(self.targets, np.int64)
        idx = self.index
        k, starts = idx.k, idx.offsets[:-1]
        if t.shape != (idx.m, k):
            raise ValueError(f"targets must be ({idx.m}, {k}), got {t.shape}")
        sizes = np.array(idx.sizes)
        bad = np.add.reduceat((t < -1) | (t >= sizes), starts, axis=0, dtype=np.int64)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"map ({i},{j}) entries must lie in [-1, {sizes[j]})")
        # One key per (map, target): a repeated key is a target hit twice in one map.
        g, j = np.nonzero(t >= 0)
        width = int(sizes.max())
        key = np.sort((idx.owner[g] * k + j) * width + t[g, j])
        clash = key[1:][key[1:] == key[:-1]]
        if clash.size:
            i, j = divmod(int(clash[0]) // width, k)
            raise ValueError(f"map ({i},{j}) matches two points to the same target")
        object.__setattr__(self, "targets", t)

    @property
    def k(self) -> int:
        return self.index.k

    def block_map(self, i: int, j: int) -> np.ndarray:
        """The map ``(i, j)``, as a read-only view."""
        return self.targets[self.index.slice_of(i), j]

    def global_matches(self, *, upper=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each match, row-major, as arrays ``(g, j, h)``: global point ``g`` to ``h`` in ``j``.

        With ``upper``, only the matches into a later object, so each
        cross-object pair appears once.
        """
        hit = self.targets >= 0
        if upper:
            hit &= np.arange(self.k) > self.index.owner[:, None]
        g, j = np.nonzero(hit)
        return g, j, np.array(self.index.offsets)[j] + self.targets[g, j]

    def to_matrix(self) -> np.ndarray:
        """The binary ``m x m`` block matrix of all k^2 maps (small instances only)."""
        g, _, h = self.global_matches()
        x = np.zeros((self.index.m, self.index.m))
        x[g, h] = 1.0
        return x

    def mirrored(self) -> np.ndarray:
        """``(m, k)`` mask of the matches whose target is matched straight back."""
        g, j, h = self.global_matches()
        out = np.zeros(self.targets.shape, dtype=bool)
        out[g, j] = self.targets[h, self.index.owner[g]] == self.index.local[g]
        return out

    def matched_pairs(self):
        """Iterate cross-object matches once each, as ``(i, p, j, q)`` with i < j, by i, j, p."""
        g, j, h = self.global_matches(upper=True)
        order = np.lexsort((g, j, self.index.owner[g]))
        g, h = g[order], h[order]
        owner, local = self.index.owner, self.index.local
        return zip(owner[g].tolist(), local[g].tolist(), owner[h].tolist(), local[h].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairwiseMatchingSet):
            return NotImplemented
        return self.index == other.index and np.array_equal(self.targets, other.targets)


def expand(u: UniverseAssignment) -> PairwiseMatchingSet:
    """Materialise the pairwise matchings implied by a universe assignment.

    Blockwise this is ``X_ij = U_i U_j^T``: points match iff they share a
    universe column, so one gather from the ``(d_occ, k)`` table of each
    occupied slot's point in each object builds it, cycle-consistent by
    construction.  A point's row in the table is its slot's rank among the
    occupied slots of :attr:`~UniverseAssignment.slot_runs`, so neither cost
    nor result depends on ``d``.
    """
    idx = u.index
    occupied = u.slot_runs[2]
    rank = np.searchsorted(occupied, u.assignment)
    slot_point = np.full((occupied.size, idx.k), -1, dtype=np.int64)
    slot_point[rank, idx.owner] = idx.local
    targets = slot_point[rank]
    targets.setflags(write=False)
    return PairwiseMatchingSet(targets=targets, index=idx)
