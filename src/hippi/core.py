"""Core types for cycle-consistent multi-matching.

The points of all ``k`` objects are stacked into one global index range
``[0, m)``; :class:`BlockIndex` owns the translation between global indices,
``(object, local)`` pairs and block slices.  A matching state is a
:class:`UniverseAssignment`: every point gets exactly one of ``d`` universe
columns, and two points of different objects correspond iff they share a
column.  :func:`expand` materialises the implied pairwise matchings.

All types are immutable after construction (arrays are marked read-only) and
safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Ground-truth label for points that correspond to no universe point.
OUTLIER = -1

#: Relative tolerance on the smallest eigenvalue of an adjacency block.
PSD_TOL = 1e-8

#: Side of the square tiles on which a similarity matrix's symmetry is checked.
SYMMETRY_TILE = 256


def _owned(a, dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
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


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN or infinite entries of a 2-D array, naming the first bad row."""
    bad_rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{what} row {int(bad_rows[0])} is not finite")


@dataclass(frozen=True)
class BlockIndex:
    """Index bookkeeping for ``k`` stacked objects of sizes ``(m_1, ..., m_k)``."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
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

    def slice_of(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def global_to_local(self, g: int) -> tuple[int, int]:
        """Map a global point index to its ``(object, local)`` pair."""
        g = int(g)
        if not 0 <= g < self.m:
            raise ValueError(f"global index {g} out of range [0, {self.m})")
        i = bisect_right(self.offsets, g) - 1
        return i, g - self.offsets[i]

    def local_to_global(self, i: int, p: int) -> int:
        if not 0 <= i < self.k:
            raise ValueError(f"object index {i} out of range [0, {self.k})")
        if not 0 <= p < self.sizes[i]:
            raise ValueError(f"local index {p} out of range [0, {self.sizes[i]})")
        return self.offsets[i] + p


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

    @property
    def feature_dim(self) -> int:
        return self.features[0].shape[1]

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
    """Dense ``m x m`` matrix of non-negative cross-object similarity scores.

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
        if not _exactly_symmetric(data):
            raise ValueError("similarity matrix must be exactly symmetric")
        if data.min() < 0:
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
    """

    blocks: tuple[np.ndarray, ...]
    index: BlockIndex

    def __post_init__(self):
        blocks = tuple(_owned(b, np.float64) for b in self.blocks)
        if len(blocks) != self.index.k:
            raise ValueError("need one adjacency block per object")
        for i, (b, s) in enumerate(zip(blocks, self.index.sizes)):
            if b.shape != (s, s):
                raise ValueError(f"block {i} must be ({s}, {s}), got {b.shape}")
            if not np.array_equal(b, b.T):
                raise ValueError(f"block {i} must be exactly symmetric")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return self.index.m

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Apply the block-diagonal matrix to a global vector or matrix."""
        if x.shape[0] != self.index.m:
            raise ValueError(f"operand must have {self.index.m} rows, got {x.shape[0]}")
        out = np.empty_like(x, dtype=np.float64)
        for i, b in enumerate(self.blocks):
            s = self.index.slice_of(i)
            out[s] = b @ x[s]
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
        d = int(self.d)
        idx = self.index
        if a.shape != (idx.m,):
            raise ValueError(f"assignment must have length {idx.m}, got {a.shape}")
        if d < max(idx.sizes):
            raise ValueError(
                f"universe size {d} is smaller than the largest object ({max(idx.sizes)}); "
                "no valid assignment exists"
            )
        if a.size and (a.min() < 0 or a.max() >= d):
            raise ValueError(f"universe columns must lie in [0, {d})")
        # A stable sort by column keeps each column's points in object order, so
        # two points of one object on one column end up side by side.  Sorting,
        # not counting per (object, column), keeps the cost independent of d.
        order = np.argsort(a, kind="stable")
        col, owner = a[order], np.repeat(np.arange(idx.k), idx.sizes)[order]
        clash = owner[1:][(col[1:] == col[:-1]) & (owner[1:] == owner[:-1])]
        if clash.size:
            raise ValueError(
                f"object {int(clash.min())} assigns two points to the same universe column"
            )
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return self.index.m

    def block(self, i: int) -> np.ndarray:
        return self.assignment[self.index.slice_of(i)]

    def to_dense(self) -> np.ndarray:
        """Materialise the binary ``m x d`` matrix (small instances only)."""
        u = np.zeros((self.index.m, self.d))
        u[np.arange(self.index.m), self.assignment] = 1.0
        return u

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
    """All k^2 pairwise partial permutations, stored sparsely.

    ``maps[i][j]`` holds, for each point of object ``i``, the local index of
    its match in object ``j`` or ``-1``; non-negative entries are pairwise
    distinct, which is exactly the partial-permutation condition.
    """

    maps: tuple[tuple[np.ndarray, ...], ...]
    index: BlockIndex

    def __post_init__(self):
        idx = self.index
        if len(self.maps) != idx.k or any(len(row) != idx.k for row in self.maps):
            raise ValueError(f"need a {idx.k} x {idx.k} grid of match maps")
        frozen = []
        for i, row in enumerate(self.maps):
            frow = []
            for j, mp in enumerate(row):
                mp = _owned(mp, np.int64)
                if mp.shape != (idx.sizes[i],):
                    raise ValueError(f"map ({i},{j}) must have length {idx.sizes[i]}")
                hit = mp[mp >= 0]
                if hit.size and hit.max() >= idx.sizes[j]:
                    raise ValueError(f"map ({i},{j}) points outside object {j}")
                if np.unique(hit).size != hit.size:
                    raise ValueError(f"map ({i},{j}) matches two points to the same target")
                frow.append(mp)
            frozen.append(tuple(frow))
        object.__setattr__(self, "maps", tuple(frozen))

    @property
    def k(self) -> int:
        return self.index.k

    def block_map(self, i: int, j: int) -> np.ndarray:
        return self.maps[i][j]

    def block_dense(self, i: int, j: int) -> np.ndarray:
        """The binary ``m_i x m_j`` matching matrix of one block."""
        mp = self.maps[i][j]
        x = np.zeros((self.index.sizes[i], self.index.sizes[j]))
        rows = np.flatnonzero(mp >= 0)
        x[rows, mp[rows]] = 1.0
        return x

    def matched_pairs(self):
        """Iterate cross-object matches once each, as ``(i, p, j, q)`` with i < j."""
        for i in range(self.k):
            for j in range(i + 1, self.k):
                mp = self.maps[i][j]
                for p in np.flatnonzero(mp >= 0):
                    yield i, int(p), j, int(mp[p])

    def match_count(self) -> int:
        return sum(int((self.maps[i][j] >= 0).sum()) for i in range(self.k) for j in range(i + 1, self.k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairwiseMatchingSet):
            return NotImplemented
        return self.index == other.index and all(
            np.array_equal(self.maps[i][j], other.maps[i][j])
            for i in range(self.k)
            for j in range(self.k)
        )


def expand(u: UniverseAssignment) -> PairwiseMatchingSet:
    """Materialise the pairwise matchings implied by a universe assignment.

    Blockwise this is ``X_ij = U_i U_j^T``: points match iff they share a
    universe column.  The result is cycle-consistent by construction.
    """
    idx = u.index
    owners = []
    for j in range(idx.k):
        owner = np.full(u.d, -1, dtype=np.int64)
        owner[u.block(j)] = np.arange(idx.sizes[j])
        owners.append(owner)
    maps = tuple(
        tuple(owners[j][u.block(i)] for j in range(idx.k)) for i in range(idx.k)
    )
    return PairwiseMatchingSet(maps=maps, index=idx)
