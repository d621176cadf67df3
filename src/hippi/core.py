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
safe to share across threads.  Every pass that reads an array by blocks, here
and in :mod:`hippi.kernels`, sizes them by :func:`block_rows`.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import groupby

import numpy as np
from scipy.sparse import csr_array

#: Ground-truth label for points that correspond to no universe point.
OUTLIER = -1

#: Entries per block of every blocked pass (1 MB of floats), so that a pass's
#: work arrays stay small whatever ``m`` is; the symmetry check's tiles are squares.
BLOCK_ENTRIES = 1 << 17


def block_rows(width: int) -> int:
    """Rows of ``width`` entries per block of :data:`BLOCK_ENTRIES` entries; at least 1."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


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
    t = math.isqrt(BLOCK_ENTRIES)
    return all(
        np.array_equal(a[r : r + t, c : c + t], a[c : c + t, r : r + t].T)
        for r in range(0, n, t)
        for c in range(r, n, t)
    )


def as_integer(value, what: str, at_least=None) -> int:
    """``value`` as an ``int``; a bool, fraction or non-number, or one below ``at_least``, raises.

    The ``ValueError`` names ``what``.  An integral float such as ``2.0`` is
    accepted, since JSON writers may emit one.
    """
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral and not (isinstance(value, (float, np.floating)) and value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if at_least is not None and value < at_least:
        raise ValueError(f"{what} must be >= {at_least}, got {int(value)}")
    return int(value)


def integer_fields(config, required=(), optional=(), at_least=None) -> None:
    """Pass the named fields of a frozen dataclass through :func:`as_integer`.

    A field in ``optional`` may also be ``None``; ``at_least`` maps a field to its least value.
    """
    bounds = at_least or {}
    for name in (*required, *optional):
        value = getattr(config, name)
        if value is not None or name in required:
            object.__setattr__(config, name, as_integer(value, name, bounds.get(name)))


def as_float(value, what: str) -> float:
    """``value`` as a ``float``; a bool, a non-number, NaN or infinity raises, naming ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def float_fields(config, names) -> None:
    """Pass the named fields of a frozen dataclass through :func:`as_float`."""
    for name in names:
        object.__setattr__(config, name, as_float(getattr(config, name), name))


def integer_array(a, name) -> np.ndarray:
    """``a`` as read-only ``int64``; a bool, fractional, non-finite or huge entry raises.

    ``2.0`` passes, as in :func:`as_integer`.  The error names ``name(*position)``.
    """
    a = np.asarray(a)
    bad = np.full(a.shape, a.dtype.kind not in "iuf")
    if a.dtype.kind in "uf":
        bad = ~(np.abs(a) < 2**63) | (a != np.trunc(a))
    if bad.any():
        pos = tuple(int(p) for p in np.argwhere(bad)[0])
        raise ValueError(f"{name(*pos)} must be an integer, got {a[pos].item()!r}")
    return _owned(a, np.int64)


def ground_truth_labels(truth, sizes) -> tuple[np.ndarray, ...]:
    """The one label rule: per object of ``sizes``, ``int64`` universe labels or OUTLIER."""
    labels = [np.asarray(g) for g in truth]
    if len(labels) != len(sizes):
        raise ValueError(f"ground truth labels {len(labels)} objects, not {len(sizes)}")
    for i, (g, n) in enumerate(zip(labels, sizes)):
        if g.shape != (n,):
            raise ValueError(f"object {i}: {g.size} ground-truth labels, {n} points")
        labels[i] = g = integer_array(g, lambda r: f"object {i} row {r}: ground-truth label")
        r = int(np.argmax(g < OUTLIER))
        if g[r] < OUTLIER:
            raise ValueError(f"object {i} row {r}: ground-truth label {g[r]} < {OUTLIER}")
    return tuple(labels)


def finite_extremes(a: np.ndarray, name) -> tuple[float, float]:
    """The min and max of a 2-D float array (``(inf, -inf)`` if empty): the one finiteness rule.

    The first row ``r`` with a NaN or an infinity raises ``f"{name(r)} is not finite"``.
    Whole rows are read by blocks of :func:`block_rows`, and each block's own
    extremes are tested, since ``min(lo, nan)`` is ``lo``.
    """
    lo, hi = np.inf, -np.inf
    step = block_rows(a.shape[1])
    for r in range(0, a.shape[0] if a.size else 0, step):
        block = a[r : r + step]
        b_lo, b_hi = float(block.min()), float(block.max())
        if not -np.inf < b_lo <= b_hi < np.inf:
            bad = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise ValueError(f"{name(r + bad)} is not finite")
        lo, hi = min(lo, b_lo), max(hi, b_hi)
    return lo, hi


def _fields_equal(self, other):
    """``==`` by fields: arrays by ``np.array_equal``, tuples entry by entry, else by ``==``."""
    if not isinstance(other, type(self)):
        return NotImplemented

    def same(a, b) -> bool:
        if isinstance(a, tuple):
            return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
        return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    return all(same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


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

    def universe(self, d) -> int:
        """``d`` as an ``int``, rejected unless ``d`` slots can hold the largest object.

        The one home of the universe-size rule: every type and function that
        takes a ``d`` passes it through here.
        """
        d = as_integer(d, "universe size d")
        if d < max(self.sizes):
            raise ValueError(
                f"universe size {d} is smaller than the largest object ({max(self.sizes)})"
            )
        return d


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
    __eq__ = _fields_equal

    def __post_init__(self):
        integer_fields(self, optional=("seed",), at_least={"seed": 0})
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
            if p.shape[1] != points[0].shape[1]:
                raise ValueError(f"object {i}: ambient dimension {p.shape[1]} is not object 0's")
            finite_extremes(p, lambda r: f"object {i}: points row {r}")
        for i, (p, f) in enumerate(zip(points, features)):
            if f.ndim != 2 or f.shape[0] != p.shape[0]:
                raise ValueError(f"object {i}: features must be (m_i, f) with m_i={p.shape[0]}")
            if f.shape[1] != features[0].shape[1]:
                raise ValueError(f"object {i}: feature dimension {f.shape[1]} is not object 0's")
            finite_extremes(f, lambda r: f"object {i}: features row {r}")
        gt = self.ground_truth
        gt = gt if gt is None else ground_truth_labels(gt, [len(p) for p in points])
        dist = self.distances
        if dist is not None:
            dist = tuple(_owned(dm, np.float64) for dm in dist)
            if len(dist) != len(points):
                raise ValueError("distance matrices must cover every object")
            for i, (dm, p) in enumerate(zip(dist, points)):
                n = p.shape[0]
                if dm.shape != (n, n):
                    raise ValueError(f"object {i}: distance matrix must be ({n}, {n})")
                lo, _ = finite_extremes(dm, lambda r: f"object {i}: distances row {r}")
                if not _exactly_symmetric(dm) or lo < 0:
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


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Dense ``m x m`` matrix of finite, non-negative cross-object similarity scores.

    Exactly symmetric by storage, with zero diagonal blocks (no intra-object
    similarities).  Outside this type the library reads ``W`` by ``gather`` and ``@`` only.
    """

    data: np.ndarray
    index: BlockIndex

    def __post_init__(self):
        data = _owned(self.data, np.float64)
        m = self.index.m
        if data.shape != (m, m):
            raise ValueError(f"similarity matrix must be ({m}, {m}), got {data.shape}")
        lo, _ = finite_extremes(data, lambda r: f"similarity matrix row {r}")
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

    def gather(self, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """``W @ U`` on the occupied slots; ``order`` and ``starts`` are from ``slot_runs``.

        ``W`` is exactly symmetric, so a slot's column is the sum of its points'
        rows, which are contiguous reads.  The rows are added left to right in
        ``order``, bit for bit as ``acc += W[q]`` point by point: for
        ``block_rows(m)`` slots at a time, a 0/1 CSR matrix picks their
        points' rows, and scipy's CSR-dense product adds each picked row into
        its slot's row of the result in that order.
        """
        out = np.empty((self.m, starts.size))
        bounds = np.append(starts, order.size)
        step = block_rows(self.m)
        for s in range(0, starts.size, step):
            ptr = bounds[s : s + step + 1]
            members = order[ptr[0] : ptr[-1]]
            shape = (ptr.size - 1, self.m)
            picks = csr_array((np.ones(members.size), members, ptr - ptr[0]), shape)
            out[:, s : s + shape[0]] = (picks @ self.data).T
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.data @ x


@dataclass(frozen=True, eq=False)
class MultiAdjacency:
    """Block-diagonal geometric kernel ``A = diag(A_1, ..., A_k)``.

    Each block is symmetric and expected to be positive semidefinite; that
    expectation is diagnosed, not enforced here: `kernels.assert_psd` owns
    the PSD policy.  The global matrix is never materialised.

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
            finite_extremes(b, lambda r: f"adjacency block {i} row {r}")
            if not _exactly_symmetric(b):
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
    __eq__ = _fields_equal

    def __post_init__(self):
        a, idx = np.asarray(self.assignment), self.index
        d = idx.universe(self.d)
        if a.shape != (idx.m,):
            raise ValueError(f"assignment must have length {idx.m}, got {a.shape}")
        a = integer_array(a, lambda r: f"object {idx.owner[r]} row {idx.local[r]}: slot")
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
    __eq__ = _fields_equal

    def __post_init__(self):
        t, idx = np.asarray(self.targets), self.index
        k, starts = idx.k, idx.offsets[:-1]
        if t.shape != (idx.m, k):
            raise ValueError(f"targets must be ({idx.m}, {k}), got {t.shape}")
        t = integer_array(t, lambda g, j: f"targets row {g} column {j}")
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
