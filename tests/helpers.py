"""Shared test fixtures and independent brute-force oracles.

Everything here deliberately avoids the library's optimised code paths:
oracles use dense matrices, scalar loops and exhaustive enumeration so that
they stay independent of what they check.
"""

from itertools import permutations, product

import numpy as np
from scipy.linalg import block_diag
from scipy.spatial.distance import cdist, pdist, squareform

from hippi.core import (
    BlockIndex,
    MultiAdjacency,
    PairwiseMatchingSet,
    ProblemInstance,
    SimilarityMatrix,
    UniverseAssignment,
    as_integer,
)


def brute_force_lap(scores: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exhaustive rectangular LAP (maximise); returns (objective, assignment)."""
    rows, cols = scores.shape
    assert rows <= cols, "oracle expects rows <= cols"
    best_obj, best_a = -np.inf, None
    for a in permutations(range(cols), rows):
        obj = sum(scores[p, a[p]] for p in range(rows))
        if obj > best_obj:
            best_obj, best_a = obj, a
    return float(best_obj), best_a


def enumerate_assignments(sizes, d):
    """Yield every valid universe assignment (as a flat tuple) for tiny instances."""
    per_object = [permutations(range(d), s) for s in sizes]
    for combo in product(*per_object):
        yield tuple(c for block in combo for c in block)


def to_dense(u: UniverseAssignment) -> np.ndarray:
    """The binary ``m x d`` matrix ``U`` of a universe assignment, one point at a time."""
    dense = np.zeros((u.index.m, u.d))
    for g, slot in enumerate(u.assignment.tolist()):
        dense[g, slot] = 1.0
    return dense


def slots_of(u: UniverseAssignment, i: int) -> np.ndarray:
    """The slots of object ``i``'s points, as a read-only view."""
    return u.assignment[u.index.slice_of(i)]


def block_map(x: PairwiseMatchingSet, i: int, j: int) -> np.ndarray:
    """The map ``(i, j)``: each point of object ``i``'s match in ``j``, as a read-only view."""
    return x.targets[x.index.slice_of(i), j]


def dense_expand(u: UniverseAssignment) -> np.ndarray:
    """Pairwise matching matrix X = U U^T from the dense binary U."""
    dense = to_dense(u)
    return dense @ dense.T


def block_dense(x: PairwiseMatchingSet, i: int, j: int) -> np.ndarray:
    """The binary ``m_i x m_j`` matching matrix of the map ``(i, j)``."""
    dense = np.zeros((x.index.sizes[i], x.index.sizes[j]))
    for p, q in enumerate(block_map(x, i, j).tolist()):
        if q >= 0:
            dense[p, q] = 1.0
    return dense


def match_count(x: PairwiseMatchingSet) -> int:
    """Cross-object matches, each unordered pair once: the entries of the maps ``(i, j)``, i < j."""
    return sum(
        int(np.sum(block_map(x, i, j) >= 0)) for i in range(x.k) for j in range(i + 1, x.k)
    )


def block(w: SimilarityMatrix, i: int, j: int) -> np.ndarray:
    """The ``m_i x m_j`` block ``(i, j)`` of a ``SimilarityMatrix``, sliced from its storage."""
    return w.data[w.index.slice_of(i), w.index.slice_of(j)]


def row_sum(w: np.ndarray, members) -> np.ndarray:
    """The sum of ``w``'s rows ``members``, added left to right one row at a time."""
    acc = w[members[0]].copy()
    for q in members[1:]:
        acc += w[q]
    return acc


class PlainSimilarity:
    """A symmetric ``W`` for ``WbarOperator`` without :class:`SimilarityMatrix`'s checks.

    For tests whose ``W`` has negative entries or non-zero diagonal blocks.
    ``gather`` adds each slot's rows of ``W`` one point at a time, in
    ``order`` (as in :func:`unblocked_gather`), and ``@`` is a plain product.
    """

    def __init__(self, w, index: BlockIndex):
        self.w = np.asarray(w, dtype=np.float64)
        self.index = index

    def gather(self, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
        slots = np.split(order, starts[1:])
        return np.column_stack([row_sum(self.w, members) for members in slots])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.w @ x


def dense_wbar(op) -> np.ndarray:
    """``Wb = W A W`` of a ``WbarOperator`` as plain dense products (``A = I`` if absent).

    ``W`` is densified through the operator's own ``@``.
    """
    m = op.index.m
    w = op.similarity @ np.eye(m)
    a = np.eye(m) if op.adjacency is None else block_diag(*op.adjacency.blocks)
    return w @ a @ w


def naive_objective(wbar: np.ndarray, u_dense: np.ndarray) -> float:
    """Scalar quadruple-loop evaluation of tr(U^T Wb U U^T Wb U)."""
    m, d = u_dense.shape
    inner = [[0.0] * d for _ in range(d)]
    for c1 in range(d):
        for c2 in range(d):
            acc = 0.0
            for p in range(m):
                if u_dense[p, c1] == 0.0:
                    continue
                for q in range(m):
                    acc += wbar[p, q] * u_dense[q, c2]
            inner[c1][c2] = acc
    return float(sum(inner[c1][c2] * inner[c2][c1] for c1 in range(d) for c2 in range(d)))


def naive_cycle_violations(blocks: list[list[np.ndarray]]) -> tuple[int, int, int]:
    """Dense-matrix consistency check, one count per constraint instance.

    Returns (identity, symmetry, transitivity) violation entry counts:
    identity per object, symmetry per unordered object pair, transitivity per
    composition i -> j -> l with i <= l (the reverse orientation is the same
    constraint transposed).
    """
    k = len(blocks)
    ident = sym = trans = 0
    for i in range(k):
        ident += int(np.sum(blocks[i][i] != np.eye(blocks[i][i].shape[0])))
    for i in range(k):
        for j in range(i, k):
            sym += int(np.sum(blocks[i][j] != blocks[j][i].T))
    for i in range(k):
        for l in range(i, k):
            for j in range(k):
                comp = blocks[i][j] @ blocks[j][l]
                trans += int(np.sum(comp > blocks[i][l] + 1e-12))
    return ident, sym, trans


def naive_cycle_error(blocks: list[list[np.ndarray]]) -> float:
    """Dense re-computation of the three-cycle violation fraction."""
    k = len(blocks)
    violations = 0
    total = 0
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if len({i, j, l}) < 3:
                    continue
                comp = blocks[i][j] @ blocks[j][l]
                total += int(comp.sum())
                violations += int(np.sum(comp > blocks[i][l] + 1e-12))
    return violations / total if total > 0 else 0.0


def pack_maps(maps, index: BlockIndex) -> PairwiseMatchingSet:
    """A matching set from a nested ``k x k`` grid of block maps.

    ``maps[i][j][p]`` is the local index in object ``j`` of point ``p`` of
    object ``i``'s match, or -1; each block map becomes column ``j`` of
    object ``i``'s rows.
    """
    targets = np.vstack([np.column_stack(row) for row in maps])
    return PairwiseMatchingSet(targets=targets, index=index)


def unpack_maps(x: PairwiseMatchingSet) -> list[list[np.ndarray]]:
    """The nested grid of writeable block-map copies that :func:`pack_maps` packs."""
    return [[block_map(x, i, j).copy() for j in range(x.k)] for i in range(x.k)]


def _compose(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Follow two match maps; any unmatched hop yields -1."""
    out = np.full(first.shape, -1, dtype=np.int64)
    hit = first >= 0
    out[hit] = then[first[hit]]
    return out


def _inverse_map(mp: np.ndarray, target_size: int) -> np.ndarray:
    inv = np.full(target_size, -1, dtype=np.int64)
    src = np.flatnonzero(mp >= 0)
    inv[mp[src]] = src
    return inv


def loop_cycle_violations(x) -> tuple[int, int, int]:
    """(identity, symmetry, transitivity) counts with one Python loop per map or triple.

    The same counting rules as ``metrics.verify_cycle_consistency``, one
    composition at a time over the integer maps.
    """
    k, sizes = x.k, x.index.sizes
    identity = 0
    for i in range(k):
        mp = block_map(x, i, i)
        on_diagonal = mp == np.arange(sizes[i])
        identity += int(np.sum(~on_diagonal & (mp >= 0)) * 2)
        identity += int(np.sum(~on_diagonal & (mp < 0)))
    symmetry = 0
    for i in range(k):
        for j in range(i, k):
            forward = block_map(x, i, j)
            backward = _inverse_map(block_map(x, j, i), sizes[i])
            both = int(np.sum((forward >= 0) & (forward == backward)))
            symmetry += int(np.sum(forward >= 0)) + int(np.sum(backward >= 0)) - 2 * both
    transitivity = 0
    for i in range(k):
        for l in range(i, k):
            direct = block_map(x, i, l)
            for j in range(k):
                comp = _compose(block_map(x, i, j), block_map(x, j, l))
                transitivity += int(np.sum((comp >= 0) & (comp != direct)))
    return identity, symmetry, transitivity


def loop_cycle_error(x) -> float:
    """``CycleReport.cycle_error`` with one Python loop iteration per ordered triple."""
    k = x.k
    violations = total = 0
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if len({i, j, l}) < 3:
                    continue
                comp = _compose(block_map(x, i, j), block_map(x, j, l))
                hit = comp >= 0
                total += int(np.sum(hit))
                violations += int(np.sum(hit & (comp != block_map(x, i, l))))
    return violations / total if total > 0 else 0.0


def loop_load_pairwise(doc: dict) -> PairwiseMatchingSet:
    """A parsed pairwise document as a matching set, one match at a time.

    The per-match reader that ``io.load_pairwise`` replaced: each entry is
    converted, range-checked and checked against the cells earlier entries
    wrote before it is written, so the first bad entry in file order raises.
    """
    index = BlockIndex(sizes=tuple(doc["sizes"]))
    targets = np.full((index.m, index.k), -1, dtype=np.int64)
    targets[np.arange(index.m), index.owner] = index.local
    for e, entry in enumerate(doc["matches"]):
        i, p, j, q = (
            v if type(v) is int else as_integer(v, f"match {e} field {r}")
            for r, v in enumerate(entry)
        )
        if not (0 <= i < index.k and 0 <= j < index.k) or i == j:
            raise ValueError(f"match {entry} names an invalid object pair")
        if not (0 <= p < index.sizes[i] and 0 <= q < index.sizes[j]):
            raise ValueError(f"match {entry} names a point outside its object")
        g, h = index.offsets[i] + p, index.offsets[j] + q
        if targets[g, j] not in (-1, q) or targets[h, i] not in (-1, p):
            raise ValueError(f"match {entry} conflicts with an earlier one")
        targets[g, j] = q
        targets[h, i] = p
    return PairwiseMatchingSet(targets=targets, index=index)


def random_assignment(rng: np.random.Generator, sizes, d) -> UniverseAssignment:
    idx = BlockIndex(tuple(sizes))
    cols = np.concatenate([rng.permutation(d)[:s] for s in sizes])
    return UniverseAssignment(assignment=cols, d=d, index=idx)


def integer_similarity(rng: np.random.Generator, sizes, high=4) -> SimilarityMatrix:
    """Random symmetric integer-valued similarity with zero diagonal blocks."""
    idx = BlockIndex(tuple(sizes))
    m = idx.m
    w = rng.integers(0, high, size=(m, m)).astype(float)
    w = np.triu(w, 1)
    w = w + w.T
    for i in range(idx.k):
        s = idx.slice_of(i)
        w[s, s] = 0.0
    return SimilarityMatrix(data=w, index=idx)


def uniform_similarity(rng: np.random.Generator, index: BlockIndex) -> SimilarityMatrix:
    """Random symmetric similarity, entries uniform in ``[0, 1)``, diagonal blocks zeroed."""
    w = rng.uniform(0.0, 1.0, size=(index.m, index.m))
    w = np.triu(w) + np.triu(w, 1).T
    for i in range(index.k):
        s = index.slice_of(i)
        w[s, s] = 0.0
    return SimilarityMatrix(data=w, index=index)


def integer_psd_adjacency(rng: np.random.Generator, sizes, rank=2) -> MultiAdjacency:
    """Integer PSD blocks B B^T with small 0/1 factors; exact in float64."""
    idx = BlockIndex(tuple(sizes))
    blocks = []
    for s in sizes:
        b = rng.integers(0, 2, size=(s, rank)).astype(float)
        blocks.append(b @ b.T)
    return MultiAdjacency(blocks=tuple(blocks), index=idx)


def gaussian_psd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense random PSD matrix G^T G, for property tests on the objective."""
    g = rng.normal(size=(n, n))
    return g.T @ g


def unblocked_gather(w: np.ndarray, assignment: np.ndarray, d: int) -> np.ndarray:
    """``W @ U`` over all ``d`` slots: each slot's rows of the symmetric ``W``,
    added left to right in ascending point order, one point at a time; an
    empty slot's column is zero."""
    out = np.zeros((w.shape[0], d))
    for slot in range(d):
        members = np.flatnonzero(assignment == slot)
        if members.size:
            out[:, slot] = row_sum(w, members)
    return out


def pairwise_similarity(instance, sigma: float, weight_mode: str) -> np.ndarray:
    """Similarity built one object pair at a time, one ``cdist`` call per pair."""
    idx = instance.index
    w = np.zeros((idx.m, idx.m))
    if weight_mode == "intra-ratio":
        trust = []
        for f in instance.features:
            if f.shape[0] < 2:
                nearest = np.full(f.shape[0], np.inf)
            else:
                dist = squareform(pdist(f))
                np.fill_diagonal(dist, np.inf)
                nearest = dist.min(axis=1)
            trust.append(1.0 - np.exp(-(nearest**2) / (2.0 * sigma**2)))
    for i in range(idx.k):
        for j in range(i + 1, idx.k):
            dist = cdist(instance.features[i], instance.features[j])
            block = np.exp(-(dist**2) / (2.0 * sigma**2))
            if weight_mode == "intra-ratio":
                block *= np.outer(trust[i], trust[j])
            w[idx.slice_of(i), idx.slice_of(j)] = block
            w[idx.slice_of(j), idx.slice_of(i)] = block.T
    return w


def planted_assignment(p: ProblemInstance, d: int) -> UniverseAssignment:
    """The ground-truth universe assignment, with outliers parked injectively.

    Inliers take their true universe column.  Outliers go to the surplus
    columns after the largest true label, rotating round-robin with a running
    offset across objects so that objects reuse surplus columns as late as
    possible; when the surplus covers the total outlier count no two outliers
    share a column and the assignment scores a perfect f-score.
    """
    if p.ground_truth is None:
        raise ValueError("problem has no ground truth")
    idx = p.index
    if d < max(idx.sizes):
        raise ValueError(f"universe size {d} is smaller than the largest object")
    inlier_labels = np.concatenate(p.ground_truth)
    inlier_labels = inlier_labels[inlier_labels >= 0]
    base = int(inlier_labels.max()) + 1 if inlier_labels.size else 0
    surplus = d - base
    offset = 0
    cols = []
    for i in range(idx.k):
        truth = p.ground_truth[i]
        n_out = int(np.sum(truth < 0))
        if n_out > surplus:
            raise ValueError(
                f"object {i} has {n_out} outliers but only {surplus} surplus columns"
            )
        block = np.empty(idx.sizes[i], dtype=np.int64)
        block[truth >= 0] = truth[truth >= 0]
        block[truth < 0] = base + (offset + np.arange(n_out)) % max(surplus, 1)
        offset += n_out
        cols.append(block)
    return UniverseAssignment(assignment=np.concatenate(cols), d=d, index=idx)
