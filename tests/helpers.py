"""Shared test fixtures and independent brute-force oracles.

Everything here deliberately avoids the library's optimised code paths:
oracles use dense matrices, scalar loops and exhaustive enumeration so that
they stay independent of what they check.
"""

from itertools import permutations, product

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from hippi.core import BlockIndex, MultiAdjacency, SimilarityMatrix, UniverseAssignment


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


def dense_expand(u: UniverseAssignment) -> np.ndarray:
    """Pairwise matching matrix X = U U^T from the dense binary U."""
    dense = u.to_dense()
    return dense @ dense.T


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
    """``W @ U`` by one ``reduceat`` over all of ``W``'s permuted columns."""
    counts = np.bincount(assignment, minlength=d)
    order = np.argsort(assignment, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    nonempty = counts > 0
    out = np.zeros((w.shape[0], d))
    if nonempty.any():
        out[:, nonempty] = np.add.reduceat(w[:, order], starts[nonempty], axis=1)
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
