"""Reference methods: spectral synchronisation and simple initialisers.

Spectral synchronisation turns a (possibly cycle-inconsistent) set of pairwise
matchings into a consistent one: stack all pairwise matching matrices into one
sparse ``m x m`` block matrix, embed every point through its top eigenvectors,
and re-read assignments off the embedding.  When the input is exactly consistent
with a planted assignment the block matrix has rank at most ``d`` and the
embedding reproduces it; under noise the truncated spectrum acts as a global
average over all objects.

The eigenvector basis is only defined up to rotation, so raw embeddings of two
objects cannot be compared directly; we resolve the ambiguity by scoring every
point against the rows of an anchor object (the largest one) and projecting
the stacked scores onto the assignment set, one LAP per object.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import aslinearoperator, eigsh

from hippi.assignment import lap_exact, project_to_universe
from hippi.core import (
    BlockIndex,
    PairwiseMatchingSet,
    SimilarityMatrix,
    UniverseAssignment,
    as_integer,
)


def pairwise_lap_matchings(w: SimilarityMatrix) -> PairwiseMatchingSet:
    """Match every pair of objects independently by a rectangular LAP.

    Each block maximises the total similarity over partial permutations with
    ``min(m_i, m_j)`` matches; the result is symmetric by mirroring but in
    general not cycle-consistent.  Diagonal maps are identities.
    """
    idx = w.index
    sizes = idx.sizes
    targets = np.full((idx.m, idx.k), -1, dtype=np.int64)
    targets[np.arange(idx.m), idx.owner] = idx.local
    for j in range(1, idx.k):
        # Each of object j's points alone in a slot: W U copies its columns of W exactly.
        cols = w.gather(np.arange(idx.offsets[j], idx.offsets[j + 1]), np.arange(sizes[j]))
        for i in range(j):
            # Solve from the smaller object ``a``; its map back is one scatter.
            if sizes[i] <= sizes[j]:
                a, b, mp = i, j, lap_exact(cols[idx.slice_of(i)])
            else:
                a, b, mp = j, i, lap_exact(cols[idx.slice_of(i)].T)
            targets[idx.slice_of(a), b] = mp
            targets[idx.offsets[b] + mp, a] = np.arange(sizes[a])
    return PairwiseMatchingSet(targets=targets, index=idx)


def _lanczos_top(s: csr_array, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` eigenpairs of the symmetric ``s`` largest in magnitude, by ARPACK's Lanczos.

    Lanczos can miss copies of a repeated eigenvalue (a match matrix has one
    per set of points that all objects match alike), so the top eigenpair left
    after deflating the found ones replaces the weakest while it is larger by
    over 1e-9 of the largest.  A fixed start vector makes reruns repeat their bits.
    """
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, s.shape[0])
    vals, vecs = eigsh(s, k=n, which="LM", v0=v0)
    while True:
        rest = aslinearoperator(s) - aslinearoperator(vecs * vals) @ aslinearoperator(vecs.T)
        lam, vec = eigsh(rest, k=1, which="LM", v0=v0)
        weakest = int(np.argmin(np.abs(vals)))
        if abs(lam[0]) <= abs(vals[weakest]) + 1e-9 * np.abs(vals).max():
            return vals, vecs
        vals[weakest], vecs[:, weakest] = lam[0], vec[:, 0]


def spectral_sync(x: PairwiseMatchingSet, d: int) -> UniverseAssignment:
    """Synchronise pairwise matchings through a rank-``d`` spectral embedding.

    The block matrix (diagonal forced to identity) is ``O(m k)`` CSR entries.
    Its top-``d`` eigenpairs ``V diag(lam) V^T`` by magnitude come from
    Lanczos when ``10 min(d, m) <= m`` (where it measured faster), else from
    a dense ``eigh``; points are embedded as the eigenvector rows scaled by
    ``sqrt(|lam|)``, scored against the anchor object's rows, and projected
    back onto universe assignments.  The output is always cycle-consistent;
    on input expanded from a planted assignment whose slots all appear in
    the anchor object, it reproduces the input exactly.  Input whose
    ``(j, i)`` map is not the mirror image of its ``(i, j)`` map is rejected
    with a ``ValueError`` naming the pair.
    """
    idx = x.index
    # A cross match that is not matched straight back breaks the mirror of
    # its map and of the reverse one; the first such pair is named.
    g, j = np.nonzero((x.targets >= 0) & ~x.mirrored() & (np.arange(idx.k) != idx.owner[:, None]))
    if g.size:
        pair = np.minimum(idx.owner[g], j) * idx.k + np.maximum(idx.owner[g], j)
        i, j = divmod(int(pair.min()), idx.k)
        raise ValueError(f"maps ({i},{j}) and ({j},{i}) are not mirror images")
    d = idx.universe(d)
    g, j, h = x.global_matches()
    cross = j != idx.owner[g]
    rows = np.r_[g[cross], np.arange(idx.m)]  # the cross matches, then the identity
    cols = np.r_[h[cross], np.arange(idx.m)]
    s = csr_array((np.ones(rows.size), (rows, cols)), shape=(idx.m, idx.m))
    n = min(d, idx.m)
    if 10 * n <= idx.m:
        vals, vecs = _lanczos_top(s, n)
    else:
        vals, vecs = np.linalg.eigh(s.toarray())
    top = np.argsort(-np.abs(vals), kind="stable")[:n]
    emb = vecs[:, top] * np.sqrt(np.abs(vals[top]))
    anchor = int(np.argmax(idx.sizes))
    anchor_rows = emb[idx.slice_of(anchor)]
    return project_to_universe(
        emb @ anchor_rows.T, idx, columns=np.arange(idx.sizes[anchor]), d=d
    )


def random_init(index: BlockIndex, d: int, seed=0) -> UniverseAssignment:
    """Uniformly random injection of each object's points into ``d`` slots.

    Each object draws its ``m_i`` slots without replacement; numpy does that
    in ``O(m_i)`` once ``d`` is at least ``50 m_i``, so the cost stops
    growing with ``d``.
    """
    d = index.universe(d)
    rng = np.random.default_rng(as_integer(seed, "seed", at_least=0))
    cols = np.concatenate([rng.choice(d, size=s, replace=False) for s in index.sizes])
    cols.setflags(write=False)
    return UniverseAssignment(assignment=cols, d=d, index=index)


def greedy_init(w: SimilarityMatrix, d: int) -> UniverseAssignment:
    """Anchor the largest object on the first slots, match the rest to it.

    Every other object solves one LAP against the anchor's similarity block;
    points that fit no anchor slot spill into the surplus columns.  Cheap,
    deterministic, and already cycle-consistent (as any universe assignment).
    """
    idx = w.index
    anchor = int(np.argmax(idx.sizes))
    rows, n = idx.slice_of(anchor), idx.sizes[anchor]
    # Each anchor point alone in a slot: W U copies the anchor's columns of W exactly.
    scores = w.gather(np.arange(idx.offsets[anchor], idx.offsets[anchor + 1]), np.arange(n))
    scores[rows] = np.eye(n)
    return project_to_universe(scores, idx, columns=np.arange(n), d=d)

