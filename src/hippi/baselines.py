"""Reference methods: spectral synchronisation and simple initialisers.

Spectral synchronisation turns a (possibly cycle-inconsistent) set of pairwise
matchings into a consistent one: stack all pairwise matching matrices into one
``m x m`` block matrix, embed every point through its top eigenvectors, and
re-read assignments off the embedding.  When the input is exactly consistent
with a planted assignment the block matrix has rank at most ``d`` and the
embedding reproduces it; under noise the truncated spectrum acts as a global
average over all objects.

The eigenvector basis is only defined up to rotation, so raw embeddings of two
objects cannot be compared directly; we resolve the ambiguity by scoring every
point against the rows of an anchor object (the largest one) and projecting
the stacked scores onto the assignment set, one LAP per object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hippi.assignment import lap_exact, ScoreBlock, project_to_universe
from hippi.core import (
    BlockIndex,
    PairwiseMatchingSet,
    SimilarityMatrix,
    UniverseAssignment,
    _owned,
)

BASELINE_METHODS = ("spectral", "random", "greedy", "external-file")


@dataclass(frozen=True)
class PairwiseInput:
    """A ``k x k`` grid of pairwise score/matching blocks, mirror-symmetric."""

    blocks: tuple[tuple[np.ndarray, ...], ...]
    index: BlockIndex

    def __post_init__(self):
        idx = self.index
        if len(self.blocks) != idx.k or any(len(row) != idx.k for row in self.blocks):
            raise ValueError(f"need a {idx.k} x {idx.k} grid of blocks")
        frozen = []
        for i, row in enumerate(self.blocks):
            frow = []
            for j, b in enumerate(row):
                b = _owned(b, np.float64)
                if b.shape != (idx.sizes[i], idx.sizes[j]):
                    raise ValueError(
                        f"block ({i},{j}) must be {idx.sizes[i]} x {idx.sizes[j]}, got {b.shape}"
                    )
                if not np.all(np.isfinite(b)):
                    raise ValueError(f"block ({i},{j}) has non-finite entries")
                frow.append(b)
            frozen.append(tuple(frow))
        for i in range(idx.k):
            for j in range(idx.k):
                if not np.array_equal(frozen[i][j], frozen[j][i].T):
                    raise ValueError(f"blocks ({i},{j}) and ({j},{i}) are not transposes")
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def from_matching_set(cls, x: PairwiseMatchingSet) -> "PairwiseInput":
        blocks = tuple(
            tuple(x.block_dense(i, j) for j in range(x.k)) for i in range(x.k)
        )
        return cls(blocks=blocks, index=x.index)

    @property
    def k(self) -> int:
        return self.index.k

    def to_matrix(self) -> np.ndarray:
        return np.block([[self.blocks[i][j] for j in range(self.k)] for i in range(self.k)])

    def matched_pairs(self):
        """Iterate non-zero cross-object entries once each, as ``(i, p, j, q)``."""
        for i in range(self.k):
            for j in range(i + 1, self.k):
                for p, q in zip(*np.nonzero(self.blocks[i][j])):
                    yield i, int(p), j, int(q)

    def to_matching_set(self) -> PairwiseMatchingSet:
        """Reinterpret binary partial-permutation blocks as sparse match maps."""
        maps = []
        for i in range(self.k):
            row = []
            for j in range(self.k):
                b = self.blocks[i][j]
                if not np.isin(b, (0.0, 1.0)).all():
                    raise ValueError(f"block ({i},{j}) is not binary")
                if (b.sum(axis=1) > 1).any():
                    raise ValueError(f"block ({i},{j}) matches a point twice")
                mp = np.full(b.shape[0], -1, dtype=np.int64)
                rows, cols = np.nonzero(b)
                mp[rows] = cols
                row.append(mp)
            maps.append(tuple(row))
        return PairwiseMatchingSet(maps=tuple(maps), index=self.index)


def pairwise_lap_matchings(w: SimilarityMatrix) -> PairwiseInput:
    """Match every pair of objects independently by a rectangular LAP.

    Each block maximises the total similarity over partial permutations with
    ``min(m_i, m_j)`` matches; the result is symmetric by mirroring but in
    general not cycle-consistent.
    """
    idx = w.index
    sizes = idx.sizes
    blocks = [[None] * idx.k for _ in range(idx.k)]
    for i in range(idx.k):
        blocks[i][i] = np.eye(sizes[i])
    for i in range(idx.k):
        for j in range(i + 1, idx.k):
            scores = w.block(i, j)
            x = np.zeros_like(scores)
            if sizes[i] <= sizes[j]:
                cols = lap_exact(ScoreBlock.from_scores(scores))
                x[np.arange(sizes[i]), cols] = 1.0
            else:
                rows = lap_exact(ScoreBlock.from_scores(scores.T))
                x[rows, np.arange(sizes[j])] = 1.0
            blocks[i][j] = x
            blocks[j][i] = x.T
    return PairwiseInput(blocks=tuple(tuple(row) for row in blocks), index=idx)


def vote_similarity(x: PairwiseInput) -> SimilarityMatrix:
    """Reinterpret binary pairwise matchings as a 0/1 similarity matrix.

    Each cross-object entry is 1 exactly where the pairwise matcher voted for
    that correspondence; diagonal blocks are dropped.  Useful for running the
    power-iteration solver on the same information a synchronisation baseline
    consumes, with the geometric term as the only extra signal.
    """
    data = x.to_matrix()
    for i in range(x.k):
        s = x.index.slice_of(i)
        data[s, s] = 0.0
    return SimilarityMatrix(data=data, index=x.index)


def spectral_sync(x: PairwiseInput, d: int) -> UniverseAssignment:
    """Synchronise pairwise matchings through a rank-``d`` spectral embedding.

    The block matrix (diagonal forced to identity) is factored as
    ``V diag(lam) V^T``; points are embedded as the top-``d`` eigenvector rows
    scaled by ``sqrt(|lam|)``, scored against the anchor object's rows, and
    projected back onto universe assignments.  The output is always
    cycle-consistent; on input expanded from a planted assignment whose slots
    all appear in the anchor object, it reproduces the input exactly.
    """
    idx = x.index
    _require_universe(idx, d)
    s = x.to_matrix()
    for i in range(idx.k):
        sl = idx.slice_of(i)
        s[sl, sl] = np.eye(idx.sizes[i])
    vals, vecs = np.linalg.eigh(s)
    top = np.argsort(-np.abs(vals), kind="stable")[: min(d, idx.m)]
    emb = vecs[:, top] * np.sqrt(np.abs(vals[top]))
    anchor = int(np.argmax(idx.sizes))
    anchor_rows = emb[idx.slice_of(anchor)]
    scores = np.zeros((idx.m, d))
    scores[:, : idx.sizes[anchor]] = emb @ anchor_rows.T
    return project_to_universe(scores, idx)


def _as_index(problem) -> BlockIndex:
    return problem if isinstance(problem, BlockIndex) else problem.index


def _require_universe(index: BlockIndex, d: int) -> None:
    if d < max(index.sizes):
        raise ValueError(
            f"universe size {d} is smaller than the largest object ({max(index.sizes)})"
        )


def random_init(problem, d: int, seed=None) -> UniverseAssignment:
    """Uniformly random injection of each object's points into ``d`` slots."""
    idx = _as_index(problem)
    _require_universe(idx, d)
    rng = np.random.default_rng(seed)
    cols = np.concatenate([rng.permutation(d)[:s] for s in idx.sizes])
    return UniverseAssignment(assignment=cols, d=d, index=idx)


def greedy_init(w: SimilarityMatrix, d: int) -> UniverseAssignment:
    """Anchor the largest object on the first slots, match the rest to it.

    Every other object solves one LAP against the anchor's similarity block;
    points that fit no anchor slot spill into the surplus columns.  Cheap,
    deterministic, and already cycle-consistent (as any universe assignment).
    """
    idx = w.index
    _require_universe(idx, d)
    anchor = int(np.argmax(idx.sizes))
    scores = np.zeros((idx.m, d))
    scores[idx.slice_of(anchor), : idx.sizes[anchor]] = np.eye(idx.sizes[anchor])
    for i in range(idx.k):
        if i != anchor:
            scores[idx.slice_of(i), : idx.sizes[anchor]] = w.block(i, anchor)
    return project_to_universe(scores, idx)


def run_baseline(
    name: str,
    *,
    index: BlockIndex,
    d: int,
    similarity: SimilarityMatrix | None = None,
    seed=None,
    path=None,
) -> UniverseAssignment:
    """Dispatch one of the named baseline slots to a universe assignment.

    "spectral" and "greedy" need ``similarity``; "external-file" loads a
    previously saved assignment (so methods not implemented here can still be
    compared) and checks it against the expected object sizes.
    """
    if name == "random":
        return random_init(index, d, seed)
    if name == "greedy":
        if similarity is None:
            raise ValueError("greedy baseline needs a similarity matrix")
        return greedy_init(similarity, d)
    if name == "spectral":
        if similarity is None:
            raise ValueError("spectral baseline needs a similarity matrix")
        return spectral_sync(pairwise_lap_matchings(similarity), d)
    if name == "external-file":
        if path is None:
            raise ValueError("external-file baseline needs a path")
        from hippi.io import load_assignment

        u = load_assignment(path)
        if u.index.sizes != index.sizes:
            raise ValueError("external assignment does not match the problem's objects")
        return u
    raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINE_METHODS}")
