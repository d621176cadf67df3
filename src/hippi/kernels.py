"""Gaussian kernels: feature similarities across objects, geometric adjacency within.

Similarity entries are ``w_pq * exp(-||f_p - f_q||^2 / (2 sigma^2))`` between
points of different objects.  Adjacency blocks apply a Gaussian to intra-object
point distances with a per-object bandwidth ``sigma_A = median(d_min)``, the
median nearest-neighbour distance, scaled by ``mu``; Gaussian kernel matrices
are positive semidefinite, which the solver's monotonicity guarantee relies on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from hippi.core import PSD_TOL, MultiAdjacency, ProblemInstance, SimilarityMatrix, integer_fields

log = logging.getLogger(__name__)

WEIGHT_MODES = ("constant", "intra-ratio")

#: Rows of ``W`` per block in the in-place passes over it; a block's
#: temporaries hold ``64 m`` floats.
BLOCK_ROWS = 64


class DegenerateGeometryError(ValueError):
    """An object's points are coincident, leaving the kernel bandwidth undefined."""


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths and weighting policy for kernel construction.

    ``sigma`` is the feature-space similarity bandwidth, ``mu`` the
    dimensionless adjacency scaling.  ``weight_mode`` selects the per-pair
    weight: ``constant`` (1 everywhere) or ``intra-ratio`` (down-weight
    descriptors that sit close to another descriptor of the same object).
    ``knn_sparsify`` > 0 keeps only the top-t similarities per row.
    """

    sigma: float = 1.0
    mu: float = 1.0
    weight_mode: str = "constant"
    knn_sparsify: int = 0

    def __post_init__(self):
        integer_fields(self, ("knn_sparsify",))
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.knn_sparsify < 0:
            raise ValueError("knn_sparsify must be >= 0 (0 keeps the matrix dense)")


def _gaussian(dist: np.ndarray, scale: float) -> np.ndarray:
    """``exp(-dist**2 / scale)``, computed in place in ``dist``, which it returns."""
    np.square(dist, out=dist)
    np.negative(dist, out=dist)
    dist /= scale
    return np.exp(dist, out=dist)


def _nearest(dist: np.ndarray) -> np.ndarray:
    """Each row's smallest entry off the diagonal of a square distance matrix; inf if 1 x 1."""
    # Over row-block copies with the diagonal set to inf: no second n x n array.
    out = np.empty(dist.shape[0])
    for r in range(0, dist.shape[0], BLOCK_ROWS):
        rows = dist[r : r + BLOCK_ROWS].copy()
        np.fill_diagonal(rows[:, r:], np.inf)
        out[r : r + BLOCK_ROWS] = rows.min(axis=1)
    return out


def build_similarity(instance: ProblemInstance, config: KernelConfig) -> SimilarityMatrix:
    """Cross-object similarity matrix from feature descriptors.

    One ``cdist`` over all descriptors gives every entry.  The kernel is then
    applied in place, the weights and the top-t cut row block by row block,
    and the diagonal blocks are zeroed.  The finished array is frozen so that
    :class:`SimilarityMatrix` adopts it: a build holds no ``m x m`` float
    array beyond ``W`` itself.
    """
    idx = instance.index
    features = np.concatenate(instance.features)
    w = _gaussian(cdist(features, features), 2.0 * config.sigma**2)
    if config.weight_mode == "intra-ratio":
        # Down-weight descriptors that have a near-duplicate within their own
        # object: u_p = 1 - exp(-r_p^2 / 2 sigma^2) with r_p the nearest
        # intra-object descriptor distance, and w_pq = u_p * u_q.  Strictly
        # decreasing in intra-object proximity, 1 for isolated descriptors.
        # The exact functional form is this library's choice.
        nearest = np.concatenate([_nearest(squareform(pdist(f))) for f in instance.features])
        trust = 1.0 - _gaussian(nearest, 2.0 * config.sigma**2)
        for r in range(0, idx.m, BLOCK_ROWS):
            rows = slice(r, r + BLOCK_ROWS)
            w[rows] *= np.outer(trust[rows], trust)
    for i in range(idx.k):
        w[idx.slice_of(i), idx.slice_of(i)] = 0.0
    if config.knn_sparsify > 0:
        _sparsify_topk(w, config.knn_sparsify)
    w.setflags(write=False)
    return SimilarityMatrix(data=w, index=idx)


def _sparsify_topk(w: np.ndarray, t: int) -> None:
    """Zero, in place, everything outside each row's top-t entries; keep symmetry by union."""
    m = w.shape[0]
    if t >= m:
        return
    keep = np.zeros((m, m), dtype=bool)
    for r in range(0, m, BLOCK_ROWS):
        rows = slice(r, r + BLOCK_ROWS)
        top = np.argpartition(-w[rows], t - 1, axis=1)[:, :t]
        np.put_along_axis(keep[rows], top, True, axis=1)
    # keep[c, r] is either as marked or already or-ed with keep[r, c]; either
    # way or-ing it into keep[r, c] gives the union, so the union is taken in
    # place one row block at a time and a block's rows are final once it is
    # done.  W is non-negative, so the product writes +0.0 where it cuts.
    for r in range(0, m, BLOCK_ROWS):
        rows = slice(r, r + BLOCK_ROWS)
        keep[rows] |= keep[:, rows].T
        w[rows] *= keep[rows]


def build_adjacency(instance: ProblemInstance, config: KernelConfig) -> MultiAdjacency:
    """Per-object Gaussian distance kernels, bandwidth chosen per object.

    Uses ``instance.distances`` when present (e.g. precomputed geodesics),
    Euclidean point distances otherwise.  Objects with a single point get the
    only consistent 1x1 kernel, ``[[1]]``.  Each kernel overwrites its own
    distance matrix, so the build peaks at twice the blocks it returns.
    """
    blocks = []
    for i, p in enumerate(instance.points):
        dist = squareform(pdist(p)) if instance.distances is None else instance.distances[i].copy()
        # A single point has no neighbour: sigma_a is inf and its kernel [[1]].
        sigma_a = float(np.median(_nearest(dist)))
        if sigma_a <= 0.0:
            raise DegenerateGeometryError(
                f"object {i}: median nearest-neighbour distance is zero (coincident points)"
            )
        blocks.append(_gaussian(dist, 2.0 * config.mu * sigma_a**2))
    return MultiAdjacency(blocks=tuple(blocks), index=instance.index)


@dataclass(frozen=True)
class PsdReport:
    """Per-block spectral diagnostics from :func:`assert_psd`."""

    min_eigenvalues: tuple[float, ...]
    flagged: tuple[int, ...]
    repaired: MultiAdjacency | None = None

    @property
    def ok(self) -> bool:
        return not self.flagged


def assert_psd(adjacency: MultiAdjacency, repair: bool = False, tol: float = PSD_TOL) -> PsdReport:
    """Check every adjacency block for positive semidefiniteness.

    A block is flagged when its smallest eigenvalue drops below
    ``-tol * ||A_i||`` (spectral norm).  With ``repair=True`` the report also
    carries a copy of the adjacency with negative eigenvalues clamped to zero;
    the repair is logged, never silent.
    """
    min_eigs, flagged = [], []
    for i, block in enumerate(adjacency.blocks):
        # Eigenvalues only: the eigenvectors are needed just for a repair.
        vals = np.linalg.eigvalsh(block)
        min_eigs.append(float(vals.min()))
        if vals.min() < -tol * np.abs(vals).max():
            flagged.append(i)
    repaired = None
    if repair and flagged:
        blocks = []
        for i, block in enumerate(adjacency.blocks):
            if i in flagged:
                vals, vecs = np.linalg.eigh(block)
                fixed = (vecs * np.maximum(vals, 0.0)) @ vecs.T
                fixed = (fixed + fixed.T) / 2.0
                log.warning(
                    "repaired adjacency block %d: clamped min eigenvalue %.3e to zero",
                    i,
                    vals.min(),
                )
                blocks.append(fixed)
            else:
                blocks.append(block)
        repaired = MultiAdjacency(blocks=tuple(blocks), index=adjacency.index)
    return PsdReport(min_eigenvalues=tuple(min_eigs), flagged=tuple(flagged), repaired=repaired)
