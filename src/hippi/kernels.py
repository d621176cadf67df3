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

from hippi.core import PSD_TOL, MultiAdjacency, ProblemInstance, SimilarityMatrix

log = logging.getLogger(__name__)

WEIGHT_MODES = ("constant", "intra-ratio")


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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.knn_sparsify < 0:
            raise ValueError("knn_sparsify must be >= 0 (0 keeps the matrix dense)")


def _intra_nearest(features: np.ndarray) -> np.ndarray:
    """Distance from each descriptor to its nearest neighbour in the same object."""
    n = features.shape[0]
    if n < 2:
        return np.full(n, np.inf)
    d = squareform(pdist(features))
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def build_similarity(instance: ProblemInstance, config: KernelConfig) -> SimilarityMatrix:
    """Cross-object similarity matrix from feature descriptors.

    One ``cdist`` over all descriptors gives every entry; the kernel is then
    applied in place and the diagonal blocks are zeroed, so constant weights
    need no ``m x m`` array beyond ``W`` itself.
    """
    idx = instance.index
    features = np.concatenate(instance.features)
    w = cdist(features, features)
    np.square(w, out=w)
    np.negative(w, out=w)
    w /= 2.0 * config.sigma**2
    np.exp(w, out=w)
    if config.weight_mode == "intra-ratio":
        # Down-weight descriptors that have a near-duplicate within their own
        # object: u_p = 1 - exp(-r_p^2 / 2 sigma^2) with r_p the nearest
        # intra-object descriptor distance, and w_pq = u_p * u_q.  Strictly
        # decreasing in intra-object proximity, 1 for isolated descriptors.
        # The exact functional form is this library's choice.
        trust = np.concatenate(
            [
                1.0 - np.exp(-(_intra_nearest(f) ** 2) / (2.0 * config.sigma**2))
                for f in instance.features
            ]
        )
        w *= np.outer(trust, trust)
    for i in range(idx.k):
        w[idx.slice_of(i), idx.slice_of(i)] = 0.0
    if config.knn_sparsify > 0:
        w = _sparsify_topk(w, config.knn_sparsify)
    return SimilarityMatrix(data=w, index=idx)


def _sparsify_topk(w: np.ndarray, t: int) -> np.ndarray:
    """Zero everything outside each row's top-t entries; keep symmetry by union."""
    if t >= w.shape[1]:
        return w
    keep = np.zeros_like(w, dtype=bool)
    top = np.argpartition(-w, t - 1, axis=1)[:, :t]
    np.put_along_axis(keep, top, True, axis=1)
    keep |= keep.T
    return np.where(keep, w, 0.0)


def build_adjacency(instance: ProblemInstance, config: KernelConfig) -> MultiAdjacency:
    """Per-object Gaussian distance kernels, bandwidth chosen per object.

    Uses ``instance.distances`` when present (e.g. precomputed geodesics),
    Euclidean point distances otherwise.  Objects with a single point get the
    only consistent 1x1 kernel, ``[[1]]``.
    """
    blocks = []
    for i, pts in enumerate(instance.points):
        n = pts.shape[0]
        if instance.distances is not None:
            dist = np.asarray(instance.distances[i])
        else:
            dist = squareform(pdist(pts)) if n > 1 else np.zeros((1, 1))
        if n == 1:
            blocks.append(np.ones((1, 1)))
            continue
        off = dist + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        sigma_a = float(np.median(off.min(axis=1)))
        if sigma_a <= 0.0:
            raise DegenerateGeometryError(
                f"object {i}: median nearest-neighbour distance is zero (coincident points)"
            )
        block = np.exp(-(dist**2) / (2.0 * config.mu * sigma_a**2))
        block = (block + block.T) / 2.0  # exact symmetry for asymmetric float input
        blocks.append(block)
    return MultiAdjacency(blocks=tuple(blocks), index=instance.index)


@dataclass(frozen=True)
class PsdReport:
    """Per-block spectral diagnostics from :func:`assert_psd`."""

    min_eigenvalues: tuple[float, ...]
    norms: tuple[float, ...]
    flagged: tuple[int, ...]
    tolerance: float
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
    min_eigs, norms, flagged = [], [], []
    spectra = []
    for i, block in enumerate(adjacency.blocks):
        vals, vecs = np.linalg.eigh(block)
        spectra.append((vals, vecs))
        norm = float(np.abs(vals).max()) if vals.size else 0.0
        min_eigs.append(float(vals.min()))
        norms.append(norm)
        if vals.min() < -tol * norm:
            flagged.append(i)
    repaired = None
    if repair and flagged:
        blocks = []
        for i, (block, (vals, vecs)) in enumerate(zip(adjacency.blocks, spectra)):
            if i in flagged:
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
    return PsdReport(
        min_eigenvalues=tuple(min_eigs),
        norms=tuple(norms),
        flagged=tuple(flagged),
        tolerance=tol,
        repaired=repaired,
    )
