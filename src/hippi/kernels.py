"""Gaussian kernels: feature similarities across objects, geometric adjacency within.

Similarity entries are ``w_pq * exp(-||f_p - f_q||^2 / (2 sigma^2))`` between
points of different objects.  Adjacency blocks apply a Gaussian to intra-object
point distances with a per-object bandwidth ``sigma_A = median(d_min)``, the
median nearest-neighbour distance, scaled by ``mu``; Gaussian kernel matrices
are positive semidefinite, which the solver's monotonicity guarantee relies on.
"""

from __future__ import annotations

import contextlib
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from hippi.core import MultiAdjacency, ProblemInstance, SimilarityMatrix, float_fields

log = logging.getLogger(__name__)

WEIGHT_MODES = ("constant", "intra-ratio")

#: Relative tolerance on the smallest eigenvalue of an adjacency block.
PSD_TOL = 1e-8

#: Rows per block in the blocked passes: the build of ``W``, ``_nearest``.
BLOCK_ROWS = 64

#: Entries per work array of the in-place passes (a mask, an outer product):
#: 64 KB of floats, so a thread's temporaries stay small whatever ``m`` is.
WORK_ENTRIES = 1 << 13


class DegenerateGeometryError(ValueError):
    """An object's adjacency scale is 0: its points are coincident, or ``mu`` is too small."""


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths and weighting policy for kernel construction.

    ``sigma`` is the feature-space similarity bandwidth, ``mu`` the
    dimensionless adjacency scaling.  ``weight_mode`` selects the per-pair
    weight: ``constant`` (1 everywhere) or ``intra-ratio`` (down-weight
    descriptors that sit close to another descriptor of the same object).
    ``2 sigma^2`` must be a positive finite float; ``build_adjacency`` checks ``2 mu sigma_A^2``.
    """

    sigma: float = 1.0
    mu: float = 1.0
    weight_mode: str = "constant"

    def __post_init__(self):
        float_fields(self, ("sigma", "mu"))
        scale = np.inf
        with contextlib.suppress(OverflowError):  # sigma**2 beyond the float range
            scale = 2.0 * self.sigma**2
        if not (self.sigma > 0 and 0 < scale < np.inf):
            raise ValueError(f"sigma must be positive with 0 < 2 sigma^2 < inf, got {self.sigma}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")


def _gaussian(dist: np.ndarray, scale: float) -> np.ndarray:
    """``exp(-dist**2 / scale)``, computed in place in ``dist``, which it returns.

    Subnormal results are flushed to 0: products with them run many times
    slower, and they are below every other entry's rounding.
    """
    np.square(dist, out=dist)
    np.negative(dist, out=dist)
    with np.errstate(over="ignore"):  # a quotient of -inf is a kernel value of exactly 0
        dist /= scale
    np.exp(dist, out=dist)
    # By chunks of rows of about WORK_ENTRIES entries, each with its own mask.
    step = max(1, WORK_ENTRIES // max(dist[:1].size, 1))
    for r in range(0, len(dist), step):
        part = dist[r : r + step]
        part[part < np.finfo(np.float64).tiny] = 0.0
    return dist


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

    ``W`` is built by blocks of :data:`BLOCK_ROWS` rows, each written in
    place: its ``cdist`` rows, the kernel, the weights, then the zeroing of
    its rows of the diagonal blocks.  The blocks run on one thread per CPU
    the process may use (``cdist`` and the ufuncs release the GIL); each
    writes only its own rows with per-entry arithmetic, so ``W`` is the same
    bit for bit whatever the thread count.  The finished array is frozen so
    that :class:`SimilarityMatrix` adopts it: a build holds no ``m x m``
    float array beyond ``W`` itself, and each thread's work arrays hold at
    most :data:`WORK_ENTRIES` entries (or one row).
    """
    idx = instance.index
    features = np.concatenate(instance.features)
    scale = 2.0 * config.sigma**2
    trust = None
    if config.weight_mode == "intra-ratio":
        # Down-weight descriptors that have a near-duplicate within their own
        # object: u_p = 1 - exp(-r_p^2 / 2 sigma^2) with r_p the nearest
        # intra-object descriptor distance, and w_pq = u_p * u_q.  Strictly
        # decreasing in intra-object proximity, 1 for isolated descriptors.
        # The exact functional form is this library's choice.
        nearest = np.concatenate([_nearest(squareform(pdist(f))) for f in instance.features])
        trust = 1.0 - _gaussian(nearest, scale)
    w, owner = np.empty((idx.m, idx.m)), idx.owner

    def fill(r: int) -> None:
        rows = slice(r, min(r + BLOCK_ROWS, idx.m))
        block = w[rows]
        _gaussian(cdist(features[rows], features, out=block), scale)
        if trust is not None:
            step = max(1, WORK_ENTRIES // idx.m)
            for c in range(rows.start, rows.stop, step):
                part = slice(c, min(c + step, rows.stop))
                w[part] *= np.outer(trust[part], trust)
        for i in range(owner[rows.start], owner[rows.stop - 1] + 1):
            own = idx.slice_of(i)
            w[max(own.start, rows.start) : min(own.stop, rows.stop), own] = 0.0

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(cpus) as pool:
        list(pool.map(fill, range(0, idx.m, BLOCK_ROWS)))
    w.setflags(write=False)
    return SimilarityMatrix(data=w, index=idx)


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
        scale = 2.0 * config.mu * sigma_a**2
        if scale == 0.0:
            raise DegenerateGeometryError(
                f"object {i}: adjacency scale is 0 (mu={config.mu}, sigma_A={sigma_a})"
            )
        blocks.append(_gaussian(dist, scale))
    return MultiAdjacency(blocks=tuple(blocks), index=instance.index)


@dataclass(frozen=True)
class PsdReport:
    """Per-block spectral diagnostics from :func:`assert_psd`, and the adjacency to use."""

    min_eigenvalues: tuple[float, ...]
    flagged: tuple[int, ...]
    adjacency: MultiAdjacency

    @property
    def ok(self) -> bool:
        return not self.flagged


def assert_psd(adjacency: MultiAdjacency, strict: bool = False) -> PsdReport:
    """Check every adjacency block for positive semidefiniteness, and repair or reject.

    A block is flagged when its smallest eigenvalue drops below
    ``-PSD_TOL * ||A_i||`` (spectral norm).  With ``strict`` a flagged block
    is a ``ValueError`` naming the first such object and its smallest
    eigenvalue.  Otherwise the report's ``adjacency`` is a copy with each
    flagged block's negative eigenvalues clamped to zero, one warning per
    block, never silent; with nothing flagged it is ``adjacency`` itself.
    """
    min_eigs, flagged = [], []
    for i, block in enumerate(adjacency.blocks):
        # Eigenvalues only: the eigenvectors are needed just for a repair.
        vals = np.linalg.eigvalsh(block)
        min_eigs.append(float(vals.min()))
        if vals.min() < -PSD_TOL * np.abs(vals).max():
            flagged.append(i)
    if flagged and strict:
        i = flagged[0]
        raise ValueError(
            f"object {i}: adjacency block is not positive semidefinite "
            f"(smallest eigenvalue {min_eigs[i]:.3e})"
        )
    if flagged:
        blocks = list(adjacency.blocks)
        for i in flagged:
            vals, vecs = np.linalg.eigh(blocks[i])
            fixed = (vecs * np.maximum(vals, 0.0)) @ vecs.T
            blocks[i] = (fixed + fixed.T) / 2.0
            log.warning(
                "repaired adjacency block %d: clamped min eigenvalue %.3e to zero", i, vals.min()
            )
        adjacency = MultiAdjacency(blocks=tuple(blocks), index=adjacency.index)
    return PsdReport(min_eigenvalues=tuple(min_eigs), flagged=tuple(flagged), adjacency=adjacency)
