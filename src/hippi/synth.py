"""Synthetic multi-matching problems with planted ground truth.

A problem is built from a universe of ``d_true`` 2-D points with attached
feature prototypes.  Each object observes a random subset of the universe
through its own rigid (or similarity) transform, with optional coordinate and
feature jitter, an optional occluding rectangle, and a configurable fraction
of outlier points carrying fresh features.  Outlier features come from the
same distribution family as the prototypes, so appearance alone cannot
separate them; geometry has to.

Ground truth is recorded as one label array per object: the universe index
for inliers, ``-1`` for outliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hippi.core import OUTLIER, ProblemInstance, as_float, float_fields, integer_fields

TRANSFORM_FAMILIES = ("rigid", "similarity", "none")


class GenerationError(ValueError):
    """The configuration produced an empty object."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic problem generator."""

    k: int
    d_true: int
    visibility: float = 1.0
    coord_noise_sigma: float = 0.0
    feature_dim: int = 4
    feature_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    occlusion_rect: tuple[float, float, float, float] | None = None
    transform_family: str = "rigid"
    feature_prototypes: int | None = None
    seed: int = 0

    def __post_init__(self):
        integer_fields(self, ("k", "d_true", "feature_dim", "seed"), ("feature_prototypes",),
                       at_least=dict(k=1, d_true=1, feature_dim=1, seed=0, feature_prototypes=1))
        float_fields(
            self, ("visibility", "coord_noise_sigma", "feature_noise_sigma", "outlier_fraction")
        )
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError(f"visibility must be in (0, 1], got {self.visibility}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError(f"outlier_fraction must be in [0, 1), got {self.outlier_fraction}")
        if self.coord_noise_sigma < 0 or self.feature_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.transform_family not in TRANSFORM_FAMILIES:
            raise ValueError(
                f"transform_family must be one of {TRANSFORM_FAMILIES}"
            )
        if self.occlusion_rect is not None:
            rect = tuple(as_float(v, "occlusion_rect entry") for v in self.occlusion_rect)
            if len(rect) != 4 or any(not 0.0 <= v <= 1.0 for v in rect):
                raise ValueError("occlusion_rect must be four fractions in [0, 1]")
            object.__setattr__(self, "occlusion_rect", rect)


def _draw_transform(rng: np.random.Generator, family: str):
    """A random in-plane map x -> scale * R x + t (scale fixed to 1 if rigid)."""
    if family == "none":
        return np.eye(2), np.zeros(2), 1.0
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    shift = rng.uniform(-0.5, 0.5, size=2)
    scale = rng.uniform(0.5, 2.0) if family == "similarity" else 1.0
    return rot, shift, scale


def generate(cfg: GenConfig) -> ProblemInstance:
    """Sample one problem instance; bit-identical under a fixed seed.

    Per object: choose the visible universe subset (kept in ascending universe
    order), transform and jitter its coordinates, jitter its features, drop
    points inside the occlusion rectangle (placed fractionally within the
    object's bounding box), then append outliers uniform over the transformed
    unit square.  The outlier count is ``round(v * rho / (1 - rho))`` for
    ``v`` surviving inliers, so outliers make up a ``rho`` fraction of the
    object on average.
    """
    rng = np.random.default_rng(cfg.seed)
    universe_pts = rng.uniform(0.0, 1.0, size=(cfg.d_true, 2))
    n_protos = cfg.feature_prototypes or cfg.d_true
    prototypes = rng.normal(size=(n_protos, cfg.feature_dim))
    universe_feats = prototypes[np.arange(cfg.d_true) % n_protos]

    points, features, labels = [], [], []
    for i in range(cfg.k):
        visible = np.flatnonzero(rng.random(cfg.d_true) < cfg.visibility)
        rot, shift, scale = _draw_transform(rng, cfg.transform_family)
        coords = scale * (universe_pts[visible] @ rot.T) + shift
        if cfg.coord_noise_sigma > 0:
            coords = coords + rng.normal(0.0, cfg.coord_noise_sigma, size=coords.shape)
        feats = universe_feats[visible]
        if cfg.feature_noise_sigma > 0:
            feats = feats + rng.normal(0.0, cfg.feature_noise_sigma, size=feats.shape)
        if cfg.occlusion_rect is not None and coords.shape[0]:
            fx, fy, fw, fh = cfg.occlusion_rect
            lo = coords.min(axis=0)
            span = coords.max(axis=0) - lo
            box_lo = lo + np.array([fx, fy]) * span
            box_hi = box_lo + np.array([fw, fh]) * span
            inside = np.all((coords >= box_lo) & (coords <= box_hi), axis=1)
            coords, feats, visible = coords[~inside], feats[~inside], visible[~inside]
        survivors = visible.size
        rho = cfg.outlier_fraction
        n_out = int(round(survivors * rho / (1.0 - rho))) if rho > 0 else 0
        if survivors + n_out == 0:
            raise GenerationError(f"object {i} came out empty; loosen the config")
        if n_out:
            out_pre = rng.uniform(0.0, 1.0, size=(n_out, 2))
            out_coords = scale * (out_pre @ rot.T) + shift
            out_feats = rng.normal(size=(n_out, cfg.feature_dim))
            coords = np.vstack([coords, out_coords])
            feats = np.vstack([feats, out_feats])
        points.append(coords)
        features.append(feats)
        labels.append(
            np.concatenate([visible, np.full(n_out, OUTLIER, dtype=np.int64)])
        )
    return ProblemInstance(
        points=tuple(points),
        features=tuple(features),
        ground_truth=tuple(labels),
        seed=cfg.seed,
    )


def twin_prototype_instance(
    k: int,
    d_true: int,
    *,
    separation: float = 0.8,
    feature_noise_sigma: float = 0.5,
    outlier_fraction: float = 0.3,
    feature_dim: int = 8,
    seed: int = 0,
) -> ProblemInstance:
    """Sample an instance whose feature prototypes come in near-duplicate pairs.

    The ``d_true`` prototypes are built as ``d_true / 2`` base vectors plus a
    copy of each displaced by ``separation``.  With feature noise on the same
    order as the displacement, appearance alone confuses each prototype with
    its twin, while the twins occupy distinct universe positions, so position
    context can still tell them apart.  Every object sees the full universe
    through its own rigid transform, gains ``round(outlier_fraction * d_true)``
    outlier points (fresh features, coordinates uniform over the object's
    bounding box), and has its point order shuffled.
    """
    cfg = GenConfig(
        k=k, d_true=d_true, feature_dim=feature_dim, seed=seed,
        feature_noise_sigma=feature_noise_sigma, outlier_fraction=outlier_fraction,
    )
    if cfg.d_true % 2:
        raise ValueError(f"d_true must be a positive even number, got {cfg.d_true}")
    separation = as_float(separation, "separation")
    if separation < 0:
        raise ValueError(f"separation must be non-negative, got {separation}")
    rng = np.random.default_rng(cfg.seed)
    half = cfg.d_true // 2
    base = rng.normal(size=(half, cfg.feature_dim))
    offsets = rng.normal(size=(half, cfg.feature_dim))
    offsets *= separation / np.linalg.norm(offsets, axis=1, keepdims=True)
    prototypes = np.vstack([base, base + offsets])
    universe_pts = rng.random((cfg.d_true, 2))

    n_out = int(round(cfg.outlier_fraction * cfg.d_true))
    points, features, labels = [], [], []
    for _ in range(cfg.k):
        rot, shift, scale = _draw_transform(rng, "rigid")
        coords = scale * (universe_pts @ rot.T) + shift
        feats = prototypes + rng.normal(
            scale=cfg.feature_noise_sigma, size=(cfg.d_true, cfg.feature_dim)
        )
        lab = np.arange(cfg.d_true, dtype=np.int64)
        if n_out:
            out_coords = rng.uniform(
                coords.min(axis=0), coords.max(axis=0), size=(n_out, 2)
            )
            out_feats = rng.normal(size=(n_out, cfg.feature_dim))
            coords = np.vstack([coords, out_coords])
            feats = np.vstack([feats, out_feats])
            lab = np.concatenate([lab, np.full(n_out, OUTLIER, dtype=np.int64)])
        order = rng.permutation(lab.size)
        points.append(coords[order])
        features.append(feats[order])
        labels.append(lab[order])
    return ProblemInstance(
        points=tuple(points),
        features=tuple(features),
        ground_truth=tuple(labels),
        seed=cfg.seed,
    )

