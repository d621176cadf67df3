"""Generator tests: determinism, planted truth, outlier/occlusion behaviour."""

import re

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from hippi.core import BlockIndex, ProblemInstance, expand
from hippi.metrics import fscore
from hippi.synth import GenConfig, GenerationError, generate, twin_prototype_instance

from helpers import planted_assignment, slots_of


def clean_config(**overrides):
    base = dict(
        k=3,
        d_true=5,
        visibility=1.0,
        coord_noise_sigma=0.0,
        feature_dim=4,
        feature_noise_sigma=0.0,
        outlier_fraction=0.0,
        transform_family="none",
        seed=123,
    )
    base.update(overrides)
    return GenConfig(**base)


def manual_instance(ground_truth):
    """A minimal ProblemInstance with the requested per-object labels."""
    rng = np.random.default_rng(0)
    points = tuple(rng.uniform(size=(len(g), 2)) for g in ground_truth)
    features = tuple(rng.normal(size=(len(g), 3)) for g in ground_truth)
    return ProblemInstance(
        points=points,
        features=features,
        ground_truth=tuple(np.asarray(g) for g in ground_truth),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        clean_config(k=0)
    with pytest.raises(ValueError):
        clean_config(d_true=0)
    with pytest.raises(ValueError):
        clean_config(visibility=0.0)
    with pytest.raises(ValueError):
        clean_config(visibility=1.5)
    with pytest.raises(ValueError):
        clean_config(outlier_fraction=1.0)
    with pytest.raises(ValueError):
        clean_config(coord_noise_sigma=-0.1)
    with pytest.raises(ValueError):
        clean_config(transform_family="affine")
    with pytest.raises(ValueError):
        clean_config(occlusion_rect=(0.0, 0.0, 2.0, 0.5))
    with pytest.raises(ValueError):
        clean_config(feature_prototypes=0)
    with pytest.raises(ValueError):
        clean_config(feature_dim=0)


def test_clean_instance_repeats_the_universe():
    p = generate(clean_config())
    assert p.sizes == (5, 5, 5)
    for i in range(1, p.k):
        assert np.array_equal(p.points[i], p.points[0])
        assert np.array_equal(p.features[i], p.features[0])
    for g in p.ground_truth:
        assert g.tolist() == [0, 1, 2, 3, 4]
    u = planted_assignment(p, d=5)
    assert fscore(expand(u), p.ground_truth).fscore == 1.0


def test_same_seed_same_instance():
    cfg = clean_config(
        transform_family="rigid", coord_noise_sigma=0.01, outlier_fraction=0.3,
        visibility=0.9,
    )
    assert generate(cfg) == generate(cfg)
    other = GenConfig(**{**cfg.__dict__, "seed": 124})
    assert generate(other) != generate(cfg)


def test_half_outliers_double_the_object():
    cfg = clean_config(k=4, d_true=10, outlier_fraction=0.5, seed=7)
    p = generate(cfg)
    for g in p.ground_truth:
        assert int(np.sum(g < 0)) == int(np.sum(g >= 0))


def test_third_outliers_within_rounding():
    cfg = clean_config(k=4, d_true=9, outlier_fraction=1.0 / 3.0, seed=7)
    p = generate(cfg)
    for g in p.ground_truth:
        v = int(np.sum(g >= 0))
        assert int(np.sum(g < 0)) == round(v * 0.5)


def test_visibility_controls_object_sizes():
    cfg = clean_config(k=20, d_true=30, visibility=0.5, seed=11)
    p = generate(cfg)
    sizes = np.array(p.sizes)
    assert 10.0 <= sizes.mean() <= 20.0
    assert all(s <= 30 for s in p.sizes)


def test_occlusion_removes_exactly_the_points_inside_the_box():
    rect = (0.0, 0.0, 0.5, 0.5)
    with_box = clean_config(k=1, d_true=40, occlusion_rect=rect, seed=3)
    without = clean_config(k=1, d_true=40, seed=3)
    full = generate(without)
    occluded = generate(with_box)
    lo = full.points[0].min(axis=0)
    span = full.points[0].max(axis=0) - lo
    box_lo = lo + np.array(rect[:2]) * span
    box_hi = box_lo + np.array(rect[2:]) * span
    inside = np.all((full.points[0] >= box_lo) & (full.points[0] <= box_hi), axis=1)
    assert occluded.ground_truth[0].tolist() == np.flatnonzero(~inside).tolist()


def test_occluding_everything_is_an_error():
    with pytest.raises(GenerationError):
        generate(clean_config(k=1, occlusion_rect=(0.0, 0.0, 1.0, 1.0)))


def test_rigid_transform_preserves_pairwise_distances():
    cfg = clean_config(k=2, d_true=8, transform_family="rigid", seed=5)
    p = generate(cfg)
    assert np.allclose(pdist(p.points[0]), pdist(p.points[1]), atol=1e-9)
    assert not np.allclose(p.points[0], p.points[1])


def test_similarity_transform_scales_distances_uniformly():
    cfg = clean_config(k=2, d_true=8, transform_family="similarity", seed=5)
    p = generate(cfg)
    ratios = pdist(p.points[1]) / pdist(p.points[0])
    assert ratios.std() < 1e-9
    assert not np.isclose(ratios.mean(), 0.0)


def test_duplicated_feature_prototypes_repeat():
    cfg = clean_config(k=1, d_true=6, feature_prototypes=2)
    p = generate(cfg)
    f = p.features[0]
    assert np.array_equal(f[0], f[2])
    assert np.array_equal(f[1], f[5])
    assert not np.array_equal(f[0], f[1])


def test_feature_noise_perturbs_but_preserves_pattern():
    noisy = clean_config(k=2, feature_noise_sigma=0.01, seed=21)
    p = generate(noisy)
    assert not np.array_equal(p.features[0], p.features[1])
    assert np.allclose(p.features[0], p.features[1], atol=0.1)


def test_empty_visible_set_is_an_error():
    cfg = clean_config(k=1, d_true=1, visibility=1e-12, seed=0)
    with pytest.raises(GenerationError):
        generate(cfg)


def test_planted_assignment_plain_case_matches_truth_exactly():
    cfg = clean_config(k=4, d_true=6, visibility=0.8, transform_family="rigid", seed=17)
    p = generate(cfg)
    u = planted_assignment(p, d=6)
    report = fscore(expand(u), p.ground_truth)
    assert report.fscore == 1.0
    for i in range(p.k):
        assert slots_of(u, i).tolist() == p.ground_truth[i].tolist()


def test_outliers_fill_surplus_columns_round_robin():
    p = manual_instance([[0, 1, 2, -1], [0, 1, 2, -1]])
    u = planted_assignment(p, d=5)
    assert slots_of(u, 0).tolist() == [0, 1, 2, 3]
    assert slots_of(u, 1).tolist() == [0, 1, 2, 4]  # offset keeps outliers apart
    assert fscore(expand(u), p.ground_truth).fscore == 1.0


def test_outliers_collide_when_surplus_is_too_small():
    p = manual_instance([[0, 1, 2, -1], [0, 1, 2, -1]])
    u = planted_assignment(p, d=4)  # a single surplus column for two outliers
    assert slots_of(u, 0)[3] == slots_of(u, 1)[3] == 3
    report = fscore(expand(u), p.ground_truth)
    assert report.precision < 1.0
    assert report.recall == 1.0


def test_planted_assignment_errors():
    p = manual_instance([[0, 1, 2, -1], [0, 1, 2, -1]])
    with pytest.raises(ValueError):
        planted_assignment(p, d=3)  # smaller than an object
    crowded = manual_instance([[0, 1, -1, -1, -1], [0, 1, -1]])
    with pytest.raises(ValueError):
        planted_assignment(crowded, d=4)  # 3 outliers, surplus of 2
    no_truth = ProblemInstance(
        points=(np.zeros((2, 2)),), features=(np.zeros((2, 3)),)
    )
    with pytest.raises(ValueError):
        planted_assignment(no_truth, d=2)


def test_planted_assignment_valid_with_many_objects():
    p = manual_instance([[0, 1, -1], [2, -1, 0], [1, 2, -1], [-1, 0, 1]])
    u = planted_assignment(p, d=7)
    out_cols = []
    for i in range(4):
        g = np.asarray(p.ground_truth[i])
        out_cols.extend(slots_of(u, i)[g < 0].tolist())
    assert sorted(out_cols) == [3, 4, 5, 6]  # all surplus columns, no reuse
    assert fscore(expand(u), p.ground_truth).fscore == 1.0


def test_index_property_survives_generation():
    p = generate(clean_config(k=2, d_true=4))
    assert isinstance(p.index, BlockIndex)
    assert p.index.sizes == (4, 4)


def test_unseeded_twin_instance_is_seed_zero():
    assert twin_prototype_instance(3, 6) == twin_prototype_instance(3, 6, seed=0)


def test_twin_instance_same_seed_same_instance():
    a = twin_prototype_instance(3, 6, seed=11)
    b = twin_prototype_instance(3, 6, seed=11)
    for i in range(3):
        assert np.array_equal(a.points[i], b.points[i])
        assert np.array_equal(a.features[i], b.features[i])
        assert np.array_equal(a.ground_truth[i], b.ground_truth[i])


def test_twin_instance_labels_and_outlier_count():
    p = twin_prototype_instance(4, 10, outlier_fraction=0.3, seed=0)
    for g in p.ground_truth:
        inliers = np.sort(g[g >= 0])
        assert np.array_equal(inliers, np.arange(10))
        assert int(np.sum(g < 0)) == 3  # round(0.3 * 10)
    assert p.index.sizes == (13, 13, 13, 13)


def test_twin_instance_prototypes_separated_by_given_distance():
    p = twin_prototype_instance(2, 8, separation=0.7, feature_noise_sigma=0.0, seed=3)
    f, g = p.features[0], p.ground_truth[0]
    by_label = {int(c): f[i] for i, c in enumerate(g) if c >= 0}
    for c in range(4):
        gap = np.linalg.norm(by_label[c] - by_label[c + 4])
        assert np.isclose(gap, 0.7, atol=1e-12)


def test_twin_instance_noiseless_features_agree_across_objects():
    p = twin_prototype_instance(3, 6, feature_noise_sigma=0.0, outlier_fraction=0.0, seed=7)
    ref = {int(c): p.features[0][i] for i, c in enumerate(p.ground_truth[0])}
    for i in (1, 2):
        for row, c in enumerate(p.ground_truth[i]):
            assert np.array_equal(p.features[i][row], ref[int(c)])


def test_twin_instance_rigid_transforms_preserve_inlier_distances():
    p = twin_prototype_instance(2, 8, outlier_fraction=0.0, seed=5)
    order0 = np.argsort(p.ground_truth[0])
    order1 = np.argsort(p.ground_truth[1])
    assert np.allclose(pdist(p.points[0][order0]), pdist(p.points[1][order1]), atol=1e-9)


def test_twin_instance_shuffles_point_order():
    p = twin_prototype_instance(4, 10, outlier_fraction=0.0, seed=1)
    assert any(
        not np.array_equal(g, np.sort(g)) for g in p.ground_truth
    )


def test_twin_instance_validation():
    with pytest.raises(ValueError, match="^d_true must be a positive even number, got 5$"):
        twin_prototype_instance(2, 5)
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        twin_prototype_instance(0, 6)
    with pytest.raises(ValueError, match="^separation must be non-negative, got -0.1$"):
        twin_prototype_instance(2, 6, separation=-0.1)
    with pytest.raises(ValueError, match=r"^outlier_fraction must be in \[0, 1\), got 1.0$"):
        twin_prototype_instance(2, 6, outlier_fraction=1.0)
    with pytest.raises(ValueError, match="^feature_dim must be >= 1, got 0$"):
        twin_prototype_instance(2, 6, feature_dim=0)
    with pytest.raises(ValueError, match="^noise sigmas must be non-negative$"):
        twin_prototype_instance(2, 6, feature_noise_sigma=-0.5)


@pytest.mark.parametrize("args, settings, message", [
    ((2.5, 6), {}, "k must be an integer, got 2.5"),
    ((True, 6), {}, "k must be an integer, got True"),
    ((3, 6.5), {}, "d_true must be an integer, got 6.5"),
    ((3, 6), {"feature_dim": 2.5}, "feature_dim must be an integer, got 2.5"),
    ((3, 6), {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ((3, 6), {"seed": None}, "seed must be an integer, got None"),
], ids=["k-fractional", "k-bool", "d_true-fractional", "feature_dim", "seed", "seed-None"])
def test_twin_settings_are_checked_by_gen_config(args, settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        twin_prototype_instance(*args, **settings)


def test_twin_instance_takes_integral_floats():
    assert twin_prototype_instance(3.0, 6.0) == twin_prototype_instance(3, 6)
