import re
import tracemalloc

import numpy as np
import pytest

from hippi import kernels
from hippi.cli import bench_instance
from hippi.core import BlockIndex, MultiAdjacency, ProblemInstance
from hippi.kernels import (
    BLOCK_ROWS,
    DegenerateGeometryError,
    KernelConfig,
    assert_psd,
    build_adjacency,
    build_similarity,
)

from helpers import block, pairwise_similarity


def make_instance(rng, k=3, size=5, dim=2, fdim=4):
    points = tuple(rng.normal(size=(size, dim)) for _ in range(k))
    features = tuple(rng.normal(size=(size, fdim)) for _ in range(k))
    return ProblemInstance(points=points, features=features)


def scalar_similarity(instance, sigma):
    """Independent scalar-loop evaluation of the similarity formula (constant weights)."""
    idx = instance.index
    w = np.zeros((idx.m, idx.m))
    for i in range(idx.k):
        for j in range(idx.k):
            if i == j:
                continue
            for p in range(idx.sizes[i]):
                for q in range(idx.sizes[j]):
                    diff = instance.features[i][p] - instance.features[j][q]
                    val = np.exp(-float(diff @ diff) / (2 * sigma**2))
                    w[idx.offsets[i] + p, idx.offsets[j] + q] = val
    return w


class TestBuildSimilarity:
    def test_identical_features_score_one(self):
        inst = ProblemInstance(
            points=(np.zeros((1, 2)), np.ones((1, 2))),
            features=(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])),
        )
        w = build_similarity(inst, KernelConfig(sigma=1.0))
        assert block(w, 0, 1)[0, 0] == pytest.approx(1.0)

    def test_distance_sigma_sqrt2_gives_exp_minus_one(self):
        sigma = 0.7
        inst = ProblemInstance(
            points=(np.zeros((1, 2)), np.zeros((1, 2))),
            features=(np.array([[0.0]]), np.array([[sigma * np.sqrt(2.0)]])),
        )
        w = build_similarity(inst, KernelConfig(sigma=sigma))
        assert block(w, 0, 1)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_matches_scalar_oracle(self):
        inst = make_instance(np.random.default_rng(0))
        w = build_similarity(inst, KernelConfig(sigma=1.3))
        np.testing.assert_allclose(w.data, scalar_similarity(inst, 1.3), atol=1e-12)

    @pytest.mark.parametrize("weight_mode", ["constant", "intra-ratio"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_per_pair_build(self, weight_mode, seed):
        rng = np.random.default_rng(seed)
        sizes = (1, 7, 1, 12, 3) if seed % 2 else (5, 1, 9, 2)
        inst = ProblemInstance(
            points=tuple(rng.normal(size=(s, 2)) for s in sizes),
            features=tuple(rng.normal(size=(s, 6)) for s in sizes),
        )
        sigma = 0.4 + seed
        w = build_similarity(inst, KernelConfig(sigma=sigma, weight_mode=weight_mode))
        expected = pairwise_similarity(inst, sigma, weight_mode)
        assert np.array_equal(w.data.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("workers", [1, None, 3])
    @pytest.mark.parametrize("weight_mode", ["constant", "intra-ratio"])
    def test_row_blocks_build_the_per_pair_w_whatever_the_thread_count(
        self, monkeypatch, weight_mode, workers
    ):
        """Several row blocks, objects across block edges and 1-point objects; one
        worker, the default count of one per allowed CPU, and three."""
        if workers is not None:
            monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(workers)))
        rng = np.random.default_rng(17)
        sizes = (1, 62, 1, 70, 1, 1, 50, 29)  # m = 215; block edges at 64, 128, 192
        assert sum(sizes) > 3 * BLOCK_ROWS
        inst = ProblemInstance(
            points=tuple(rng.normal(size=(s, 2)) for s in sizes),
            features=tuple(rng.normal(size=(s, 6)) for s in sizes),
        )
        w = build_similarity(inst, KernelConfig(sigma=0.9, weight_mode=weight_mode))
        expected = pairwise_similarity(inst, 0.9, weight_mode)
        assert np.array_equal(w.data.view(np.int64), expected.view(np.int64))

    def test_subnormal_scores_are_flushed_to_zero(self):
        """``exp(-720)`` is subnormal and becomes 0; ``exp(-700)`` is normal and stays."""
        inst = ProblemInstance(
            points=(np.zeros((1, 2)), np.ones((1, 2)), 2 * np.ones((1, 2))),
            features=(np.zeros((1, 1)), np.sqrt([[1400.0]]), np.sqrt([[1440.0]])),
        )
        w = build_similarity(inst, KernelConfig(sigma=1.0)).data
        assert w[0, 1] == pytest.approx(np.exp(-700.0), rel=1e-9)
        assert 0.0 < np.exp(-720.0) < np.finfo(np.float64).tiny
        assert w[0, 2] == 0.0

    def test_invariant_under_point_reordering(self):
        rng = np.random.default_rng(1)
        inst = make_instance(rng, k=2, size=6)
        perm = rng.permutation(6)
        shuffled = ProblemInstance(
            points=(inst.points[0][perm], inst.points[1]),
            features=(inst.features[0][perm], inst.features[1]),
        )
        w = build_similarity(inst, KernelConfig(sigma=1.0))
        ws = build_similarity(shuffled, KernelConfig(sigma=1.0))
        np.testing.assert_allclose(block(ws, 0, 1), block(w, 0, 1)[perm], atol=1e-15)

    def test_intra_ratio_downweights_ambiguous_descriptors(self):
        # object 0 has two nearly identical descriptors; both cross scores drop
        feats0 = np.array([[0.0, 0.0], [0.05, 0.0], [5.0, 5.0]])
        feats1 = np.array([[0.0, 0.0]])
        inst = ProblemInstance(
            points=(np.arange(6.0).reshape(3, 2), np.zeros((1, 2))),
            features=(feats0, feats1),
        )
        plain = build_similarity(inst, KernelConfig(sigma=2.0))
        weighted = build_similarity(inst, KernelConfig(sigma=2.0, weight_mode="intra-ratio"))
        assert block(weighted, 0, 1)[0, 0] < 0.1 * block(plain, 0, 1)[0, 0]
        assert block(weighted, 0, 1)[1, 0] < 0.1 * block(plain, 0, 1)[1, 0]
        # the isolated descriptor keeps (almost) full weight
        assert block(weighted, 0, 1)[2, 0] > 0.99 * block(plain, 0, 1)[2, 0]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(sigma=0.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, mu=-1.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, weight_mode="nope")

    @pytest.mark.parametrize("sigma", [1e155, 1e200, 1e-170])
    def test_sigma_whose_scale_overflows_or_vanishes_is_rejected(self, sigma):
        """``2 sigma^2`` is inf, an ``OverflowError`` or 0: each raises naming sigma."""
        message = f"sigma must be positive with 0 < 2 sigma^2 < inf, got {sigma}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KernelConfig(sigma=sigma)


class TestSimilarityMemory:
    """A build holds ``W`` and small per-block work arrays, never a second ``m x m`` array."""

    @staticmethod
    def peak_over_w(config: KernelConfig) -> float:
        rng = np.random.default_rng(0)
        sizes = [20 + i % 3 for i in range(60)]  # m = 1260
        inst = ProblemInstance(
            points=tuple(rng.normal(size=(s, 2)) for s in sizes),
            features=tuple(rng.normal(size=(s, 8)) for s in sizes),
        )
        tracemalloc.start()
        try:
            w = build_similarity(inst, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.m >= 1000
        return peak / w.data.nbytes

    def test_constant_weights_peak_near_one_w(self):
        assert self.peak_over_w(KernelConfig(sigma=2.0)) <= 1.1

    def test_intra_ratio_peak_near_one_w(self):
        assert self.peak_over_w(KernelConfig(sigma=2.0, weight_mode="intra-ratio")) <= 1.3


def test_adjacency_build_peaks_at_twice_its_blocks():
    """The blocks list and :class:`MultiAdjacency`'s stacks of it, and no ``n x n`` temporaries.

    Both hold every block while the stacks are filled, so twice the blocks is
    the floor; 0.1% more leaves room for bookkeeping.
    """
    inst = bench_instance(3000, 1500, 0)  # two objects of 1500 points
    tracemalloc.start()
    try:
        a = build_adjacency(inst, KernelConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sum(b.nbytes for b in a.blocks) <= 2.001


class TestBuildAdjacency:
    def test_two_point_object(self):
        d = 3.7
        inst = ProblemInstance(
            points=(np.array([[0.0, 0.0], [d, 0.0]]),),
            features=(np.zeros((2, 1)),),
        )
        a = build_adjacency(inst, KernelConfig(sigma=1.0, mu=1.0))
        np.testing.assert_allclose(np.diag(a.blocks[0]), 1.0)
        assert a.blocks[0][0, 1] == pytest.approx(np.exp(-0.5))

    def test_diagonal_is_one(self):
        inst = make_instance(np.random.default_rng(3))
        a = build_adjacency(inst, KernelConfig(sigma=1.0))
        for block in a.blocks:
            np.testing.assert_array_equal(np.diag(block), 1.0)

    def test_blocks_are_psd(self):
        inst = make_instance(np.random.default_rng(4), k=2, size=10)
        a = build_adjacency(inst, KernelConfig(sigma=1.0))
        for block in a.blocks:
            vals = np.linalg.eigvalsh(block)
            assert vals.min() >= -1e-8 * np.abs(vals).max()

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 2))
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = pts @ rot.T + np.array([3.0, -1.0])
        feats = rng.normal(size=(8, 3))
        a1 = build_adjacency(
            ProblemInstance(points=(pts,), features=(feats,)), KernelConfig(sigma=1.0)
        )
        a2 = build_adjacency(
            ProblemInstance(points=(moved,), features=(feats,)), KernelConfig(sigma=1.0)
        )
        np.testing.assert_allclose(a1.blocks[0], a2.blocks[0], atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(7, 3))
        feats = rng.normal(size=(7, 2))
        a1 = build_adjacency(
            ProblemInstance(points=(pts,), features=(feats,)), KernelConfig(sigma=1.0)
        )
        a2 = build_adjacency(
            ProblemInstance(points=(pts * 17.0,), features=(feats,)), KernelConfig(sigma=1.0)
        )
        np.testing.assert_allclose(a1.blocks[0], a2.blocks[0], atol=1e-12)

    def test_single_point_fallback(self):
        inst = ProblemInstance(
            points=(np.zeros((1, 2)), np.eye(2)),
            features=(np.zeros((1, 2)), np.zeros((2, 2))),
        )
        a = build_adjacency(inst, KernelConfig(sigma=1.0))
        assert np.array_equal(a.blocks[0], [[1.0]])

    def test_mu_that_makes_the_scale_zero_is_degenerate_naming_the_object(self):
        # sigma_A is 1 for object 0, where 2 mu sigma_A^2 is a subnormal, and
        # 0.1 for object 1, where it rounds to 0.
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        inst = ProblemInstance(points=(line, line / 10), features=(np.zeros((3, 1)),) * 2)
        message = r"^object 1: adjacency scale is 0 \(mu=5e-324, sigma_A=0\.1\)$"
        with pytest.raises(DegenerateGeometryError, match=message):
            build_adjacency(inst, KernelConfig(mu=5e-324))

    def test_quotient_that_overflows_is_a_silent_zero(self):
        # 2 mu sigma_A^2 is a subnormal here, so every off-diagonal quotient overflows to -inf.
        inst = make_instance(np.random.default_rng(3))
        for block in build_adjacency(inst, KernelConfig(mu=1e-322)).blocks:
            assert np.array_equal(block, np.eye(len(block)))

    def test_coincident_points_rejected(self):
        inst = ProblemInstance(
            points=(np.zeros((3, 2)),),
            features=(np.zeros((3, 2)),),
        )
        with pytest.raises(DegenerateGeometryError):
            build_adjacency(inst, KernelConfig(sigma=1.0))

    def test_precomputed_distances_override(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        dist = np.array([[0.0, 5.0], [5.0, 0.0]])
        inst = ProblemInstance(
            points=(pts,), features=(np.zeros((2, 1)),), distances=(dist,)
        )
        a = build_adjacency(inst, KernelConfig(sigma=1.0, mu=1.0))
        assert a.blocks[0][0, 1] == pytest.approx(np.exp(-0.5))


class TestAssertPsd:
    def test_identity_clean(self):
        a = MultiAdjacency(blocks=(np.eye(2),), index=BlockIndex((2,)))
        report = assert_psd(a)
        assert report.ok
        assert report.min_eigenvalues[0] == pytest.approx(1.0)

    def test_indefinite_block_flagged(self):
        a = MultiAdjacency(
            blocks=(np.array([[1.0, 2.0], [2.0, 1.0]]),), index=BlockIndex((2,))
        )
        report = assert_psd(a)
        assert report.flagged == (0,)
        assert report.min_eigenvalues[0] == pytest.approx(-1.0)

    def test_gaussian_kernel_not_flagged(self):
        inst = make_instance(np.random.default_rng(7), k=3, size=9)
        report = assert_psd(build_adjacency(inst, KernelConfig(sigma=1.0)))
        assert report.ok

    def test_repair_clamps_negative_eigenvalues(self):
        a = MultiAdjacency(
            blocks=(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(3)),
            index=BlockIndex((2, 3)),
        )
        report = assert_psd(a)
        assert report.flagged == (0,)
        fixed = assert_psd(report.adjacency)
        assert fixed.ok
        # untouched block is carried over unchanged
        assert np.array_equal(report.adjacency.blocks[1], np.eye(3))

    def test_clean_adjacency_is_handed_back_as_is(self):
        a = build_adjacency(make_instance(np.random.default_rng(3)), KernelConfig())
        assert assert_psd(a).adjacency is a
        assert assert_psd(a, strict=True).adjacency is a

    def test_strict_names_the_first_flagged_object(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        a = MultiAdjacency(blocks=(np.eye(2), indefinite, indefinite), index=BlockIndex((2, 2, 2)))
        with pytest.raises(ValueError, match=r"^object 1: adjacency block is not positive "
                           r"semidefinite \(smallest eigenvalue -1\.000e\+00\)$"):
            assert_psd(a, strict=True)
