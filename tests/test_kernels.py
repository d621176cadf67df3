import tracemalloc

import numpy as np
import pytest

from hippi.cli import bench_instance
from hippi.core import BlockIndex, MultiAdjacency, ProblemInstance
from hippi.kernels import (
    DegenerateGeometryError,
    KernelConfig,
    _sparsify_topk,
    assert_psd,
    build_adjacency,
    build_similarity,
)

from helpers import dense_sparsify_topk, pairwise_similarity


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
        assert w.block(0, 1)[0, 0] == pytest.approx(1.0)

    def test_distance_sigma_sqrt2_gives_exp_minus_one(self):
        sigma = 0.7
        inst = ProblemInstance(
            points=(np.zeros((1, 2)), np.zeros((1, 2))),
            features=(np.array([[0.0]]), np.array([[sigma * np.sqrt(2.0)]])),
        )
        w = build_similarity(inst, KernelConfig(sigma=sigma))
        assert w.block(0, 1)[0, 0] == pytest.approx(np.exp(-1.0))

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
        np.testing.assert_allclose(ws.block(0, 1), w.block(0, 1)[perm], atol=1e-15)

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
        assert weighted.block(0, 1)[0, 0] < 0.1 * plain.block(0, 1)[0, 0]
        assert weighted.block(0, 1)[1, 0] < 0.1 * plain.block(0, 1)[1, 0]
        # the isolated descriptor keeps (almost) full weight
        assert weighted.block(0, 1)[2, 0] > 0.99 * plain.block(0, 1)[2, 0]

    def test_knn_sparsify_keeps_symmetry_and_top_entries(self):
        inst = make_instance(np.random.default_rng(2), k=3, size=4)
        dense = build_similarity(inst, KernelConfig(sigma=1.0))
        sparse = build_similarity(inst, KernelConfig(sigma=1.0, knn_sparsify=2))
        assert np.array_equal(sparse.data, sparse.data.T)
        kept = sparse.data > 0
        assert kept.sum() < (dense.data > 0).sum()
        # every kept entry is in the top-2 of its row or column
        for p, q in zip(*np.nonzero(kept)):
            row_rank = (dense.data[p] > dense.data[p, q]).sum()
            col_rank = (dense.data[:, q] > dense.data[p, q]).sum()
            assert row_rank < 2 or col_rank < 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(sigma=0.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, mu=-1.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, weight_mode="nope")


def symmetric_scores(rng, m, high=None):
    """Random symmetric non-negative matrix; ``high`` draws small integers, so rows tie."""
    if high is None:
        w = rng.random((m, m))
    else:
        w = rng.integers(0, high, size=(m, m)).astype(float)
    return np.triu(w, 1) + np.triu(w, 1).T


class TestSparsifyTopk:
    @pytest.mark.parametrize("m,t", [(1, 1), (2, 1), (63, 3), (64, 1), (65, 64), (150, 7), (200, 40)])
    @pytest.mark.parametrize("high", [None, 3], ids=["distinct", "ties"])
    def test_bit_identical_to_whole_matrix_cut(self, m, t, high):
        w = symmetric_scores(np.random.default_rng(m + t), m, high)
        expected = dense_sparsify_topk(w.copy(), t)
        _sparsify_topk(w, t)
        assert np.array_equal(w.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("t", [9, 10, 50])
    def test_t_at_least_m_keeps_everything(self, t):
        w = symmetric_scores(np.random.default_rng(t), 9, high=3)
        before = w.copy()
        _sparsify_topk(w, t)
        assert np.array_equal(w, before)


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

    def test_knn_sparsify_peak_below_two_w(self):
        assert self.peak_over_w(KernelConfig(sigma=2.0, knn_sparsify=5)) <= 1.6


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
        report = assert_psd(a, repair=True)
        assert report.repaired is not None
        fixed = assert_psd(report.repaired)
        assert fixed.ok
        # untouched block is carried over unchanged
        assert np.array_equal(report.repaired.blocks[1], np.eye(3))
