"""Baseline tests: independent pairwise LAPs, spectral synchronisation, inits."""

from functools import partial

import numpy as np
import pytest

from hippi.baselines import (
    greedy_init,
    pairwise_lap_matchings,
    random_init,
    spectral_sync,
)
from hippi.cli import bench_instance
from hippi.core import (
    BlockIndex,
    PairwiseMatchingSet,
    SimilarityMatrix,
    UniverseAssignment,
    expand,
)
from hippi.kernels import KernelConfig, build_similarity
from hippi.synth import twin_prototype_instance

from helpers import (
    PlainSimilarity,
    block,
    block_dense,
    brute_force_lap,
    dense_spectral_sync,
    integer_similarity,
    pack_maps,
    random_assignment,
    slots_of,
    uniform_similarity,
    unpack_maps,
    vote_similarity,
)


def two_object_similarity(cross: np.ndarray) -> SimilarityMatrix:
    mi, mj = cross.shape
    w = np.zeros((mi + mj, mi + mj))
    w[:mi, mi:] = cross
    w[mi:, :mi] = cross.T
    return SimilarityMatrix(data=w, index=BlockIndex(sizes=(mi, mj)))


def pair_fscore(pred: set, true: set) -> float:
    tp = len(pred & true)
    if tp == 0:
        return 0.0
    precision = tp / len(pred)
    recall = tp / len(true)
    return 2 * precision * recall / (precision + recall)


def test_spectral_rejects_unmirrored_maps():
    index = BlockIndex(sizes=(2, 1))
    good = ((np.arange(2), np.array([0, -1])), (np.array([0]), np.arange(1)))
    spectral_sync(pack_maps(good, index), d=2)
    for back in ([1], [-1]):  # matched to the wrong point, or not matched back at all
        bad = ((np.arange(2), np.array([0, -1])), (np.array(back), np.arange(1)))
        with pytest.raises(ValueError, match=r"maps \(0,1\) and \(1,0\) are not mirror"):
            spectral_sync(pack_maps(bad, index), d=2)
    u = random_assignment(np.random.default_rng(1), (2, 3, 3), 3)
    maps = unpack_maps(expand(u))
    maps[2][1] = maps[2][1][::-1].copy()
    skewed = pack_maps(maps, u.index)
    with pytest.raises(ValueError, match=r"maps \(1,2\) and \(2,1\)"):
        spectral_sync(skewed, d=3)


def test_spectral_names_the_pair_when_only_the_reverse_map_matches():
    index = BlockIndex(sizes=(2, 1))
    only_back = ((np.arange(2), np.array([-1, -1])), (np.array([1]), np.arange(1)))
    with pytest.raises(ValueError, match=r"maps \(0,1\) and \(1,0\) are not mirror"):
        spectral_sync(pack_maps(only_back, index), d=2)


def test_identity_cross_scores_match_identically():
    w = two_object_similarity(np.eye(2))
    x = pairwise_lap_matchings(w)
    assert np.array_equal(block_dense(x, 0, 1), np.eye(2))


def test_antidiagonal_cross_scores_match_crosswise():
    w = two_object_similarity(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = pairwise_lap_matchings(w)
    assert np.array_equal(block_dense(x, 0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("seed", range(15))
def test_pairwise_blocks_attain_brute_force_optimum(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(1, 6, size=3).tolist())
    index = BlockIndex(sizes=sizes)
    w = rng.uniform(0.0, 1.0, size=(index.m, index.m))
    w = np.triu(w, 1)
    w = w + w.T
    for i in range(index.k):
        s = index.slice_of(i)
        w[s, s] = 0.0
    sim = SimilarityMatrix(data=w, index=index)
    x = pairwise_lap_matchings(sim)
    for i in range(index.k):
        assert np.array_equal(block_dense(x, i, i), np.eye(sizes[i]))
        for j in range(i + 1, index.k):
            x_ij = block_dense(x, i, j)
            assert int(x_ij.sum()) == min(sizes[i], sizes[j])
            got = float((x_ij * block(sim, i, j)).sum())
            wide = block(sim, i, j) if sizes[i] <= sizes[j] else block(sim, i, j).T
            best, _ = brute_force_lap(wide)
            assert got == pytest.approx(best, rel=1e-12)


def test_spectral_single_object_is_identity():
    index = BlockIndex(sizes=(4,))
    x = PairwiseMatchingSet(targets=np.arange(4)[:, None], index=index)
    u = spectral_sync(x, d=4)
    assert u.assignment.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(12))
def test_spectral_recovers_planted_assignment_when_anchor_covers_universe(seed):
    rng = np.random.default_rng(500 + seed)
    d = int(rng.integers(2, 6))
    others = tuple(rng.integers(1, d + 1, size=rng.integers(1, 4)).tolist())
    sizes = (d,) + others  # the largest object holds every universe slot
    u = random_assignment(rng, sizes, d)
    recovered = spectral_sync(expand(u), d)
    assert expand(recovered) == expand(u)


def test_spectral_handles_universe_larger_than_total_points():
    rng = np.random.default_rng(3)
    u = random_assignment(rng, (2, 2), 2)
    recovered = spectral_sync(expand(u), d=6)
    assert expand(recovered) == expand(u)


def test_spectral_rejects_too_small_universe():
    index = BlockIndex(sizes=(3,))
    x = PairwiseMatchingSet(targets=np.arange(3)[:, None], index=index)
    with pytest.raises(ValueError, match="universe size"):
        spectral_sync(x, d=2)


@pytest.mark.parametrize("seed", range(6))
def test_spectral_repairs_corrupted_blocks(seed):
    """Replacing a tenth of the pairwise blocks with shifted (wrong) matchings
    should be partially undone by synchronisation."""
    rng = np.random.default_rng(900 + seed)
    d, k = 5, 6
    u = random_assignment(rng, (d,) * k, d)
    truth = set(expand(u).matched_pairs())
    maps = unpack_maps(expand(u))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = rng.choice(len(pairs), size=2, replace=False)
    for c in chosen:
        i, j = pairs[c]
        maps[i][j] = maps[i][j][np.roll(np.arange(d), 1)]  # cyclic row shift
        maps[j][i] = np.argsort(maps[i][j])  # the mirror of a full permutation
    corrupted = pack_maps(maps, u.index)
    before = pair_fscore(set(corrupted.matched_pairs()), truth)
    synced = spectral_sync(corrupted, d)
    after = pair_fscore(set(expand(synced).matched_pairs()), truth)
    assert after > before


def _twin_votes():
    """Votes whose eigenvalue 16 repeats 5 times; one plain ARPACK run finds only 4 copies."""
    p = twin_prototype_instance(
        16, 10, separation=0.8, feature_noise_sigma=0.3, outlier_fraction=0.3,
        feature_dim=8, seed=9,
    )
    return pairwise_lap_matchings(build_similarity(p, KernelConfig(sigma=0.5, mu=3.0)))


def _ladder_votes():
    """Exact votes from the ladder: eigenvalue 50 repeats 20 times in 1000."""
    p = bench_instance(1000, 20, 0)
    return pairwise_lap_matchings(build_similarity(p, KernelConfig()))


def _random_votes(sizes, seed):
    index = BlockIndex(sizes=sizes)
    return pairwise_lap_matchings(uniform_similarity(np.random.default_rng(seed), index))


def _tie_at_the_cut():
    """Exact votes whose 10th to 12th eigenvalues tie at 4, so ``d = 11`` cuts the tie.

    Slots 0-8 sit in all 20 objects; slots 9, 10 and 11 each sit in 4
    objects, and the anchor (object 0) holds 9 and 10.  Which of the tied
    eigenvectors the cut keeps depends on the Lanczos start vector.
    """
    common = list(range(9))
    objs = [common + [9, 10]] + [common + [9]] * 3 + [common + [10]] * 3
    objs += [common + [11]] * 4 + [common] * 9
    index = BlockIndex(sizes=tuple(len(o) for o in objs))
    return expand(UniverseAssignment(assignment=np.concatenate(objs), d=12, index=index))


@pytest.mark.parametrize(
    "votes, d",
    [
        (_twin_votes, 13),  # m = 208: Lanczos
        (_ladder_votes, 40),  # Lanczos; the top 40 also take 20 zero eigenvalues
        (partial(_random_votes, (10,) * 10, 0), 10),  # m = 100: Lanczos, on the line
        (partial(_random_votes, (10,) * 10, 0), 11),  # dense, just past the line
        (partial(_random_votes, (3, 3, 2), 1), 6),  # m - 2: dense
        (partial(_random_votes, (3, 3, 2), 1), 7),  # m - 1: ARPACK cannot take it
    ],
    ids=["twins", "ladder-1000", "lanczos-line", "dense-line", "m-2", "m-1"],
)
def test_spectral_matches_the_dense_reference(votes, d):
    x = votes()
    assert spectral_sync(x, d) == dense_spectral_sync(x, d)


def test_spectral_reruns_repeat_their_bytes_in_one_process():
    """ARPACK's own start vector changes from call to call; the fixed one does not."""
    x = _tie_at_the_cut()
    assert len({spectral_sync(x, 11).assignment.tobytes() for _ in range(8)}) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, "0"])
def test_random_init_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=r"^seed must be (>= 0|an integer), got"):
        random_init(BlockIndex(sizes=(2, 3)), 3, seed=seed)


def test_random_init_is_deterministic_and_valid():
    index = BlockIndex(sizes=(3, 5, 2))
    a = random_init(index, 6, seed=42)
    b = random_init(index, 6, seed=42)
    assert a.assignment.tolist() == b.assignment.tolist()
    assert isinstance(a, UniverseAssignment)
    assert random_init(index, 6, seed=43).assignment.tolist() != a.assignment.tolist()


def test_unseeded_random_init_is_seed_zero():
    index = BlockIndex(sizes=(3, 5, 2))
    assert random_init(index, 6) == random_init(index, 6) == random_init(index, 6, seed=0)


def test_random_init_draws_distinct_slots_in_a_universe_of_2_40_slots():
    index = BlockIndex(sizes=(20, 7, 20))
    u = random_init(index, 2**40, seed=0)
    for i in range(index.k):
        block = slots_of(u, i)
        assert np.unique(block).size == block.size
        assert block.min() >= 0 and block.max() < 2**40


def test_random_init_square_case_is_a_permutation():
    index = BlockIndex(sizes=(4,))
    u = random_init(index, 4, seed=0)
    assert sorted(u.assignment.tolist()) == [0, 1, 2, 3]


def test_random_init_frequencies_are_uniform():
    index = BlockIndex(sizes=(2,))
    hits = sum(
        random_init(index, 2, seed=s).assignment.tolist() == [0, 1]
        for s in range(10_000)
    )
    assert 0.48 <= hits / 10_000 <= 0.52


def test_greedy_init_matches_obvious_similarity():
    cross = np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.8]])
    w = two_object_similarity(cross)
    u = greedy_init(w, d=3)
    anchor = slots_of(u, 1)  # larger object anchors the first slots in order
    assert anchor.tolist() == [0, 1, 2]
    assert slots_of(u, 0).tolist() == [0, 2]


@pytest.mark.parametrize(
    "method",
    [
        lambda w: greedy_init(w, d=12),
        pairwise_lap_matchings,
        lambda w: spectral_sync(pairwise_lap_matchings(w), d=12),
    ],
    ids=["greedy", "pairwise", "spectral"],
)
@pytest.mark.parametrize("seed", range(3))
def test_baselines_read_w_only_through_its_operator(method, seed):
    """Any ``W`` with ``index``, ``gather`` and ``@`` gives what ``SimilarityMatrix`` gives."""
    index = BlockIndex(sizes=(4, 7, 1, 7, 5))
    w = uniform_similarity(np.random.default_rng(seed), index)
    assert method(PlainSimilarity(w.data, index)) == method(w)


def test_greedy_init_rejects_small_universe():
    w = two_object_similarity(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="universe size"):
        greedy_init(w, d=2)


@pytest.mark.parametrize("d", [-1, 0, 2])
def test_random_init_rejects_small_universe(d):
    with pytest.raises(ValueError, match=f"universe size {d} is smaller than the largest object"):
        random_init(BlockIndex(sizes=(2, 3)), d, seed=0)


def test_vote_similarity_is_binary_symmetric_zero_diagonal():
    rng = np.random.default_rng(4)
    sim = integer_similarity(rng, sizes=(3, 4, 3))
    x = pairwise_lap_matchings(sim)
    votes = vote_similarity(x)
    assert isinstance(votes, SimilarityMatrix)
    assert set(np.unique(votes.data)) <= {0.0, 1.0}
    for i in range(3):
        assert not block(votes, i, i).any()


def test_vote_similarity_entries_equal_matched_pairs():
    rng = np.random.default_rng(9)
    sim = integer_similarity(rng, sizes=(4, 2, 5))
    x = pairwise_lap_matchings(sim)
    votes = vote_similarity(x)
    pairs = set(x.matched_pairs())
    assert votes.data.sum() == 2 * len(pairs)  # each vote mirrored once
    for i, p, j, q in pairs:
        assert block(votes, i, j)[p, q] == 1.0
        assert block(votes, j, i)[q, p] == 1.0


def test_vote_similarity_feeds_the_solver_operator():
    from hippi.solver import WbarOperator, objective

    rng = np.random.default_rng(2)
    sim = integer_similarity(rng, sizes=(3, 3))
    votes = vote_similarity(pairwise_lap_matchings(sim))
    op = WbarOperator(votes, None)
    u = random_assignment(np.random.default_rng(0), (3, 3), d=3)
    assert objective(op, u) >= 0.0
