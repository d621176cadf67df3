"""Metric tests: exact violation counting and pair-level scoring."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hippi.core import (
    BlockIndex,
    PairwiseMatchingSet,
    ProblemInstance,
    UniverseAssignment,
    expand,
)
from hippi.metrics import CycleReport, MatchReport, fscore, verify_cycle_consistency

from helpers import (
    block_dense,
    loop_cycle_error,
    loop_cycle_violations,
    match_count,
    naive_cycle_error,
    naive_cycle_violations,
    pack_maps,
    random_assignment,
    slots_of,
    to_matrix,
    unpack_maps,
)


def three_cycle_with_broken_link() -> PairwiseMatchingSet:
    """Three single-point objects: 0~1 and 1~2 matched, 0~2 missing."""
    one = np.array([0])
    none = np.array([-1])
    maps = (
        (one, one, none),
        (one, one, one),
        (none, one, one),
    )
    return pack_maps(maps, BlockIndex(sizes=(1, 1, 1)))


def corrupt(rng, ms: PairwiseMatchingSet) -> PairwiseMatchingSet:
    """Randomly drop or scramble block maps, keeping each map injective."""
    maps = unpack_maps(ms)
    for i in range(ms.k):
        for j in range(ms.k):
            mp = maps[i][j]
            if rng.random() < 0.4 and mp.size:
                mp[rng.integers(0, mp.size)] = -1
            if rng.random() < 0.4:
                hit = np.flatnonzero(mp >= 0)
                mp[hit] = mp[rng.permutation(hit)]
            maps[i][j] = mp
    return pack_maps(maps, ms.index)


def dense_blocks(ms: PairwiseMatchingSet):
    return [[block_dense(ms, i, j) for j in range(ms.k)] for i in range(ms.k)]


@pytest.mark.parametrize("seed", range(10))
def test_expanded_assignments_have_zero_violations(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(1, 5, size=rng.integers(1, 5)).tolist())
    u = random_assignment(rng, sizes, max(sizes) + int(rng.integers(0, 3)))
    report = verify_cycle_consistency(expand(u))
    assert report.ok
    assert (report.identity, report.symmetry, report.transitivity) == (0, 0, 0)
    assert verify_cycle_consistency(expand(u)).cycle_error == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_consistency_by_construction_property(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(1, 4, size=rng.integers(1, 4)).tolist())
    u = random_assignment(rng, sizes, max(sizes) + 1)
    assert verify_cycle_consistency(expand(u)).ok
    assert verify_cycle_consistency(expand(u)).cycle_error == 0.0


def test_broken_three_cycle_counts_one_transitivity_violation():
    report = verify_cycle_consistency(three_cycle_with_broken_link())
    assert report.identity == 0
    assert report.symmetry == 0
    assert report.transitivity == 1
    assert not report.ok
    assert report.total == 1


def test_broken_three_cycle_has_full_cycle_error():
    assert verify_cycle_consistency(three_cycle_with_broken_link()).cycle_error == 1.0


def test_identity_violations_count_wrong_entries():
    # One object, two points matched to each other on the diagonal block:
    # both diagonal entries missing and two spurious ones -> 4 wrong entries.
    swapped = pack_maps(((np.array([1, 0]),),), BlockIndex(sizes=(2,)))
    report = verify_cycle_consistency(swapped)
    assert report.identity == 4
    assert report.identity == naive_cycle_violations(dense_blocks(swapped))[0]


@pytest.mark.parametrize("seed", range(15))
def test_violation_counts_match_dense_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    sizes = tuple(rng.integers(1, 5, size=rng.integers(2, 5)).tolist())
    u = random_assignment(rng, sizes, max(sizes) + 1)
    ms = corrupt(rng, expand(u))
    report = verify_cycle_consistency(ms)
    assert (report.identity, report.symmetry, report.transitivity) == naive_cycle_violations(
        dense_blocks(ms)
    )


@pytest.mark.parametrize("seed", range(15))
def test_cycle_error_matches_dense_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    sizes = tuple(rng.integers(1, 5, size=rng.integers(3, 6)).tolist())
    u = random_assignment(rng, sizes, max(sizes) + 1)
    ms = corrupt(rng, expand(u))
    assert verify_cycle_consistency(ms).cycle_error == naive_cycle_error(dense_blocks(ms))


def random_partial_maps(rng, sizes) -> PairwiseMatchingSet:
    """Independent random partial injections for all k^2 maps, diagonal included."""
    maps = []
    for si in sizes:
        row = []
        for sj in sizes:
            mp = np.full(si, -1, dtype=np.int64)
            take = int(rng.integers(0, min(si, sj) + 1))
            mp[rng.permutation(si)[:take]] = rng.permutation(sj)[:take]
            row.append(mp)
        maps.append(tuple(row))
    return pack_maps(maps, BlockIndex(tuple(sizes)))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    scramble=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_vectorised_consistency_matches_loop_oracle(sizes, scramble, seed):
    """Both consistency measures against the one-triple-at-a-time loops, on
    broken maps: corrupted expansions, or independent random injections."""
    rng = np.random.default_rng(seed)
    if scramble:
        ms = random_partial_maps(rng, sizes)
    else:
        ms = corrupt(rng, expand(random_assignment(rng, sizes, max(sizes) + 1)))
    report = verify_cycle_consistency(ms)
    assert (report.identity, report.symmetry, report.transitivity) == loop_cycle_violations(ms)
    assert verify_cycle_consistency(ms).cycle_error == loop_cycle_error(ms)


def test_cycle_error_is_zero_without_triples():
    rng = np.random.default_rng(5)
    u = random_assignment(rng, (3, 3), 3)
    assert verify_cycle_consistency(expand(u)).cycle_error == 0.0  # k = 2: no three-cycles at all


def test_perfect_prediction_scores_one():
    rng = np.random.default_rng(7)
    u = random_assignment(rng, (3, 4, 2), 5)
    truth = [slots_of(u, i) for i in range(3)]
    report = fscore(expand(u), truth)
    assert report.precision == report.recall == report.fscore == 1.0
    assert report.false_positives == report.false_negatives == 0
    assert report.true_positives == match_count(expand(u))
    assert report.cycle_error == 0.0


def test_empty_prediction_scores_zero():
    index = BlockIndex(sizes=(2, 2))
    none = np.full(2, -1)
    ident = np.arange(2)
    ms = pack_maps(((ident, none), (none, ident)), index)
    report = fscore(ms, [np.array([0, 1]), np.array([0, 1])])
    assert report.recall == 0.0
    assert report.fscore == 0.0
    assert report.true_positives == 0
    assert report.false_negatives == 2


def test_half_recall_no_false_positives_scores_two_thirds():
    index = BlockIndex(sizes=(2, 2))
    half = np.array([0, -1])
    ident = np.arange(2)
    ms = pack_maps(((ident, half), (half, ident)), index)
    report = fscore(ms, [np.array([0, 1]), np.array([0, 1])])
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.fscore == pytest.approx(2.0 / 3.0)


def test_outlier_labels_never_form_true_pairs():
    index = BlockIndex(sizes=(2, 2))
    u = UniverseAssignment(np.array([0, 1, 0, 1]), d=2, index=index)
    truth = [np.array([0, -1]), np.array([0, -1])]
    report = fscore(u, truth)
    # the matched outlier pair is predicted but can only count as an FP
    assert report.true_positives == 1
    assert report.false_positives == 1
    assert report.false_negatives == 0


def test_fscore_invariant_under_column_relabelling():
    rng = np.random.default_rng(11)
    u = random_assignment(rng, (3, 3, 2), 4)
    truth = [slots_of(u, i) for i in range(3)]
    perm = rng.permutation(4)
    relabelled = UniverseAssignment(perm[u.assignment], d=4, index=u.index)
    a = fscore(u, truth)
    b = fscore(relabelled, truth)
    assert (a.true_positives, a.false_positives, a.false_negatives) == (
        b.true_positives,
        b.false_positives,
        b.false_negatives,
    )


def test_fscore_rejects_other_types():
    rng = np.random.default_rng(13)
    u = random_assignment(rng, (3, 3), 3)
    truth = [slots_of(u, i) for i in range(2)]
    for other in (u.assignment, to_matrix(expand(u)), expand(u).targets):
        with pytest.raises(TypeError, match="cannot score"):
            fscore(other, truth)


def random_labels(rng, sizes, d_true, outlier_rate):
    """Per-object injective labels in [0, max(d_true, m_i)), with outliers at -1."""
    truth = []
    for s in sizes:
        t = rng.permutation(max(d_true, s))[:s]
        t[rng.random(s) < outlier_rate] = -1
        truth.append(t)
    return truth


@pytest.mark.parametrize("seed", range(40))
def test_assignment_counts_match_pair_walk(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(1, 7, size=rng.integers(1, 6)))
    d = max(sizes) + int(rng.integers(0, 4))
    u = random_assignment(rng, sizes, d)
    truth = random_labels(rng, sizes, int(rng.integers(1, 9)), 0.3)
    fast = fscore(u, truth)
    walked = fscore(expand(u), truth)
    assert (fast.true_positives, fast.false_positives, fast.false_negatives) == (
        walked.true_positives,
        walked.false_positives,
        walked.false_negatives,
    )
    assert fast.fscore == walked.fscore


@pytest.mark.parametrize("shift", [10**12, 2**62])
def test_large_labels_score_like_small_ones(shift):
    rng = np.random.default_rng(17)
    sizes = (4, 5, 3)
    u = random_assignment(rng, sizes, 6)
    small = random_labels(rng, sizes, 6, 0.25)
    large = [np.where(t >= 0, t + shift, -1) for t in small]
    for predicted in (u, expand(u)):
        a, b = fscore(predicted, small), fscore(predicted, large)
        assert (a.true_positives, a.false_positives, a.false_negatives) == (
            b.true_positives,
            b.false_positives,
            b.false_negatives,
        )


def test_fscore_requires_ground_truth():
    rng = np.random.default_rng(15)
    u = random_assignment(rng, (2, 2), 2)
    with pytest.raises(ValueError):
        fscore(u, None)
    with pytest.raises(ValueError):
        fscore(u, [np.array([0, 1]), np.array([0])])
    with pytest.raises(TypeError):
        fscore(np.eye(4), [np.array([0, 1]), np.array([0, 1])])


@pytest.mark.parametrize("label, message", [
    (-2, "object 1 row 2: ground-truth label -2 < -1"),
    (0.4, "object 1 row 2: ground-truth label must be an integer, got 0.4"),
], ids=["below-outlier", "fractional"])
def test_fscore_checks_labels_by_the_problem_rule(label, message):
    u = random_assignment(np.random.default_rng(15), (2, 3), 3)
    truth = [np.array([0, 1]), np.array([0, 1, label])]
    for predicted in (u, expand(u)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fscore(predicted, truth)
    points = (np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProblemInstance(points=points, features=points, ground_truth=truth)


def test_match_report_validation():
    with pytest.raises(ValueError):
        MatchReport(true_positives=-1, false_positives=0, false_negatives=0)
    with pytest.raises(ValueError):
        MatchReport(true_positives=0, false_positives=0, false_negatives=0, cycle_error=1.5)
    with pytest.raises(ValueError):
        MatchReport(true_positives=1.5, false_positives=0, false_negatives=0)


@settings(max_examples=50)
@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_report_ratios_follow_counts(tp, fp, fn):
    report = MatchReport(tp, fp, fn)
    p, r = report.precision, report.recall
    assert p == (tp / (tp + fp) if tp + fp else 0.0)
    assert r == (tp / (tp + fn) if tp + fn else 0.0)
    assert report.fscore == (2.0 * p * r / (p + r) if p + r else 0.0)
    assert 0.0 <= report.fscore <= 1.0


def test_cycle_report_totals():
    report = CycleReport(identity=1, symmetry=2, transitivity=3)
    assert report.total == 6
    assert not report.ok
