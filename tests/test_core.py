import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hippi.core import (
    BlockIndex,
    PairwiseMatchingSet,
    ProblemInstance,
    SimilarityMatrix,
    UniverseAssignment,
    expand,
)

from helpers import dense_expand, naive_cycle_violations, random_assignment


@st.composite
def assignments(draw, max_k=4, max_size=5, max_extra=3):
    k = draw(st.integers(1, max_k))
    sizes = tuple(draw(st.integers(1, max_size)) for _ in range(k))
    d = max(sizes) + draw(st.integers(0, max_extra))
    seed = draw(st.integers(0, 2**31 - 1))
    return random_assignment(np.random.default_rng(seed), sizes, d)


class TestBlockIndex:
    def test_offsets(self):
        idx = BlockIndex((3, 2, 2))
        assert idx.offsets == (0, 3, 5, 7)
        assert idx.m == 7
        assert idx.k == 3

    @pytest.mark.parametrize("g,expected", [(0, (0, 0)), (4, (1, 1)), (6, (2, 1))])
    def test_global_to_local(self, g, expected):
        assert BlockIndex((3, 2, 2)).global_to_local(g) == expected

    def test_global_out_of_range(self):
        with pytest.raises(ValueError):
            BlockIndex((3, 2, 2)).global_to_local(7)
        with pytest.raises(ValueError):
            BlockIndex((3, 2, 2)).global_to_local(-1)

    def test_empty_or_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            BlockIndex(())
        with pytest.raises(ValueError):
            BlockIndex((3, 0))

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    def test_round_trip_bijection(self, sizes):
        idx = BlockIndex(tuple(sizes))
        seen = set()
        for g in range(idx.m):
            i, p = idx.global_to_local(g)
            assert idx.local_to_global(i, p) == g
            seen.add((i, p))
        assert seen == {(i, p) for i in range(idx.k) for p in range(sizes[i])}


class TestProblemInstance:
    @pytest.mark.parametrize("field", ["points", "features", "distances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_names_object_and_row(self, field, bad):
        arrays = {
            "points": [np.zeros((2, 2)), np.arange(6.0).reshape(3, 2)],
            "features": [np.ones((2, 4)), np.ones((3, 4))],
            "distances": [np.zeros((2, 2)), np.zeros((3, 3))],
        }
        arrays[field][1][2, -1] = bad  # on the diagonal for distances, so still symmetric
        with pytest.raises(ValueError, match=f"object 1: {field} row 2 is not finite"):
            ProblemInstance(**{name: tuple(a) for name, a in arrays.items()})


class TestSimilarityMatrix:
    index = BlockIndex((2, 1))

    @staticmethod
    def valid():
        w = np.zeros((3, 3))
        w[0, 2] = w[2, 0] = 0.5
        w[1, 2] = w[2, 1] = 0.25
        return w

    def test_asymmetric_rejected(self):
        w = self.valid()
        w[0, 2] = 0.75
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(data=w, index=self.index)

    @pytest.mark.parametrize("where", ["last-tile", "corner-tile"])
    def test_one_ulp_asymmetry_in_partial_tile_rejected(self, where):
        # m = 300 leaves a partial last tile of 44 rows and columns.
        index = BlockIndex((280, 20))
        rng = np.random.default_rng(3)
        w = np.zeros((300, 300))
        w[280:, :280] = rng.random((20, 280))
        w[:280, 280:] = w[280:, :280].T
        SimilarityMatrix(data=w, index=index)
        p, q = (299, 270) if where == "last-tile" else (299, 0)
        w[p, q] = np.nextafter(w[p, q], np.inf)
        with pytest.raises(ValueError, match="exactly symmetric"):
            SimilarityMatrix(data=w, index=index)

    def test_negative_entry_rejected(self):
        w = self.valid()
        w[1, 2] = w[2, 1] = -0.25
        with pytest.raises(ValueError, match="non-negative"):
            SimilarityMatrix(data=w, index=self.index)

    def test_nonzero_diagonal_block_rejected(self):
        w = self.valid()
        w[0, 1] = w[1, 0] = 1.0  # both points belong to object 0
        with pytest.raises(ValueError, match="diagonal block 0"):
            SimilarityMatrix(data=w, index=self.index)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"must be \(3, 3\)"):
            SimilarityMatrix(data=np.zeros((3, 4)), index=self.index)


class TestUniverseAssignment:
    def test_universe_too_small_rejected(self):
        with pytest.raises(ValueError):
            UniverseAssignment(
                assignment=np.array([0, 1, 2, 0]), d=3, index=BlockIndex((4,))
            )

    def test_duplicate_column_in_block_rejected(self):
        with pytest.raises(ValueError):
            UniverseAssignment(
                assignment=np.array([0, 0]), d=2, index=BlockIndex((2,))
            )

    def test_duplicate_column_names_first_offending_object(self):
        # Objects 1 and 3 repeat a column; object 2 reuses object 1's columns legally.
        a = np.array([0, 1, 2, 2, 2, 3, 4, 4])
        with pytest.raises(ValueError, match="object 1 assigns two points"):
            UniverseAssignment(assignment=a, d=5, index=BlockIndex((2, 2, 2, 2)))

    def test_validation_cost_does_not_grow_with_universe_size(self):
        d = 2**62  # a per-(object, column) count table would need exabytes
        index = BlockIndex((2, 2))
        UniverseAssignment(assignment=np.array([0, d - 1, d - 1, 0]), d=d, index=index)
        with pytest.raises(ValueError, match="object 1 assigns two points"):
            UniverseAssignment(assignment=np.array([0, d - 1, 5, 5]), d=d, index=index)

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UniverseAssignment(
                assignment=np.array([0, 2]), d=2, index=BlockIndex((2,))
            )

    def test_immutable(self):
        u = UniverseAssignment(assignment=np.array([0, 1]), d=2, index=BlockIndex((2,)))
        with pytest.raises(ValueError):
            u.assignment[0] = 1


class TestExpand:
    def test_single_shared_column(self):
        u = UniverseAssignment(assignment=np.array([0, 0]), d=1, index=BlockIndex((1, 1)))
        x = expand(u)
        assert np.array_equal(x.block_dense(0, 1), [[1.0]])

    def test_crossed_columns(self):
        u = UniverseAssignment(
            assignment=np.array([0, 1, 1, 0]), d=2, index=BlockIndex((2, 2))
        )
        x = expand(u)
        assert np.array_equal(x.block_dense(0, 1), [[0, 1], [1, 0]])

    def test_matches_dense_outer_product(self):
        u = random_assignment(np.random.default_rng(7), (2, 2, 2), 3)
        x = expand(u)
        dense = dense_expand(u)
        idx = u.index
        for i in range(idx.k):
            for j in range(idx.k):
                block = dense[idx.slice_of(i), idx.slice_of(j)]
                assert np.array_equal(x.block_dense(i, j), block)

    @given(assignments())
    @settings(max_examples=60, deadline=None)
    def test_equals_uut_everywhere(self, u):
        x = expand(u)
        dense = dense_expand(u)
        idx = u.index
        for i in range(idx.k):
            for j in range(idx.k):
                assert np.array_equal(
                    x.block_dense(i, j), dense[idx.slice_of(i), idx.slice_of(j)]
                )

    @given(assignments())
    @settings(max_examples=60, deadline=None)
    def test_cycle_consistent_by_construction(self, u):
        x = expand(u)
        blocks = [[x.block_dense(i, j) for j in range(x.k)] for i in range(x.k)]
        assert naive_cycle_violations(blocks) == (0, 0, 0)

    @given(assignments(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_column_permutation(self, u, perm_seed):
        perm = np.random.default_rng(perm_seed).permutation(u.d)
        permuted = UniverseAssignment(
            assignment=perm[u.assignment], d=u.d, index=u.index
        )
        assert expand(permuted) == expand(u)


class TestPairwiseMatchingSet:
    def test_duplicate_target_rejected(self):
        idx = BlockIndex((2, 1))
        maps = (
            (np.array([0, 1]), np.array([0, 0])),
            (np.array([0]), np.array([0])),
        )
        with pytest.raises(ValueError):
            PairwiseMatchingSet(maps=maps, index=idx)

    def test_matched_pairs_round_trip(self):
        u = random_assignment(np.random.default_rng(3), (3, 2, 4), 5)
        x = expand(u)
        pairs = set(x.matched_pairs())
        assert len(pairs) == x.match_count()
        for i, p, j, q in pairs:
            assert i < j
            assert x.block_map(i, j)[p] == q
            assert x.block_map(j, i)[q] == p
