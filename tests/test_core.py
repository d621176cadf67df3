import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hippi import core, kernels
from hippi.assignment import lap_exact, project_to_universe
from hippi.baselines import random_init
from hippi.core import (
    BlockIndex,
    MultiAdjacency,
    PairwiseMatchingSet,
    ProblemInstance,
    SimilarityMatrix,
    UniverseAssignment,
    expand,
)
from hippi.kernels import KernelConfig, build_similarity
from hippi.solver import universe_size
from hippi.synth import GenConfig, twin_prototype_instance

from helpers import (
    block_dense,
    block_map,
    dense_expand,
    match_count,
    naive_cycle_violations,
    pack_maps,
    pairwise_similarity,
    random_assignment,
    to_matrix,
    unblocked_gather,
)


@st.composite
def assignments(draw, max_k=4, max_size=5, max_extra=3):
    k = draw(st.integers(1, max_k))
    sizes = tuple(draw(st.integers(1, max_size)) for _ in range(k))
    d = max(sizes) + draw(st.integers(0, max_extra))
    seed = draw(st.integers(0, 2**31 - 1))
    return random_assignment(np.random.default_rng(seed), sizes, d)


#: Every taker of a universe size ``d``, called on objects of 2 and 3 points.
UNIVERSE_TAKERS = {
    "universe_size": lambda index, d: universe_size(index, d),
    "project_to_universe": lambda index, d: project_to_universe(
        np.ones((5, 3)), index, columns=np.arange(3), d=d
    ),
    # One entry only: the universe is checked before the length.
    "UniverseAssignment": lambda index, d: UniverseAssignment(np.zeros(1), d=d, index=index),
    "random_init": lambda index, d: random_init(index, d, seed=0),
}


@pytest.mark.parametrize("taker", list(UNIVERSE_TAKERS))
@pytest.mark.parametrize("d, message", [
    (2, r"^universe size 2 is smaller than the largest object \(3\)$"),
    (2.5, r"^universe size d must be an integer, got 2\.5$"),
], ids=["below-largest", "fractional"])
def test_every_universe_check_is_the_block_index_rule(taker, d, message):
    with pytest.raises(ValueError, match=message):
        UNIVERSE_TAKERS[taker](BlockIndex((2, 3)), d)


#: Each type that takes an integer array: a builder, a valid array, and the name of an entry.
INTEGER_ARRAYS = {
    "UniverseAssignment": (
        lambda a: UniverseAssignment(a, d=3, index=BlockIndex((2, 2))),
        [0, 1, 1, 0],
        lambda r: f"object {r // 2} row {r % 2}: slot",
    ),
    "ground_truth": (
        lambda a: ProblemInstance(
            points=(np.zeros((2, 2)),) * 2, features=(np.ones((2, 1)),) * 2, ground_truth=([0, 1], a)
        ),
        [1, 0],
        lambda r: f"object 1 row {r}: ground-truth label",
    ),
    "targets": (
        lambda a: PairwiseMatchingSet(a, index=BlockIndex((2, 2))),
        [[0, 1], [1, 0], [1, 0], [0, 1]],
        lambda g, j: f"targets row {g} column {j}",
    ),
}


@pytest.mark.parametrize("kind", ["fractional", "not-finite", "bool"])
@pytest.mark.parametrize("taker", list(INTEGER_ARRAYS))
def test_integer_arrays_are_checked_where_the_type_is_built(taker, kind):
    """Integral floats pass; a fractional or non-finite entry, or a bool array, raises naming it."""
    build, valid, name = INTEGER_ARRAYS[taker]
    a = np.array(valid, dtype=float)
    assert build(a) == build(np.array(valid))
    if kind == "bool":
        a, pos = a != 0, (0,) * a.ndim
    else:
        pos = np.unravel_index(a.size - 1, a.shape)
        a[pos] = a[pos] + 0.5 if kind == "fractional" else np.nan
    message = f"{name(*pos)} must be an integer, got {a[pos].item()!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(a)


def _with_object_1(name, a):
    """A ProblemInstance of a 2-point object 0 and object 1 with ``a`` as its ``name`` array."""
    arrays = dict(points=np.zeros((5, 2)), features=np.ones((5, 3)), distances=np.zeros((5, 5)))
    arrays[name] = a
    other = dict(points=np.zeros((2, 2)), features=np.ones((2, 3)), distances=np.zeros((2, 2)))
    return ProblemInstance(**{n: (other[n], arrays[n]) for n in arrays})


#: Each taker of a float array: a builder, the shape of a valid all-zero array,
#: and the name of its row ``r``.  Where there are objects, 2 and 5 points.
FLOAT_ARRAYS = {
    **{
        name: (lambda a, name=name: _with_object_1(name, a), shape,
               lambda r, name=name: f"object 1: {name} row {r}")
        for name, shape in [("points", (5, 2)), ("features", (5, 3)), ("distances", (5, 5))]
    },
    "W": (
        lambda a: SimilarityMatrix(a, index=BlockIndex((2, 5))),
        (7, 7),
        lambda r: f"similarity matrix row {r}",
    ),
    "adjacency": (
        lambda a: MultiAdjacency((np.zeros((2, 2)), a), index=BlockIndex((2, 5))),
        (5, 5),
        lambda r: f"adjacency block 1 row {r}",
    ),
    "lift": (
        lambda a: project_to_universe(a, BlockIndex((2, 5)), columns=np.arange(6), d=6),
        (7, 6),
        lambda g: f"object 1 row {g - 2}: score",
    ),
    "lap_exact": (lap_exact, (5, 6), lambda r: f"scores row {r}"),
}


@pytest.mark.parametrize("entries", [core.BLOCK_ENTRIES, 1], ids=["whole", "by-row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("taker", list(FLOAT_ARRAYS))
def test_every_float_array_is_the_core_finiteness_rule(monkeypatch, taker, bad, entries):
    """Two bad rows raise naming the first, whether the rows are read as one block or one by one.

    On the diagonal where the array is square, so it stays symmetric.
    """
    monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
    build, shape, name = FLOAT_ARRAYS[taker]
    a = np.zeros(shape)
    build(a)
    rows = (shape[0] - 4, shape[0] - 2)
    for r in rows:
        a[r, r % shape[1]] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(name(rows[0]))} is not finite$"):
        build(a)


@pytest.mark.parametrize("entries", [1, 7, core.BLOCK_ENTRIES], ids=["1", "7", "default"])
def test_every_blocked_pass_gives_the_same_bits_and_messages_at_any_block_size(
    monkeypatch, entries
):
    """The finiteness rule, the symmetry check, ``gather``, the ``W`` build in both
    weight modes and ``_nearest``, each against an oracle that reads whole arrays:
    one-row blocks, blocks of 2 rows and tiles of side 2 with a partial last one,
    and the default, where every array here is one block."""
    monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(5)
    sizes = (1, 5, 3, 7, 3)  # m = 19
    inst = ProblemInstance(
        points=tuple(rng.normal(size=(s, 2)) for s in sizes),
        features=tuple(rng.normal(size=(s, 3)) for s in sizes),
    )
    a = rng.normal(size=(19, 3))
    assert core.finite_extremes(a, str) == (a.min(), a.max())
    a[[12, 15], 1] = np.nan
    with pytest.raises(ValueError, match="^row 12 is not finite$"):
        core.finite_extremes(a, lambda r: f"row {r}")
    for mode in kernels.WEIGHT_MODES:
        w = build_similarity(inst, KernelConfig(sigma=0.8, weight_mode=mode))
        want = pairwise_similarity(inst, 0.8, mode)
        assert np.array_equal(w.data.view(np.int64), want.view(np.int64))
    u = random_init(w.index, 9, seed=1)
    order, starts, occupied = u.slot_runs
    want = unblocked_gather(w.data, u.assignment, u.d)[:, occupied]
    assert np.array_equal(w.gather(order, starts).view(np.int64), want.view(np.int64))
    data = w.data.copy()
    data[14, 18] += 0.5  # objects 3 and 4, in the last column of tiles
    with pytest.raises(ValueError, match="^similarity matrix must be exactly symmetric$"):
        SimilarityMatrix(data, w.index)
    for f in inst.features:
        dist = cdist(f, f)
        want = (dist + np.diag(np.full(len(f), np.inf))).min(axis=1)
        assert np.array_equal(kernels._nearest(dist), want)


def _problem(k=2, **changes):
    """A ProblemInstance of ``k`` two-point objects, from fresh arrays, with ``changes``."""
    settings = dict(
        points=tuple(np.arange(4.0).reshape(2, 2) + i for i in range(k)),
        features=tuple(np.ones((2, 1)) for _ in range(k)),
        ground_truth=tuple(np.array([0, 1]) for _ in range(k)),
        seed=0,
    )
    return ProblemInstance(**{**settings, **changes})


#: Each type that a caller compares: a builder from fresh arrays, and single-field changes.
EQUALITY = {
    "ProblemInstance": (_problem, {
        "array-entry": dict(features=(np.ones((2, 1)), np.array([[1.0], [2.0]]))),
        "seed": dict(seed=1),
        "None-against-tuple": dict(ground_truth=None),
        "tuple-against-None": dict(distances=(np.zeros((2, 2)),) * 2),
        "tuple-of-another-length": dict(k=3),
    }),
    "UniverseAssignment": (
        lambda **c: UniverseAssignment(
            **{"assignment": np.array([0, 1, 1, 0]), "d": 2, "index": BlockIndex((2, 2)), **c}
        ),
        {
            "array-entry": dict(assignment=np.array([1, 0, 1, 0])),
            "d": dict(d=3),
            "index": dict(index=BlockIndex((2, 1, 1))),
        },
    ),
    "PairwiseMatchingSet": (
        lambda **c: PairwiseMatchingSet(
            **{"targets": np.array([[0, 0], [1, -1], [-1, -1], [0, 0]]),
               "index": BlockIndex((2, 2)), **c}
        ),
        {
            "array-entry": dict(targets=np.array([[0, 0], [1, -1], [-1, -1], [1, 0]])),
            "index": dict(index=BlockIndex((3, 1))),
        },
    ),
}


@pytest.mark.parametrize("kind", list(EQUALITY))
def test_equality_is_by_type_then_field_by_field(kind):
    """A copy is ``==``; one changed field, or another type, is ``!=``; nothing is hashable."""
    build, changes = EQUALITY[kind]
    a = build()
    assert a == build() and not a != build()
    for change, fields in changes.items():
        assert a != build(**fields) and build(**fields) != a, change
    other = next(EQUALITY[o][0]() for o in EQUALITY if o != kind)
    assert a.__eq__(other) is NotImplemented
    assert a != other and not a == other
    with pytest.raises(TypeError):
        hash(a)


#: Each float setting, by id: the name its error gives, and a build that sets it to ``v``.
FLOAT_SETTINGS = {
    "sigma": ("sigma", lambda v: KernelConfig(sigma=v)),
    "mu": ("mu", lambda v: KernelConfig(mu=v)),
    **{
        name: (name, lambda v, name=name: GenConfig(k=2, d_true=3, **{name: v}))
        for name in ("visibility", "coord_noise_sigma", "feature_noise_sigma", "outlier_fraction")
    },
    "occlusion_rect": (
        "occlusion_rect entry",
        lambda v: GenConfig(k=2, d_true=3, occlusion_rect=(0.0, 0.0, v, 0.5)),
    ),
    "separation": ("separation", lambda v: twin_prototype_instance(2, 4, separation=v)),
    **{
        f"twin-{name}": (name, lambda v, name=name: twin_prototype_instance(2, 4, **{name: v}))
        for name in ("feature_noise_sigma", "outlier_fraction")
    },
}


@pytest.mark.parametrize("value", [True, np.inf, np.nan, "1.0"], ids=["bool", "inf", "nan", "str"])
@pytest.mark.parametrize("setting", list(FLOAT_SETTINGS))
def test_every_float_setting_is_the_core_float_rule(setting, value):
    name, build = FLOAT_SETTINGS[setting]
    message = f"{name} must be a finite number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


def test_int_float_settings_are_stored_as_floats():
    kernel = KernelConfig(sigma=2, mu=1)
    gen = GenConfig(k=2, d_true=3, visibility=1, outlier_fraction=0, occlusion_rect=(0, 0, 1, 1))
    values = (kernel.sigma, kernel.mu, gen.visibility, gen.outlier_fraction, *gen.occlusion_rect)
    assert [type(v) for v in values] == [float] * len(values)


class TestBlockIndex:
    def test_offsets(self):
        idx = BlockIndex((3, 2, 2))
        assert idx.offsets == (0, 3, 5, 7)
        assert idx.m == 7
        assert idx.k == 3

    def test_empty_or_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            BlockIndex(())
        with pytest.raises(ValueError):
            BlockIndex((3, 0))

    @pytest.mark.parametrize("bad", [2.9, True, "2", None])
    def test_non_integer_size_rejected_naming_the_object(self, bad):
        with pytest.raises(ValueError, match="object 1: size must be an integer"):
            BlockIndex((3, bad))

    def test_integral_float_and_numpy_sizes_accepted(self):
        assert BlockIndex((2.0, np.int32(3))).sizes == (2, 3)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    def test_round_trip_bijection(self, sizes):
        idx = BlockIndex(tuple(sizes))
        seen = set()
        for g in range(idx.m):
            i, p = int(idx.owner[g]), int(idx.local[g])
            assert idx.offsets[i] + p == g
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

    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_non_finite_pair_rejected_naming_its_row(self, value):
        # A symmetric pair passes the symmetry test for inf, and NaN must not
        # be reported as an asymmetry.
        w = self.valid()
        w[1, 2] = w[2, 1] = value
        with pytest.raises(ValueError, match="similarity matrix row 1 is not finite"):
            SimilarityMatrix(data=w, index=self.index)

    def test_non_finite_entry_beyond_the_first_row_block_is_named(self, monkeypatch):
        # Blocks of 2^16 entries check 218 rows at a time at m = 300, so both bad
        # rows sit in the second block.
        monkeypatch.setattr(core, "BLOCK_ENTRIES", 1 << 16)
        assert core.block_rows(300) == 218
        index = BlockIndex((280, 20))
        w = np.zeros((300, 300))
        w[290, 1] = w[1, 290] = 0.5
        w[290, 285] = w[285, 290] = np.nan
        with pytest.raises(ValueError, match="similarity matrix row 285 is not finite"):
            SimilarityMatrix(data=w, index=index)

    def test_nonzero_diagonal_block_rejected(self):
        w = self.valid()
        w[0, 1] = w[1, 0] = 1.0  # both points belong to object 0
        with pytest.raises(ValueError, match="diagonal block 0"):
            SimilarityMatrix(data=w, index=self.index)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"must be \(3, 3\)"):
            SimilarityMatrix(data=np.zeros((3, 4)), index=self.index)

    def test_frozen_array_that_owns_its_data_is_adopted(self):
        w = self.valid()
        w.setflags(write=False)
        assert SimilarityMatrix(data=w, index=self.index).data is w

    def test_writeable_input_is_copied(self):
        w = self.valid()
        s = SimilarityMatrix(data=w, index=self.index)
        w[0, 2] = w[2, 0] = 0.75
        assert np.array_equal(s.data, self.valid())
        assert not s.data.flags.writeable

    def test_read_only_view_of_writeable_base_is_copied(self):
        base = self.valid()
        view = base[:]
        view.setflags(write=False)
        s = SimilarityMatrix(data=view, index=self.index)
        base[0, 2] = base[2, 0] = 0.75
        assert np.array_equal(s.data, self.valid())


class TestMultiAdjacency:
    @staticmethod
    def loop_matmul(blocks, index, x):
        """The per-block reference: one product per object."""
        out = np.empty_like(x, dtype=np.float64)
        for i, b in enumerate(blocks):
            out[index.slice_of(i)] = b @ x[index.slice_of(i)]
        return out

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([1, 2, 3, 20, 37]), min_size=1, max_size=8),
        width=st.integers(0, 45),
        fortran=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batched_matmul_is_bit_identical_to_per_block_loop(self, sizes, width, fortran, seed):
        """Runs of equal sizes and ragged neighbours; ``width = 0`` is a vector."""
        rng = np.random.default_rng(seed)
        index = BlockIndex(tuple(sizes))
        blocks = []
        for s in sizes:
            b = rng.normal(size=(s, s))
            blocks.append(b + b.T)
        a = MultiAdjacency(blocks=tuple(blocks), index=index)
        x = rng.normal(size=(index.m, width) if width else index.m)
        if fortran:
            x = np.asfortranarray(x)
        got = a.matmul(x)
        assert got.shape == x.shape
        assert got.tobytes() == self.loop_matmul(blocks, index, x).tobytes()

    def test_blocks_are_read_only_views_of_one_stack_per_run(self):
        index = BlockIndex((2, 2, 3, 2))
        a = MultiAdjacency(blocks=tuple(np.eye(s) for s in index.sizes), index=index)
        stacks = [b.base for b in a.blocks]
        assert stacks[0] is stacks[1]
        assert len({id(s) for s in stacks}) == 3
        assert [s.shape for s in stacks[1:]] == [(2, 2, 2), (1, 3, 3), (1, 2, 2)]
        for b in a.blocks:
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_block_names_the_block_and_row(self, bad):
        blocks = [np.eye(2), np.eye(3)]
        blocks[1][2, 2] = bad  # on the diagonal, so the block is still symmetric
        with pytest.raises(ValueError, match="^adjacency block 1 row 2 is not finite$"):
            MultiAdjacency(blocks=tuple(blocks), index=BlockIndex((2, 3)))

    def test_input_blocks_are_copied(self):
        block = np.eye(3)
        a = MultiAdjacency(blocks=(block,), index=BlockIndex((3,)))
        block[0, 0] = 5.0
        assert a.blocks[0][0, 0] == 1.0


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

    def test_slot_runs_group_points_by_occupied_slot(self):
        d = 2**62  # runs are found by sorting, so d costs nothing
        a = np.array([7, d - 1, 2, 7, 2, d - 1])
        u = UniverseAssignment(assignment=a, d=d, index=BlockIndex((2, 2, 2)))
        order, starts, occupied = u.slot_runs
        assert occupied.tolist() == [2, 7, d - 1]
        assert order.tolist() == [2, 4, 0, 3, 1, 5]
        assert starts.tolist() == [0, 2, 4]
        assert not order.flags.writeable


class TestExpand:
    def test_single_shared_column(self):
        u = UniverseAssignment(assignment=np.array([0, 0]), d=1, index=BlockIndex((1, 1)))
        x = expand(u)
        assert np.array_equal(block_dense(x, 0, 1), [[1.0]])

    def test_crossed_columns(self):
        u = UniverseAssignment(
            assignment=np.array([0, 1, 1, 0]), d=2, index=BlockIndex((2, 2))
        )
        x = expand(u)
        assert np.array_equal(block_dense(x, 0, 1), [[0, 1], [1, 0]])

    def test_matches_dense_outer_product(self):
        u = random_assignment(np.random.default_rng(7), (2, 2, 2), 3)
        x = expand(u)
        dense = dense_expand(u)
        idx = u.index
        for i in range(idx.k):
            for j in range(idx.k):
                block = dense[idx.slice_of(i), idx.slice_of(j)]
                assert np.array_equal(block_dense(x, i, j), block)

    @given(assignments())
    @settings(max_examples=60, deadline=None)
    def test_equals_uut_everywhere(self, u):
        x = expand(u)
        dense = dense_expand(u)
        idx = u.index
        for i in range(idx.k):
            for j in range(idx.k):
                assert np.array_equal(
                    block_dense(x, i, j), dense[idx.slice_of(i), idx.slice_of(j)]
                )

    @given(assignments())
    @settings(max_examples=60, deadline=None)
    def test_cycle_consistent_by_construction(self, u):
        x = expand(u)
        blocks = [[block_dense(x, i, j) for j in range(x.k)] for i in range(x.k)]
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
            pack_maps(maps, idx)

    def test_entry_outside_target_object_rejected(self):
        idx = BlockIndex((2, 3))
        for bad in (np.array([-5, 0]), np.array([-2, 0]), np.array([0, 3])):
            maps = ((np.arange(2), bad), (np.full(3, -1), np.arange(3)))
            with pytest.raises(ValueError, match=r"map \(0,1\) entries must lie in \[-1, 3\)"):
                pack_maps(maps, idx)

    def test_to_matrix_stacks_the_dense_blocks(self):
        x = expand(random_assignment(np.random.default_rng(4), (2, 1, 3), 4))
        rows = [np.hstack([block_dense(x, i, j) for j in range(x.k)]) for i in range(x.k)]
        assert np.array_equal(to_matrix(x), np.vstack(rows))

    def test_matched_pairs_round_trip(self):
        u = random_assignment(np.random.default_rng(3), (3, 2, 4), 5)
        x = expand(u)
        pairs = set(x.matched_pairs())
        assert len(pairs) == match_count(x)
        for i, p, j, q in pairs:
            assert i < j
            assert block_map(x, i, j)[p] == q
            assert block_map(x, j, i)[q] == p

    def test_targets_must_be_m_by_k(self):
        with pytest.raises(ValueError, match=r"targets must be \(4, 2\), got \(4, 3\)"):
            PairwiseMatchingSet(targets=np.zeros((4, 3), dtype=np.int64), index=BlockIndex((2, 2)))

    def test_duplicate_target_names_the_first_offending_map(self):
        idx = BlockIndex((2, 2, 2))
        maps = [[np.arange(2), np.full(2, -1), np.full(2, -1)] for _ in range(3)]
        maps[1][0] = np.arange(2)
        maps[2][1] = np.array([1, 1])
        maps[1][2] = np.array([0, 0])
        with pytest.raises(ValueError, match=r"map \(1,2\) matches two points to the same target"):
            pack_maps(maps, idx)

    @given(assignments())
    @settings(max_examples=40, deadline=None)
    def test_expand_targets_are_the_packed_block_maps(self, u):
        """Each block map of ``U_i U_j^T``, read off the dense product, packs to ``targets``."""
        dense, idx = dense_expand(u), u.index
        maps = [
            [
                np.where(block.any(axis=1), block.argmax(axis=1), -1)
                for block in (dense[idx.slice_of(i), idx.slice_of(j)] for j in range(idx.k))
            ]
            for i in range(idx.k)
        ]
        x = expand(u)
        assert np.array_equal(x.targets, pack_maps(maps, idx).targets)
        for i in range(idx.k):
            for j in range(idx.k):
                view = block_map(x, i, j)
                assert np.array_equal(view, maps[i][j])
                assert np.shares_memory(view, x.targets) and not view.flags.writeable

    def test_matched_pairs_follow_object_then_target_object_then_point(self):
        rng = np.random.default_rng(8)
        u = random_assignment(rng, (3, 4, 2, 4), 6)
        x = expand(u)
        expected = [
            (i, int(p), j, int(block_map(x, i, j)[p]))
            for i in range(x.k)
            for j in range(i + 1, x.k)
            for p in np.flatnonzero(block_map(x, i, j) >= 0)
        ]
        assert list(x.matched_pairs()) == expected
        assert match_count(x) == len(expected)
