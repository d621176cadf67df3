"""Assignment-solver tests against a permutation-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from hippi import assignment, baselines
from hippi.assignment import CENTRED_MIN_ROWS, lap_exact, project_to_universe
from hippi.baselines import greedy_init, pairwise_lap_matchings, spectral_sync
from hippi.cli import bench_instance
from hippi.core import BlockIndex, UniverseAssignment
from hippi.kernels import KernelConfig, build_similarity

from helpers import brute_force_lap, random_assignment, slots_of


def project_every_slot(v: np.ndarray, index: BlockIndex) -> UniverseAssignment:
    """Project scores given for every slot of a universe of ``v.shape[1]`` slots."""
    return project_to_universe(v, index, columns=np.arange(v.shape[1]), d=v.shape[1])


def value(scores: np.ndarray, cols: np.ndarray) -> float:
    """Total score of the assignment ``row -> cols[row]``."""
    return float(scores[np.arange(scores.shape[0]), cols].sum())


def test_lap_exact_rejects_more_rows_than_cols():
    with pytest.raises(ValueError, match="rows <= cols"):
        lap_exact(np.zeros((3, 2)))


def test_lap_exact_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):  # scipy alone would accept -inf
        with pytest.raises(ValueError, match="^scores row 0 is not finite$"):
            lap_exact(np.array([[1.0, bad]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("positive", [True, False])
def test_projection_checks_the_whole_lift_once(monkeypatch, bad, positive):
    """A non-finite score in the last block raises before any block is solved,
    and the blocks' LAPs do not check again."""
    rng = np.random.default_rng(53)
    index = BlockIndex(sizes=(3, CENTRED_MIN_ROWS, 4))
    v = rng.uniform(0.5, 1.0, size=(index.m, CENTRED_MIN_ROWS + 3))
    if not positive:
        v[0, 0] = 0.0
    checks = []
    solve = assignment.lap_exact

    def recording(scores, check_finite=True):
        checks.append(check_finite)
        return solve(scores, check_finite=check_finite)

    monkeypatch.setattr(assignment, "lap_exact", recording)
    project_every_slot(v, index)
    assert checks == [False] * index.k
    v[-1, -1] = bad
    with pytest.raises(ValueError, match="^object 2 row 3: score is not finite$"):
        project_every_slot(v, index)
    assert len(checks) == index.k


def test_exact_picks_diagonal_on_anti_identity_scores():
    assert lap_exact(np.array([[5.0, 1.0], [1.0, 5.0]])).tolist() == [0, 1]


def test_single_row_reduces_to_argmax():
    assert lap_exact(np.array([[0.2, 0.9, 0.5, 0.1]])).tolist() == [1]


def test_constant_scores_assign_injectively():
    scores = np.ones((3, 5))
    a = lap_exact(scores)
    assert len(set(a.tolist())) == 3
    assert value(scores, a) == 3.0


@pytest.mark.parametrize("seed", range(40))
def test_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 6))
    cols = int(rng.integers(rows, 8))
    scores = rng.normal(size=(rows, cols))
    best, _ = brute_force_lap(scores)
    assert value(scores, lap_exact(scores)) == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("seed", range(40))
def test_auction_exact_on_integer_scores(seed):
    """Integer scores tie often and sum without rounding, so no tolerance is needed.

    These are the instances the former auction backend was certified exact on;
    the exact solver must reach the brute-force optimum on every one of them.
    """
    rng = np.random.default_rng(1000 + seed)
    rows = int(rng.integers(1, 6))
    cols = int(rng.integers(rows, 8))
    scores = rng.integers(0, 101, size=(rows, cols)).astype(np.float64)
    best, _ = brute_force_lap(scores)
    assert value(scores, lap_exact(scores)) == best


def test_solvers_are_deterministic():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=(4, 6))
    assert lap_exact(scores).tolist() == lap_exact(scores.copy()).tolist()


def test_shift_by_constant_preserves_optimal_assignment_value():
    """Adding c to every score shifts every injective assignment by rows * c."""
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(4, 5))
    shifted = scores + 3.7
    assert value(shifted, lap_exact(shifted)) == pytest.approx(
        value(scores, lap_exact(scores)) + 4 * 3.7
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projection_matches_per_block_brute_force(data):
    sizes = tuple(
        data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="sizes")
    )
    index = BlockIndex(sizes=sizes)
    d = data.draw(st.integers(max(sizes), max(sizes) + 3), label="d")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    v = np.random.default_rng(seed).normal(size=(index.m, d))
    u = project_every_slot(v, index)
    for i in range(index.k):
        best, _ = brute_force_lap(v[index.slice_of(i)])
        got = v[index.slice_of(i)][np.arange(sizes[i]), slots_of(u, i)].sum()
        assert got == pytest.approx(best, rel=1e-12)


def test_projection_dominates_random_feasible_points():
    rng = np.random.default_rng(17)
    index = BlockIndex(sizes=(3, 4, 2))
    v = rng.normal(size=(index.m, 5))
    u = project_every_slot(v, index)
    star = v[np.arange(index.m), u.assignment].sum()
    for _ in range(50):
        other = random_assignment(rng, index.sizes, 5)
        assert star >= v[np.arange(index.m), other.assignment].sum() - 1e-9


def test_projection_blocks_are_independent():
    rng = np.random.default_rng(23)
    index = BlockIndex(sizes=(3, 3, 3))
    v = rng.normal(size=(index.m, 4))
    base = project_every_slot(v, index)
    bumped = v.copy()
    bumped[index.slice_of(1)] += rng.normal(size=(3, 4))
    again = project_every_slot(bumped, index)
    assert slots_of(again, 0).tolist() == slots_of(base, 0).tolist()
    assert slots_of(again, 2).tolist() == slots_of(base, 2).tolist()


def test_projection_returns_valid_assignment_with_surplus_columns():
    rng = np.random.default_rng(29)
    index = BlockIndex(sizes=(2, 5, 3))
    u = project_every_slot(rng.normal(size=(index.m, 9)), index)
    assert isinstance(u, UniverseAssignment)
    assert u.d == 9


def test_projection_rejects_bad_inputs():
    index = BlockIndex(sizes=(2, 3))
    with pytest.raises(ValueError):
        project_every_slot(np.zeros((5, 2)), index)  # d < max block
    with pytest.raises(ValueError):
        project_every_slot(np.zeros((4, 4)), index)  # wrong row count



def lap_inputs(monkeypatch) -> list[np.ndarray]:
    """Record a copy of every score block ``lap_exact`` is called on."""
    inputs = []
    solve = assignment.lap_exact

    def recording(scores, *args, **kwargs):
        inputs.append(np.array(scores))
        return solve(scores, *args, **kwargs)

    monkeypatch.setattr(assignment, "lap_exact", recording)
    return inputs


def block_score(v: np.ndarray, index: BlockIndex, u: UniverseAssignment, i: int) -> float:
    return value(v[index.slice_of(i)], slots_of(u, i))


@pytest.mark.parametrize(
    "case",
    ["zero entry", "negative entry", "too few nonzero columns", "no zero column"],
)
def test_projection_solves_full_width_unless_every_score_is_positive(monkeypatch, case):
    rng = np.random.default_rng(37)
    index = BlockIndex(sizes=(3, 2))
    v = np.zeros((index.m, 6))
    v[:, [0, 2, 5]] = rng.uniform(0.5, 1.0, size=(index.m, 3))
    if case == "zero entry":
        v[4, 2] = 0.0
    elif case == "negative entry":
        v[1, 5] = -0.25
    elif case == "too few nonzero columns":
        v[:, [2, 5]] = 0.0  # one nonzero column for a block of three rows
    else:
        v[:, [1, 3, 4]] = rng.uniform(0.5, 1.0, size=(index.m, 3))
    inputs = lap_inputs(monkeypatch)
    u = project_every_slot(v, index)
    assert [s.shape[1] for s in inputs] == [6, 6]
    for i in range(index.k):
        best, _ = brute_force_lap(v[index.slice_of(i)])
        assert block_score(v, index, u, i) == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("case", ["negative entry", "too few scored slots"])
def test_projection_adds_at_most_the_largest_object_of_empty_slots(monkeypatch, case):
    """However large ``d`` is, a block is solved over its scored slots and at most
    ``max_i m_i`` empty ones, so ``d = 2**40`` projects like a universe of six
    slots, and each block still reaches the optimum over all of them."""
    rng = np.random.default_rng(47)
    index = BlockIndex(sizes=(3, 2))
    columns = np.array([0, 2, 5]) if case == "negative entry" else np.array([2, 5])
    v = rng.uniform(0.5, 1.0, size=(index.m, columns.size))
    if case == "negative entry":
        v[1, 2] = -0.25
    inputs = lap_inputs(monkeypatch)
    huge = project_to_universe(v, index, columns=columns, d=2**40)
    small = project_to_universe(v, index, columns=columns, d=6)
    assert np.array_equal(huge.assignment, small.assignment)
    assert {s.shape[1] for s in inputs} == {columns.size + max(index.sizes)}
    dense = np.zeros((index.m, 6))
    dense[:, columns] = v
    for i in range(index.k):
        best, _ = brute_force_lap(dense[index.slice_of(i)])
        assert block_score(dense, index, small, i) == pytest.approx(best, rel=1e-12)


def raw_lap_value(scores: np.ndarray) -> float:
    """What scipy's LAP scores on the block as it is."""
    _, cols = linear_sum_assignment(scores, maximize=True)
    return value(scores, cols)


def column_dominated(rng, m: int, d: int, ties: bool) -> np.ndarray:
    """Positive integer scores in which column effects dominate, as in the solver's lift.

    Integers sum without rounding, so an optimum is recognised exactly; with
    ``ties`` the entries are small and many assignments share the optimum.
    """
    if ties:
        return (4 * rng.integers(1, 4, size=(1, d)) + rng.integers(0, 3, size=(m, d))).astype(float)
    col = rng.integers(1_000, 100_000, size=(1, d))
    row = rng.integers(1, 50, size=(m, 1))
    return (col * row + rng.integers(0, 5_000, size=(m, d))).astype(float)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_centred_blocks_score_what_the_raw_lap_scores(data):
    """Ragged objects on both sides of ``CENTRED_MIN_ROWS``, square, near-square and
    wide blocks, tied small integers and magnitudes near 1e300: every block scores
    exactly the raw optimum, and every large block reaches ``lap_exact`` as a finite
    square that is not the raw block."""
    small = st.integers(1, 5)
    large = st.integers(CENTRED_MIN_ROWS, CENTRED_MIN_ROWS + 20)
    sizes = tuple(
        data.draw(st.lists(st.one_of(small, large), min_size=1, max_size=3), label="sizes")
    )
    index = BlockIndex(sizes)
    top = max(sizes)
    extra = data.draw(
        st.one_of(st.just(0), st.integers(1, 4), st.integers(top // 2, 2 * top)), label="extra"
    )
    ties = data.draw(st.booleans(), label="ties")
    scale = data.draw(st.sampled_from([1.0, 2.0**970]), label="scale")  # 2**970 ~ 1e292
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    v = column_dominated(rng, index.m, top + extra, ties) * scale
    with pytest.MonkeyPatch.context() as mp:
        inputs = lap_inputs(mp)
        u = project_every_slot(v, index)
    assert len(inputs) == index.k
    for i, solved in enumerate(inputs):
        block = v[index.slice_of(i)]
        assert block_score(v, index, u, i) == raw_lap_value(block)
        if sizes[i] < CENTRED_MIN_ROWS:
            assert np.array_equal(solved, block)
        else:
            assert solved.shape[0] == solved.shape[1] >= sizes[i]
            assert np.isfinite(solved).all()
            assert not np.array_equal(solved, block)


def test_scores_near_float_max_are_solved_as_they_are(monkeypatch):
    """Centring could overflow here, so the raw block goes to ``lap_exact``."""
    rng = np.random.default_rng(41)
    index = BlockIndex((CENTRED_MIN_ROWS, CENTRED_MIN_ROWS + 2))
    v = rng.uniform(0.5, 1.0, size=(index.m, CENTRED_MIN_ROWS + 30)) * 2e306
    inputs = lap_inputs(monkeypatch)
    u = project_every_slot(v, index)
    for i, solved in enumerate(inputs):
        assert np.array_equal(solved, v[index.slice_of(i)])
        assert block_score(v, index, u, i) == raw_lap_value(v[index.slice_of(i)])


@pytest.mark.parametrize("case", ["small blocks", "zero entry", "negative entry"])
def test_blocks_outside_the_gate_reach_the_lap_unchanged(monkeypatch, case):
    rng = np.random.default_rng(43)
    n = CENTRED_MIN_ROWS - 1 if case == "small blocks" else CENTRED_MIN_ROWS + 5
    index = BlockIndex((n, n - 3))
    v = column_dominated(rng, index.m, n + 20, ties=False)
    if case == "zero entry":
        v[3, 7] = 0.0
    elif case == "negative entry":
        v[n + 2, 11] = -1.0
    inputs = lap_inputs(monkeypatch)
    project_every_slot(v, index)
    assert len(inputs) == index.k
    for i, solved in enumerate(inputs):
        assert np.array_equal(solved, v[index.slice_of(i)])


@pytest.mark.parametrize("method", ["greedy", "spectral"])
def test_initialisations_keep_the_raw_block_path(monkeypatch, method):
    """Their anchor-column scores hold zeros or negatives, so even objects of at
    least ``CENTRED_MIN_ROWS`` points are solved on the raw full-width blocks,
    with the same result as a plain per-block ``lap_exact``."""
    problem = bench_instance(4 * (CENTRED_MIN_ROWS + 5), CENTRED_MIN_ROWS + 5, 3)
    w = build_similarity(problem, KernelConfig())
    d = 2 * (CENTRED_MIN_ROWS + 5)

    def init():
        if method == "greedy":
            return greedy_init(w, d)
        return spectral_sync(pairwise_lap_matchings(w), d)

    scores = []
    project = baselines.project_to_universe

    def capture(v, index, *, columns, d):
        scores.append((np.array(v), columns, d))
        return project(v, index, columns=columns, d=d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "project_to_universe", capture)
        mp.setattr(assignment, "_solve_block", lambda block, positive: lap_exact(block))
        plain = init()
    scores.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "project_to_universe", capture)
        inputs = lap_inputs(mp)
        got = init()
    assert got == plain
    ((compact, columns, width),) = scores
    assert compact.min() <= 0 and width == d
    full = np.zeros((problem.m, d))  # the m x d array the scores used to be built in
    full[:, columns] = compact
    blocks = inputs[-problem.k :]  # spectral's pairwise LAPs come first
    for i, solved in enumerate(blocks):
        assert np.array_equal(solved, full[problem.index.slice_of(i)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compact_lift_projects_like_its_scattered_form(data):
    """``columns``/``d`` give what the zero-filled ``m x d`` call gives, on positive,
    tied, zero-holding and negative scores and on all-zero columns.  The dense
    call holds zeros, so it solves at full width; where the compact one is
    positive and solves on its own columns, tied optima may differ, so equal
    per-block scores (exact integer sums) are compared instead."""
    sizes = tuple(
        data.draw(
            st.lists(st.one_of(st.integers(1, 5), st.just(CENTRED_MIN_ROWS)), min_size=1, max_size=3),
            label="sizes",
        )
    )
    index = BlockIndex(sizes)
    d = max(sizes) + data.draw(st.integers(0, 6), label="extra")
    width = data.draw(st.integers(0, d), label="occupied")
    kind = data.draw(
        st.sampled_from(["positive", "ties", "zero entry", "negative", "zero column"]), label="kind"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    columns = np.sort(rng.choice(d, size=width, replace=False))
    compact = column_dominated(rng, index.m, width, ties=kind == "ties")
    if width and kind == "zero entry":
        compact[rng.integers(index.m), rng.integers(width)] = 0.0
    elif width and kind == "negative":
        compact[rng.integers(index.m), rng.integers(width)] = -2.0
    elif width and kind == "zero column":
        compact[:, rng.integers(width)] = 0.0
    dense = np.zeros((index.m, d))
    dense[:, columns] = compact
    got = project_to_universe(compact, index, columns=columns, d=d)
    want = project_every_slot(dense, index)
    if kind in ("positive", "ties"):
        for i in range(index.k):
            assert block_score(dense, index, got, i) == block_score(dense, index, want, i)
    else:
        assert got == want


def test_compact_lift_arguments_are_checked():
    index = BlockIndex((2, 2))
    v = np.ones((4, 3))
    for kwargs in (
        {"columns": np.array([0, 2, 1]), "d": 4},
        {"columns": np.array([0, 1, 1]), "d": 4},
        {"columns": np.array([0, 1, 4]), "d": 4},
        {"columns": np.array([-1, 1, 2]), "d": 4},
        {"columns": np.array([0, 1]), "d": 4},
        {"columns": np.array([0, 1, 2]), "d": 1},
    ):
        with pytest.raises(ValueError):
            project_to_universe(v, index, **kwargs)
