"""Assignment-solver tests against a permutation-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hippi import assignment
from hippi.assignment import lap_exact, project_to_universe
from hippi.core import BlockIndex, UniverseAssignment

from helpers import brute_force_lap, random_assignment


def value(scores: np.ndarray, cols: np.ndarray) -> float:
    """Total score of the assignment ``row -> cols[row]``."""
    return float(scores[np.arange(scores.shape[0]), cols].sum())


def test_lap_exact_rejects_more_rows_than_cols():
    with pytest.raises(ValueError, match="rows <= cols"):
        lap_exact(np.zeros((3, 2)))


def test_lap_exact_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):  # scipy alone would accept -inf
        with pytest.raises(ValueError, match="finite"):
            lap_exact(np.array([[1.0, bad]]))


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
    u = project_to_universe(v, index)
    for i in range(index.k):
        best, _ = brute_force_lap(v[index.slice_of(i)])
        got = v[index.slice_of(i)][np.arange(sizes[i]), u.block(i)].sum()
        assert got == pytest.approx(best, rel=1e-12)


def test_projection_dominates_random_feasible_points():
    rng = np.random.default_rng(17)
    index = BlockIndex(sizes=(3, 4, 2))
    v = rng.normal(size=(index.m, 5))
    u = project_to_universe(v, index)
    star = v[np.arange(index.m), u.assignment].sum()
    for _ in range(50):
        other = random_assignment(rng, index.sizes, 5)
        assert star >= v[np.arange(index.m), other.assignment].sum() - 1e-9


def test_projection_blocks_are_independent():
    rng = np.random.default_rng(23)
    index = BlockIndex(sizes=(3, 3, 3))
    v = rng.normal(size=(index.m, 4))
    base = project_to_universe(v, index)
    bumped = v.copy()
    bumped[index.slice_of(1)] += rng.normal(size=(3, 4))
    again = project_to_universe(bumped, index)
    assert again.block(0).tolist() == base.block(0).tolist()
    assert again.block(2).tolist() == base.block(2).tolist()


def test_projection_returns_valid_assignment_with_surplus_columns():
    rng = np.random.default_rng(29)
    index = BlockIndex(sizes=(2, 5, 3))
    u = project_to_universe(rng.normal(size=(index.m, 9)), index)
    assert isinstance(u, UniverseAssignment)
    assert u.d == 9


def test_projection_rejects_bad_inputs():
    index = BlockIndex(sizes=(2, 3))
    with pytest.raises(ValueError):
        project_to_universe(np.zeros((5, 2)), index)  # d < max block
    with pytest.raises(ValueError):
        project_to_universe(np.zeros((4, 4)), index)  # wrong row count



def block_widths(monkeypatch) -> list[int]:
    """Record the column count of every block LAP ``project_to_universe`` solves."""
    widths = []
    solve = assignment.lap_exact

    def recording(scores):
        widths.append(scores.shape[1])
        return solve(scores)

    monkeypatch.setattr(assignment, "lap_exact", recording)
    return widths


def block_score(v: np.ndarray, index: BlockIndex, u: UniverseAssignment, i: int) -> float:
    return value(v[index.slice_of(i)], u.block(i))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projection_drops_planted_zero_columns_exactly(data):
    """Positive scores with planted all-zero columns: the LAPs run on the
    nonzero columns only, and every block scores what the full LAP scores."""
    sizes = tuple(
        data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="sizes")
    )
    index = BlockIndex(sizes=sizes)
    used = data.draw(st.integers(max(sizes), max(sizes) + 3), label="used")
    zeros = data.draw(st.integers(1, 4), label="zeros")
    integer = data.draw(st.booleans(), label="integer")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    d = used + zeros
    if integer:  # small integers tie often
        live = rng.integers(1, 4, size=(index.m, used)).astype(np.float64)
    else:
        live = rng.uniform(0.01, 1.0, size=(index.m, used))
    v = np.zeros((index.m, d))
    kept = np.sort(rng.choice(d, size=used, replace=False))
    v[:, kept] = live
    with pytest.MonkeyPatch.context() as mp:
        widths = block_widths(mp)
        u = project_to_universe(v, index)
    assert widths == [used] * index.k
    assert np.isin(u.assignment, kept).all()
    for i in range(index.k):
        full = v[index.slice_of(i)]
        assert block_score(v, index, u, i) == value(full, lap_exact(full))


@pytest.mark.parametrize(
    "case",
    ["zero entry", "negative entry", "too few nonzero columns", "no zero column"],
)
def test_projection_solves_full_width_unless_the_drop_is_exact(monkeypatch, case):
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
    widths = block_widths(monkeypatch)
    u = project_to_universe(v, index)
    assert widths == [6, 6]
    for i in range(index.k):
        best, _ = brute_force_lap(v[index.slice_of(i)])
        assert block_score(v, index, u, i) == pytest.approx(best, rel=1e-12)
