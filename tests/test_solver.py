"""Solver tests: oracle objective values, monotonicity, stall behaviour."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hippi import core, solver
from hippi.baselines import random_init
from hippi.cli import bench_instance
from hippi.core import BlockIndex, MultiAdjacency, SimilarityMatrix, UniverseAssignment, expand
from hippi.kernels import KernelConfig, build_adjacency, build_similarity
from hippi.metrics import fscore, verify_cycle_consistency
from hippi.solver import (
    Iterate,
    SolverConfig,
    WbarOperator,
    hippi_solve,
    objective,
    universe_size,
)
from hippi.synth import GenConfig, generate

from helpers import (
    PlainSimilarity,
    dense_wbar,
    enumerate_assignments,
    gaussian_psd_matrix,
    integer_psd_adjacency,
    integer_similarity,
    naive_objective,
    random_assignment,
    to_dense,
    unblocked_gather,
    uniform_similarity,
)


def integer_operator(rng, sizes):
    w = integer_similarity(rng, sizes)
    a = integer_psd_adjacency(rng, sizes)
    return WbarOperator(w, a)


def test_identity_wbar_counts_squared_slot_occupancy():
    """With Wb = I the objective is the sum of squared slot occupancies."""
    index = BlockIndex(sizes=(2, 2))
    op = WbarOperator(PlainSimilarity(np.eye(4), index))
    shared = UniverseAssignment(np.array([0, 1, 0, 1]), d=2, index=index)
    assert objective(op, shared) == 8.0  # two slots of size two: 4 + 4
    spread = UniverseAssignment(np.array([0, 1, 2, 1]), d=3, index=index)
    assert objective(op, spread) == 6.0  # occupancies (1, 2, 1)


@pytest.mark.parametrize("seed", range(15))
def test_objective_matches_quadruple_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(1, 4, size=rng.integers(1, 4)).tolist())
    op = integer_operator(rng, sizes)
    d = max(sizes) + int(rng.integers(0, 3))
    u = random_assignment(rng, sizes, d)
    expected = naive_objective(dense_wbar(op), to_dense(u))
    assert objective(op, u) == expected  # small-integer arithmetic is exact


def split_by_occupancy(u: UniverseAssignment, dense: np.ndarray):
    """``dense``'s columns of occupied slots, in slot order, and those of empty slots."""
    occupied = np.zeros(u.d, dtype=bool)
    occupied[u.assignment] = True
    return dense[:, occupied], dense[:, ~occupied]


@pytest.mark.parametrize("seed", range(10))
def test_times_assignment_matches_dense_product(seed):
    """The product keeps the occupied slots' columns; the dropped ones are zero."""
    rng = np.random.default_rng(100 + seed)
    sizes = (3, 2, 4)
    op = integer_operator(rng, sizes)
    u = random_assignment(rng, sizes, 6)
    kept, dropped = split_by_occupancy(u, dense_wbar(op) @ to_dense(u))
    assert np.array_equal(op.times_assignment(u), kept)
    assert not dropped.any()


def test_gather_handles_empty_universe_slots():
    rng = np.random.default_rng(5)
    index = BlockIndex(sizes=(2, 2))
    op = integer_operator(rng, index.sizes)
    u = UniverseAssignment(np.array([0, 4, 4, 0]), d=5, index=index)
    direct = dense_wbar(op) @ to_dense(u)
    assert u.slot_runs[2].tolist() == [0, 4]
    assert np.array_equal(op.times_assignment(u), direct[:, [0, 4]])
    assert np.all(direct[:, [1, 2, 3]] == 0.0)


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


@pytest.mark.parametrize("slots", [1, 31, 32, 33, 97])
def test_row_blocked_gather_is_bit_identical_to_one_pass(monkeypatch, slots):
    """Each slot's column is its points' rows added left to right, one point at a
    time, bit for bit, with products of 32 slots and occupied slots on both sides."""
    rng = np.random.default_rng(slots)
    # One point per object, so any slot may hold several points.
    index = BlockIndex((1,) * (slots + 40))
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 32 * index.m)
    w = uniform_similarity(rng, index)
    d = slots + 7  # at least seven slots stay empty
    occupied = rng.choice(d, size=slots, replace=False)
    extra = np.concatenate([rng.choice(occupied, size=20), np.full(20, occupied[0])])
    assignment = rng.permutation(np.concatenate([occupied, extra]))
    u = UniverseAssignment(assignment, d=d, index=index)
    order, starts, occupied = u.slot_runs
    assert starts.size == slots
    got = w.gather(order, starts)
    want = unblocked_gather(w.data, assignment, d)[:, occupied]
    assert np.array_equal(bits(got), bits(want))


def test_a_slot_column_depends_only_on_its_own_members(monkeypatch):
    """Moving other slots' points, and so the slot's position among the occupied
    ones and its product of slots, leaves the slot's column of ``W U`` the same
    bit for bit."""
    rng = np.random.default_rng(61)
    index = BlockIndex((1,) * 150)
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 16 * index.m)
    w = uniform_similarity(rng, index)
    d = 40
    kept = rng.choice(index.m, size=50, replace=False)
    for trial in range(4):
        assignment = rng.choice(np.arange(d), size=index.m, replace=True)
        assignment[assignment == 17] = d - 1 - trial  # only ``kept`` sits in slot 17
        assignment[kept] = 17
        u = UniverseAssignment(assignment, d=d, index=index)
        order, starts, occupied = u.slot_runs
        column = w.gather(order, starts)[:, np.searchsorted(occupied, 17)]
        if trial == 0:
            first = column
        assert np.array_equal(bits(column), bits(first))


def test_operator_validation():
    """Only the adjacency is checked here; ``W`` is checked by its own type."""
    w = integer_similarity(np.random.default_rng(3), (2, 2))
    other = MultiAdjacency(blocks=(np.eye(4),), index=BlockIndex(sizes=(4,)))
    with pytest.raises(ValueError, match="adjacency blocks do not match"):
        WbarOperator(w, other)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


@pytest.mark.parametrize("seed", range(25))
def test_objective_never_decreases_on_psd_instances(seed):
    rng = np.random.default_rng(200 + seed)
    sizes = tuple(rng.integers(1, 6, size=rng.integers(2, 5)).tolist())
    op = integer_operator(rng, sizes)
    d = max(sizes) + int(rng.integers(0, 3))
    u0 = random_assignment(rng, sizes, d)
    _, trace = hippi_solve(op, u0)
    assert np.all(np.diff(trace.objectives) >= 0.0)  # exact: integer arithmetic


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_objective_never_decreases_on_float_psd_squares(seed):
    """Wb = W^2 is PSD for any exactly symmetric W, integer-free route."""
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(1, 5, size=rng.integers(2, 4)).tolist())
    index = BlockIndex(sizes=sizes)
    w = rng.normal(size=(index.m, index.m))
    w = np.triu(w) + np.triu(w, 1).T
    op = WbarOperator(PlainSimilarity(w, index))
    u0 = random_assignment(rng, sizes, max(sizes) + 1)
    _, trace = hippi_solve(op, u0)
    floor = -1e-9 * max(1.0, float(np.abs(trace.objectives).max()))
    assert np.all(np.diff(trace.objectives) >= floor)


@pytest.mark.parametrize("seed", range(25))
def test_finite_convergence_with_zero_tolerance(seed):
    rng = np.random.default_rng(300 + seed)
    sizes = tuple(rng.integers(2, 8, size=rng.integers(2, 5)).tolist())
    op = integer_operator(rng, sizes)
    u0 = random_assignment(rng, sizes, max(sizes) + 2)
    _, trace = hippi_solve(op, u0, SolverConfig(max_iters=200))
    assert trace.converged
    assert trace.iterations < 200
    assert trace.objectives[-1] == trace.objectives[-2]


def test_restart_from_fixed_point_stalls_immediately():
    rng = np.random.default_rng(11)
    sizes = (3, 4, 3)
    op = integer_operator(rng, sizes)
    u_star, first = hippi_solve(op, random_assignment(rng, sizes, 5))
    assert first.converged
    again, trace = hippi_solve(op, u_star)
    assert trace.converged
    assert trace.iterations == 2
    assert trace.objectives[-1] == first.objectives[-1]
    assert objective(op, again) == first.objectives[-1]


def test_max_iters_one_returns_initial_assignment():
    rng = np.random.default_rng(13)
    sizes = (2, 3)
    op = integer_operator(rng, sizes)
    u0 = random_assignment(rng, sizes, 4)
    u, trace = hippi_solve(op, u0, SolverConfig(max_iters=1))
    assert u is u0
    assert trace.iterations == 1
    assert not trace.converged


def test_objective_invariant_under_column_relabelling():
    rng = np.random.default_rng(17)
    sizes = (3, 2, 3)
    op = integer_operator(rng, sizes)
    u = random_assignment(rng, sizes, 5)
    perm = rng.permutation(5)
    relabelled = UniverseAssignment(perm[u.assignment], d=5, index=u.index)
    assert objective(op, u) == objective(op, relabelled)


def test_step_agrees_with_solver_first_iteration(monkeypatch):
    """An iterate applies the operator once, for its objective and its successor
    together, and gives the solver's objectives bit for bit."""
    rng = np.random.default_rng(19)
    sizes = (3, 3)
    op = integer_operator(rng, sizes)
    u0 = random_assignment(rng, sizes, 4)
    _, trace = hippi_solve(op, u0, SolverConfig(max_iters=2))
    f_u0 = objective(op, u0)
    applied = count_applies(monkeypatch)
    first = Iterate(op, u0)
    f0 = first.objective
    second = first.successor()
    assert applied == [u0]
    f1 = second.objective
    assert len(applied) == 2
    assert first.u is u0
    assert np.float64(f0).tobytes() == np.float64(f_u0).tobytes()
    assert [f0, f1] == trace.objectives.tolist()
    assert objective(op, second.u) == f1


def test_solve_projects_only_between_evaluated_iterates(monkeypatch):
    """The stalled final iterate is never projected again."""
    calls = []
    project = solver.project_to_universe

    def counting(v, index, *, columns, d):
        calls.append(index)
        return project(v, index, columns=columns, d=d)

    monkeypatch.setattr(solver, "project_to_universe", counting)
    rng = np.random.default_rng(21)
    sizes = (3, 4, 3)
    op = integer_operator(rng, sizes)
    _, trace = hippi_solve(op, random_assignment(rng, sizes, 5))
    assert trace.converged
    assert len(calls) == trace.iterations - 1


def count_applies(monkeypatch) -> list[UniverseAssignment]:
    """Record the assignment of every ``times_assignment`` call."""
    applied = []
    apply = WbarOperator.times_assignment

    def counting(self, u):
        applied.append(u)
        return apply(self, u)

    monkeypatch.setattr(WbarOperator, "times_assignment", counting)
    return applied


def test_fixed_point_is_not_applied_again(monkeypatch):
    """The repeated final iterate is recognised before the operator runs on it."""
    rng = np.random.default_rng(21)
    sizes = (3, 4, 3)
    op = integer_operator(rng, sizes)
    u0 = random_assignment(rng, sizes, 5)
    f_first = objective(op, u0)
    applied = count_applies(monkeypatch)
    u, trace = hippi_solve(op, u0)
    assert trace.converged
    assert trace.iterations >= 2
    assert len(applied) == trace.iterations - 1
    assert applied[-1] == u  # the fixed point was applied once, when first reached
    assert trace.objectives[0] == f_first
    assert trace.objectives[-1] == trace.objectives[-2]


def test_stops_at_first_repeated_assignment(monkeypatch):
    """A projection that alternates between two assignments of different
    objective is a 2-cycle; the solver stops when the first one comes back,
    without applying the operator to it again."""
    rng = np.random.default_rng(31)
    sizes = (3, 4, 3)
    op = integer_operator(rng, sizes)
    a, b = random_assignment(rng, sizes, 5), random_assignment(rng, sizes, 5)
    f_a, f_b = objective(op, a), objective(op, b)
    assert f_a != f_b
    calls = []

    def alternate(v, index, *, columns, d):
        calls.append(index)
        return b if len(calls) % 2 else a

    monkeypatch.setattr(solver, "project_to_universe", alternate)
    applied = count_applies(monkeypatch)
    u, trace = hippi_solve(op, a, SolverConfig(max_iters=50))
    assert trace.converged
    assert trace.iterations == 3
    assert len(calls) == 2
    assert applied == [a, b]
    assert u is a
    assert trace.objectives.tolist() == [f_a, f_b, f_a]
    assert trace.objectives[-1].tobytes() == trace.objectives[0].tobytes()


def test_repeat_on_the_last_allowed_iterate_counts_as_converged(monkeypatch):
    rng = np.random.default_rng(31)
    sizes = (3, 4, 3)
    op = integer_operator(rng, sizes)
    a = random_assignment(rng, sizes, 5)
    monkeypatch.setattr(solver, "project_to_universe", lambda v, index, *, columns, d: a)
    _, trace = hippi_solve(op, a, SolverConfig(max_iters=2))
    assert trace.converged
    assert trace.iterations == 2


def _assert_close(got, want, rtol=1e-12):
    """Agreement to ``rtol`` relative to the largest entry of the reference."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    extra=st.integers(0, 2),
    with_adjacency=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@example(sizes=[1, 4, 1, 2], extra=0, with_adjacency=True, seed=0)
@example(sizes=[1], extra=0, with_adjacency=False, seed=1)
def test_fast_paths_match_dense_oracle(sizes, extra, with_adjacency, seed):
    """Gather product, objective and the first lift against ``W A W`` in plain numpy,
    on ragged float instances; ``extra = 0`` gives ``d`` = the largest object."""
    rng = np.random.default_rng(seed)
    index = BlockIndex(tuple(sizes))
    w = uniform_similarity(rng, index)
    adjacency = None
    if with_adjacency:
        blocks = tuple(gaussian_psd_matrix(rng, s) for s in sizes)
        blocks = tuple(np.triu(b) + np.triu(b, 1).T for b in blocks)
        adjacency = MultiAdjacency(blocks=blocks, index=index)
    op = WbarOperator(w, adjacency)
    u = random_assignment(rng, sizes, max(sizes) + extra)
    wbar, dense_u = dense_wbar(op), to_dense(u)
    mid = dense_u.T @ wbar @ dense_u
    kept, dropped = split_by_occupancy(u, wbar @ dense_u)
    _assert_close(op.times_assignment(u), kept)
    assert not dropped.any()
    lifts = []
    project = solver.project_to_universe

    def capture(v, idx, *, columns, d):
        lift = np.zeros((idx.m, d))
        lift[:, columns] = v
        lifts.append(lift)
        return project(v, idx, columns=columns, d=d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "project_to_universe", capture)
        Iterate(op, u).successor()
    _assert_close(objective(op, u), float((mid * mid).sum()))
    _assert_close(lifts[0], wbar @ dense_u @ mid)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_reports_are_bitwise_independent_of_universe_size(sizes, extra, seed):
    """Objective, expansion, f-score and consistency of one assignment vector,
    read as an assignment into ``d``, ``d + 1``, ``d + 10**6`` and ``2**40`` slots."""
    rng = np.random.default_rng(seed)
    index = BlockIndex(tuple(sizes))
    w = uniform_similarity(rng, index)
    blocks = tuple(gaussian_psd_matrix(rng, s) for s in sizes)
    op = WbarOperator(
        w, MultiAdjacency(tuple(np.triu(b) + np.triu(b, 1).T for b in blocks), index)
    )
    d = max(sizes) + extra
    vector = random_assignment(rng, sizes, d).assignment
    truth = [rng.integers(-1, d, size=s) for s in sizes]

    def reports(universe):
        u = UniverseAssignment(vector, d=universe, index=index)
        x = expand(u)
        return objective(op, u), x.targets, fscore(u, truth), verify_cycle_consistency(x)

    f, targets, score, cycles = reports(d)
    for universe in (d + 1, d + 10**6, 2**40):
        f_u, targets_u, score_u, cycles_u = reports(universe)
        assert np.float64(f_u).view(np.int64) == np.float64(f).view(np.int64)
        assert np.array_equal(targets_u, targets)
        assert score_u == score
        assert cycles_u == cycles


@pytest.mark.parametrize("seed", range(8))
def test_tiny_instances_stall_at_enumerated_local_or_global_best(seed):
    """Exhaustive check: the solver never overshoots the true optimum and,
    over all starts, at least one run attains it."""
    rng = np.random.default_rng(400 + seed)
    sizes = (2, 2)
    d = 3
    op = integer_operator(rng, sizes)
    wbar = dense_wbar(op)
    index = BlockIndex(sizes=sizes)
    best = -np.inf
    values = {}
    for flat in enumerate_assignments(sizes, d):
        u = UniverseAssignment(np.array(flat), d=d, index=index)
        values[flat] = naive_objective(wbar, to_dense(u))
        best = max(best, values[flat])
    reached = []
    for flat in enumerate_assignments(sizes, d):
        u0 = UniverseAssignment(np.array(flat), d=d, index=index)
        u, trace = hippi_solve(op, u0)
        assert trace.objectives[-1] <= best
        assert trace.objectives[-1] >= values[flat]  # never below the start
        reached.append(trace.objectives[-1])
    assert max(reached) == best


def test_solver_is_deterministic():
    rng = np.random.default_rng(23)
    sizes = (4, 3, 5)
    index = BlockIndex(sizes=sizes)
    w = rng.normal(size=(index.m, index.m))
    w = np.triu(w) + np.triu(w, 1).T
    op = WbarOperator(PlainSimilarity(w, index))
    u0 = random_assignment(rng, sizes, 7)
    u_a, tr_a = hippi_solve(op, u0)
    u_b, tr_b = hippi_solve(op, u0)
    assert u_a.assignment.tolist() == u_b.assignment.tolist()
    assert tr_a.objectives.tolist() == tr_b.objectives.tolist()


def test_solver_rejects_mismatched_index():
    rng = np.random.default_rng(29)
    op = integer_operator(rng, (2, 2))
    u0 = random_assignment(rng, (2, 3), 4)
    with pytest.raises(ValueError):
        hippi_solve(op, u0)


def test_universe_size_rules():
    index = BlockIndex(sizes=(3, 5, 4))
    assert universe_size(index) == 8  # ceil(2 * 4)
    assert universe_size(index, 5) == 5
    assert universe_size(index, d=6.0) == 6
    with pytest.raises(ValueError):
        universe_size(index, 4)
    assert universe_size(BlockIndex(sizes=(2, 3))) == 5  # ceil(2 * 2.5)


def test_universe_size_twice_average_clamps_to_largest_object():
    index = BlockIndex(sizes=(1, 1, 10))
    assert universe_size(index) == 10


@pytest.mark.parametrize("seed", range(6))
def test_solve_through_plain_similarity_is_byte_identical(seed):
    """The solver reads ``W`` only through ``gather`` and ``@``: a ``W`` of another
    type with the same values gives the same solve, bit for bit."""
    rng = np.random.default_rng(500 + seed)
    sizes = tuple(rng.integers(2, 9, size=rng.integers(2, 7)).tolist())
    index = BlockIndex(sizes)
    w = uniform_similarity(rng, index)
    adjacency = MultiAdjacency(tuple(gaussian_psd_matrix(rng, s) for s in sizes), index)
    u0 = random_assignment(rng, sizes, max(sizes) + 2)
    u, trace = hippi_solve(WbarOperator(w, adjacency), u0)
    u_plain, trace_plain = hippi_solve(WbarOperator(PlainSimilarity(w.data, index), adjacency), u0)
    assert u_plain.assignment.tobytes() == u.assignment.tobytes()
    assert trace_plain.objectives.tobytes() == trace.objectives.tobytes()


def tiny_problem(shape: str, seed: int):
    """``(W, A, d)`` of one problem of the benchmark's workloads at their tiny size."""
    if shape == "noisy-outliers":
        p = generate(
            GenConfig(
                k=10,
                d_true=20,
                visibility=0.8,
                coord_noise_sigma=0.02,
                feature_dim=8,
                feature_noise_sigma=0.3,
                outlier_fraction=0.2,
                seed=seed,
            )
        )
        kernel = KernelConfig(weight_mode="intra-ratio")
    else:
        p = bench_instance(200, 20 if shape == "many-objects" else 25, seed)
        kernel = KernelConfig()
    d = 40 if shape == "many-objects" else universe_size(p.index)
    return build_similarity(p, kernel), build_adjacency(p, kernel), d


TINY_SHAPES = st.sampled_from(["many-objects", "large-objects", "noisy-outliers"])


def solve_through_both(w: SimilarityMatrix, a: MultiAdjacency, u0: UniverseAssignment):
    """``hippi_solve`` from ``u0`` through ``w`` and through a plain copy of it."""
    plain = PlainSimilarity(w.data, w.index)
    return [hippi_solve(WbarOperator(sim, a), u0) for sim in (w, plain)]


def assert_same_objective(got: float, want: float):
    assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=8, deadline=None)
@given(shape=TINY_SHAPES, seed=st.integers(0, 2**31 - 1))
def test_relabelling_slots_relabels_the_solution(shape, seed):
    """Permuting the start's slots permutes the final assignment the same way."""
    w, a, d = tiny_problem(shape, seed)
    u0 = random_init(w.index, d, seed)
    perm = np.random.default_rng(seed).permutation(d)
    u0_perm = UniverseAssignment(perm[u0.assignment], d=d, index=w.index)
    for (u, trace), (u_perm, trace_perm) in zip(
        solve_through_both(w, a, u0), solve_through_both(w, a, u0_perm)
    ):
        assert np.array_equal(u_perm.assignment, perm[u.assignment])
        assert_same_objective(trace_perm.objectives[-1], trace.objectives[-1])


@settings(max_examples=8, deadline=None)
@given(shape=TINY_SHAPES, seed=st.integers(0, 2**31 - 1))
def test_reversing_the_objects_reverses_the_solution(shape, seed):
    """Listing the objects last to first gives the same matching, object by object."""
    w, a, d = tiny_problem(shape, seed)
    index = w.index
    u0 = random_init(index, d, seed)
    objects = range(index.k - 1, -1, -1)
    points = np.concatenate([np.arange(index.m)[index.slice_of(i)] for i in objects])
    rev_index = BlockIndex(index.sizes[::-1])
    w_rev = SimilarityMatrix(w.data[np.ix_(points, points)], rev_index)
    a_rev = MultiAdjacency(a.blocks[::-1], rev_index)
    u0_rev = UniverseAssignment(u0.assignment[points], d=d, index=rev_index)
    for (u, trace), (u_rev, trace_rev) in zip(
        solve_through_both(w, a, u0), solve_through_both(w_rev, a_rev, u0_rev)
    ):
        assert np.array_equal(u_rev.assignment, u.assignment[points])
        assert_same_objective(trace_rev.objectives[-1], trace.objectives[-1])


@settings(max_examples=8, deadline=None)
@given(shape=TINY_SHAPES, seed=st.integers(0, 2**31 - 1))
def test_reordering_the_points_reorders_the_solution(shape, seed):
    """Permuting the points inside each object gives the same matching, point by point."""
    w, a, d = tiny_problem(shape, seed)
    index = w.index
    u0 = random_init(index, d, seed)
    rng = np.random.default_rng(seed)
    local = [rng.permutation(n) for n in index.sizes]
    points = np.concatenate([index.offsets[i] + p for i, p in enumerate(local)])
    w_perm = SimilarityMatrix(w.data[np.ix_(points, points)], index)
    a_perm = MultiAdjacency(tuple(b[np.ix_(p, p)] for b, p in zip(a.blocks, local)), index)
    u0_perm = UniverseAssignment(u0.assignment[points], d=d, index=index)
    for (u, trace), (u_perm, trace_perm) in zip(
        solve_through_both(w, a, u0), solve_through_both(w_perm, a_perm, u0_perm)
    ):
        assert np.array_equal(u_perm.assignment, u.assignment[points])
        assert_same_objective(trace_perm.objectives[-1], trace.objectives[-1])
