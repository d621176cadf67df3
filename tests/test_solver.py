"""Solver tests: oracle objective values, monotonicity, stall behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hippi import solver
from hippi.core import BlockIndex, MultiAdjacency, UniverseAssignment
from hippi.solver import (
    SolverConfig,
    SolverTrace,
    WbarOperator,
    hippi_solve,
    iterates,
    objective,
    universe_size,
)

from helpers import (
    enumerate_assignments,
    integer_psd_adjacency,
    integer_similarity,
    naive_objective,
    random_assignment,
    unblocked_gather,
)


def integer_operator(rng, sizes):
    w = integer_similarity(rng, sizes)
    a = integer_psd_adjacency(rng, sizes)
    return WbarOperator.from_kernels(w, a)


def test_identity_wbar_counts_squared_slot_occupancy():
    """With Wb = I the objective is the sum of squared slot occupancies."""
    index = BlockIndex(sizes=(2, 2))
    op = WbarOperator(np.eye(4), index)
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
    expected = naive_objective(op.dense(), u.to_dense())
    assert objective(op, u) == expected  # small-integer arithmetic is exact


@pytest.mark.parametrize("seed", range(10))
def test_times_assignment_matches_dense_product(seed):
    rng = np.random.default_rng(100 + seed)
    sizes = (3, 2, 4)
    op = integer_operator(rng, sizes)
    u = random_assignment(rng, sizes, 6)
    direct = op.dense() @ u.to_dense()
    assert np.array_equal(op.times_assignment(u), direct)


def test_gather_handles_empty_universe_slots():
    rng = np.random.default_rng(5)
    index = BlockIndex(sizes=(2, 2))
    op = integer_operator(rng, index.sizes)
    u = UniverseAssignment(np.array([0, 4, 4, 0]), d=5, index=index)
    direct = op.dense() @ u.to_dense()
    assert np.array_equal(op.times_assignment(u), direct)
    assert np.all(op.times_assignment(u)[:, [1, 2, 3]] == 0.0)


@pytest.mark.parametrize("m", [1, 31, 32, 33, 97])
def test_row_blocked_gather_is_bit_identical_to_one_pass(m):
    rng = np.random.default_rng(m)
    w = rng.normal(size=(m, m))
    d = m + 7
    assignment = rng.choice(d, size=m, replace=True)
    assignment[: min(m, 3)] = 0  # a shared slot; at least seven slots stay empty
    got = solver._gather_columns(w, assignment, d)
    assert np.array_equal(got.view(np.int64), unblocked_gather(w, assignment, d).view(np.int64))


def test_operator_validation():
    index = BlockIndex(sizes=(2, 2))
    with pytest.raises(ValueError):
        WbarOperator(np.zeros((3, 4)), index)
    with pytest.raises(ValueError):
        WbarOperator(np.zeros((3, 3)), index)
    other = MultiAdjacency(blocks=(np.eye(4),), index=BlockIndex(sizes=(4,)))
    with pytest.raises(ValueError):
        WbarOperator(np.eye(4), index, other)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(f_tol=-1.0)


def test_trace_requires_aligned_arrays():
    with pytest.raises(ValueError):
        SolverTrace(objectives=np.zeros(3), wall_times=np.zeros(2), converged=True)


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
    op = WbarOperator(w, index)
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
    _, trace = hippi_solve(op, u0, SolverConfig(max_iters=200, f_tol=0.0))
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


def test_step_agrees_with_solver_first_iteration():
    rng = np.random.default_rng(19)
    sizes = (3, 3)
    op = integer_operator(rng, sizes)
    u0 = random_assignment(rng, sizes, 4)
    steps = iterates(op, u0)
    (first, f0), (u1, f1) = next(steps), next(steps)
    _, trace = hippi_solve(op, u0, SolverConfig(max_iters=2))
    assert first is u0
    assert [f0, f1] == trace.objectives.tolist()
    assert objective(op, u1) == f1


def test_solve_projects_only_between_evaluated_iterates(monkeypatch):
    """The stalled final iterate is never projected again."""
    calls = []
    project = solver.project_to_universe

    def counting(v, index):
        calls.append(index)
        return project(v, index)

    monkeypatch.setattr(solver, "project_to_universe", counting)
    rng = np.random.default_rng(21)
    sizes = (3, 4, 3)
    op = integer_operator(rng, sizes)
    _, trace = hippi_solve(op, random_assignment(rng, sizes, 5))
    assert trace.converged
    assert len(calls) == trace.iterations - 1


@pytest.mark.parametrize("seed", range(8))
def test_tiny_instances_stall_at_enumerated_local_or_global_best(seed):
    """Exhaustive check: the solver never overshoots the true optimum and,
    over all starts, at least one run attains it."""
    rng = np.random.default_rng(400 + seed)
    sizes = (2, 2)
    d = 3
    op = integer_operator(rng, sizes)
    wbar = op.dense()
    index = BlockIndex(sizes=sizes)
    best = -np.inf
    values = {}
    for flat in enumerate_assignments(sizes, d):
        u = UniverseAssignment(np.array(flat), d=d, index=index)
        values[flat] = naive_objective(wbar, u.to_dense())
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
    op = WbarOperator(w, index)
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
    assert universe_size(index, rule="max-block") == 5
    assert universe_size(index, explicit=6) == 6
    with pytest.raises(ValueError):
        universe_size(index, explicit=4)
    with pytest.raises(ValueError):
        universe_size(index, rule="thrice-average")


def test_universe_size_twice_average_clamps_to_largest_object():
    index = BlockIndex(sizes=(1, 1, 10))
    assert universe_size(index) == 10
