"""End-to-end acceptance suite: ten criteria, one printed verdict line each.

Each test evaluates one numbered criterion on fixed seeds, appends a
``ACCEPTANCE nn <name>: PASS/FAIL (<detail>)`` line to the shared log (echoed
after the run), and then asserts.  Expensive shared suites are session-scoped
fixtures so the solver runs once for the criteria that share instances.
"""

import time

import numpy as np
import pytest

from hippi import cli, io
from hippi.assignment import lap_exact
from hippi.baselines import (
    pairwise_lap_matchings,
    random_init,
    spectral_sync,
    vote_similarity,
)
from hippi.cli import RunConfig, bench_ladder, fit_scaling_exponent
from hippi.core import BlockIndex, UniverseAssignment, expand
from hippi.kernels import KernelConfig, assert_psd, build_adjacency, build_similarity
from hippi.metrics import fscore, verify_cycle_consistency
from hippi.solver import (
    SolverConfig,
    WbarOperator,
    hippi_solve,
    objective,
)
from hippi.synth import GenConfig, generate, twin_prototype_instance

from helpers import (
    brute_force_lap,
    enumerate_assignments,
    gaussian_psd_matrix,
    integer_psd_adjacency,
    integer_similarity,
    random_assignment,
    to_dense,
)

RELTOL = 1e-9


def _verdict(log, number, name, ok, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    log.append(line)
    print(line)
    return ok


def _random_operator(seed):
    """A small seeded problem: integer similarity, PSD adjacency, random init."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    sizes = tuple(int(s) for s in rng.integers(2, 11, size=k))
    d = max(sizes) + int(rng.integers(0, 3))
    w = integer_similarity(rng, sizes)
    a = integer_psd_adjacency(rng, sizes)
    op = WbarOperator(w, a)
    u0 = random_assignment(rng, sizes, d)
    return op, u0


@pytest.fixture(scope="session")
def solver_suite():
    """100 seeded solves, each stopping at a repeated assignment; shared by criteria 1, 2, 4."""
    runs = []
    tic = time.perf_counter()
    for seed in range(100):
        op, u0 = _random_operator(seed)
        u, trace = hippi_solve(op, u0, SolverConfig(max_iters=200))
        runs.append((u, trace))
    elapsed = time.perf_counter() - tic
    return runs, elapsed


def test_01_objective_never_decreases(solver_suite, acceptance_log):
    runs, elapsed = solver_suite
    bad = 0
    for _, trace in runs:
        f = trace.objectives
        drops = f[1:] - f[:-1] < -RELTOL * np.maximum(np.abs(f[:-1]), 1.0)
        bad += int(drops.any())
    ok = bad == 0 and elapsed < 30.0
    assert _verdict(
        acceptance_log, 1, "monotone objective",
        ok, f"{100 - bad}/100 traces non-decreasing, suite took {elapsed:.1f}s",
    )


def test_02_stalls_before_iteration_budget(solver_suite, acceptance_log):
    runs, _ = solver_suite
    unconverged = sum(1 for _, trace in runs if not trace.converged)
    longest = max(trace.iterations for _, trace in runs)
    ok = unconverged == 0
    assert _verdict(
        acceptance_log, 2, "finite convergence",
        ok, f"{100 - unconverged}/100 stalled, longest run {longest} of 200 iterations",
    )


def test_03_projection_matches_brute_force(acceptance_log):
    rng = np.random.default_rng(33)
    tic = time.perf_counter()
    exact_misses = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(m, 8))
        scores = rng.normal(size=(m, d))
        cols = lap_exact(scores)
        best, _ = brute_force_lap(scores)
        if float(scores[np.arange(m), cols].sum()) != best:
            exact_misses += 1
    elapsed = time.perf_counter() - tic
    ok = exact_misses == 0 and elapsed < 10.0
    assert _verdict(
        acceptance_log, 3, "projection optimality",
        ok, f"exact misses {exact_misses}/200, {elapsed:.1f}s",
    )


def test_04_every_assignment_is_cycle_consistent(solver_suite, acceptance_log):
    rng = np.random.default_rng(101)
    violations = 0
    nonzero_errors = 0
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        sizes = tuple(int(s) for s in rng.integers(1, 7, size=k))
        d = max(sizes) + int(rng.integers(0, 3))
        u = random_assignment(rng, sizes, d)
        matches = expand(u)
        violations += verify_cycle_consistency(matches).total
        nonzero_errors += int(verify_cycle_consistency(matches).cycle_error != 0.0)
        checked += 1
    runs, _ = solver_suite
    for u, _ in runs:
        matches = expand(u)
        violations += verify_cycle_consistency(matches).total
        nonzero_errors += int(verify_cycle_consistency(matches).cycle_error != 0.0)
        checked += 1
    ok = violations == 0 and nonzero_errors == 0
    assert _verdict(
        acceptance_log, 4, "cycle consistency",
        ok,
        f"{checked} assignments, {violations} violations, "
        f"{nonzero_errors} non-zero cycle errors",
    )


def test_05_restarts_reach_global_optimum_on_tiny_instances(acceptance_log):
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        sizes = tuple(int(s) for s in rng.integers(2, 4, size=k))
        d = int(rng.integers(max(sizes), 4))
        w = integer_similarity(rng, sizes)
        a = integer_psd_adjacency(rng, sizes)
        op = WbarOperator(w, a)
        idx = BlockIndex(sizes)
        best_possible = max(
            objective(op, UniverseAssignment(
                assignment=np.array(flat, dtype=np.int64), d=d, index=idx,
            ))
            for flat in enumerate_assignments(sizes, d)
        )
        found = -np.inf
        for restart in range(5):
            u0 = random_assignment(rng, sizes, d)
            _, trace = hippi_solve(op, u0, SolverConfig(max_iters=200))
            found = max(found, trace.objectives[-1])
        hits += int(found >= best_possible - RELTOL * max(best_possible, 1.0))
    ok = hits >= 45
    assert _verdict(
        acceptance_log, 5, "tiny-instance global optimality",
        ok, f"{hits}/50 instances reached the enumerated optimum (need 45)",
    )


def test_06_noiseless_instances_recover_exactly(acceptance_log):
    kcfg = KernelConfig(sigma=2.0, mu=1.0)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cfg = GenConfig(
            k=int(rng.integers(3, 6)),
            d_true=int(rng.integers(4, 16)),
            visibility=1.0,
            transform_family="rigid",
            seed=seed,
        )
        p = generate(cfg)
        w = build_similarity(p, kcfg)
        a = assert_psd(build_adjacency(p, kcfg)).adjacency
        op = WbarOperator(w, a)
        d = max(p.sizes)
        u0 = random_init(p.index, d, seed=seed)
        u, _ = hippi_solve(op, u0, SolverConfig(max_iters=200))
        hits += int(fscore(u, p.ground_truth).fscore == 1.0)
    ok = hits >= 95
    assert _verdict(
        acceptance_log, 6, "noiseless recovery",
        ok, f"{hits}/100 seeds recovered the planted matching exactly (need 95)",
    )


def test_07_position_context_beats_geometry_blind_voting(acceptance_log):
    kcfg = KernelConfig(sigma=0.5, mu=3.0)
    refined_scores, spectral_scores = [], []
    for seed in range(20):
        p = twin_prototype_instance(
            16, 10,
            separation=0.8,
            feature_noise_sigma=0.5,
            outlier_fraction=0.3,
            feature_dim=8,
            seed=seed,
        )
        w = build_similarity(p, kcfg)
        a = assert_psd(build_adjacency(p, kcfg)).adjacency
        d = max(p.sizes)
        votes = pairwise_lap_matchings(w)
        baseline = spectral_sync(votes, d)
        op = WbarOperator(vote_similarity(votes), a)
        refined, _ = hippi_solve(op, baseline, SolverConfig(max_iters=200))
        spectral_scores.append(fscore(baseline, p.ground_truth).fscore)
        refined_scores.append(fscore(refined, p.ground_truth).fscore)
    mean_refined = float(np.mean(refined_scores))
    mean_spectral = float(np.mean(spectral_scores))
    ok = mean_refined > mean_spectral
    assert _verdict(
        acceptance_log, 7, "geometric refinement beats geometry-blind voting",
        ok,
        f"mean f-score {mean_refined:.4f} vs spectral {mean_spectral:.4f} "
        f"over 20 seeds",
    )


def test_08_pooled_quadratic_form_inequality(acceptance_log):
    rng = np.random.default_rng(7)
    filtered = 0
    failures = 0
    while filtered < 1000:
        k = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(1, 6, size=k))
        d = max(sizes) + int(rng.integers(0, 2))
        wb = gaussian_psd_matrix(rng, sum(sizes))
        xu = to_dense(random_assignment(rng, sizes, d))
        xv = to_dense(random_assignment(rng, sizes, d))
        cross = xu.T @ wb @ xv
        g = float((cross * cross).sum())
        for first, second in ((xu, xv), (xv, xu)):
            pooled_second = second.T @ wb @ second
            f_second = float((pooled_second * pooled_second).sum())
            if f_second > g:
                continue
            filtered += 1
            pooled_first = first.T @ wb @ first
            f_first = float((pooled_first * pooled_first).sum())
            if g > f_first + RELTOL * max(abs(f_first), 1.0):
                failures += 1
            if filtered == 1000:
                break
    ok = failures == 0
    assert _verdict(
        acceptance_log, 8, "pooled quadratic-form inequality",
        ok, f"{1000 - failures}/1000 filtered triples satisfied the bound",
    )


def test_09_per_iteration_cost_scales_quadratically(acceptance_log):
    ladder = RunConfig(
        command="bench",
        sizes=(500, 1000, 2000, 4000),
        points_per_object=20,
        d=40,
        bench_iters=3,
        seed=0,
    )
    rows = bench_ladder(ladder)
    exponent = fit_scaling_exponent(
        [row["m"] for row in rows],
        [row["seconds_per_iteration"] for row in rows],
    )
    solve_seconds = next(row["solve_seconds"] for row in rows if row["m"] == 1000)
    ok = 1.6 <= exponent <= 2.6 and solve_seconds < 60.0
    assert _verdict(
        acceptance_log, 9, "per-iteration scaling",
        ok,
        f"fitted exponent {exponent:.2f} (want 1.6..2.6), "
        f"m=1000 full solve {solve_seconds:.2f}s (want < 60s)",
    )


def test_10_identical_runs_write_identical_bytes(tmp_path, acceptance_log):
    gen_dir = tmp_path / "gen"
    code = cli.main([
        "generate", "--out", str(gen_dir), "--k", "4", "--d-true", "6",
        "--outlier-fraction", "0.25", "--feature-noise", "0.1",
        "--seed", "9",
    ])
    assert code == cli.EXIT_OK
    problem = gen_dir / "problem.json"
    outputs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        code = cli.main([
            "solve", "--problem", str(problem), "--out", str(run_dir),
            "--seed", "42", "--init", "random",
        ])
        assert code == cli.EXIT_OK
        outputs.append((
            (run_dir / "assignment.json").read_bytes(),
            (run_dir / "trace.csv").read_bytes(),
        ))
    same_assignment = outputs[0][0] == outputs[1][0]
    same_trace = outputs[0][1] == outputs[1][1]
    ok = same_assignment and same_trace
    assert _verdict(
        acceptance_log, 10, "byte-identical reruns",
        ok,
        f"assignment files identical: {same_assignment}, "
        f"trace files identical: {same_trace}",
    )
