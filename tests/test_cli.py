"""End-to-end tests for the command-line interface."""

import argparse
import json
import re
import time

import numpy as np
import pytest

from hippi import cli, io, metrics, solver
from hippi.core import ProblemInstance, UniverseAssignment, expand
from hippi.kernels import WEIGHT_MODES
from hippi.synth import TRANSFORM_FAMILIES

from helpers import random_assignment


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def problem_path(tmp_path):
    out = tmp_path / "gen"
    code = run(["generate", "--out", out, "--k", "3", "--d-true", "6",
                "--outlier-fraction", "0.2", "--seed", "5"])
    assert code == cli.EXIT_OK
    return out / "problem.json"


class TestGenerate:
    def test_writes_loadable_problem(self, problem_path):
        p = io.load_problem(problem_path)
        assert p.k == 3
        assert all(np.sum(g < 0) > 0 for g in p.ground_truth)

    def test_summary_line(self, tmp_path, capsys):
        run(["generate", "--out", tmp_path, "--k", "2", "--d-true", "4", "--seed", "0"])
        text = capsys.readouterr().out
        assert "k=2" in text and "d_true=4" in text

    def test_missing_required_settings_is_data_error(self, tmp_path, capsys):
        assert run(["generate", "--out", tmp_path]) == cli.EXIT_DATA
        assert "'k'" in capsys.readouterr().err

    def test_config_file_supplies_generator(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generate": {"k": 2, "d_true": 5, "seed": 9}}))
        out = tmp_path / "out"
        assert run(["generate", "--config", cfg, "--out", out]) == cli.EXIT_OK
        assert io.load_problem(out / "problem.json").k == 2

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generate": {"k": 2, "d_true": 5, "seed": 9}}))
        out = tmp_path / "out"
        assert run(["generate", "--config", cfg, "--out", out, "--k", "4"]) == cli.EXIT_OK
        assert io.load_problem(out / "problem.json").k == 4

    def test_unseeded_runs_write_identical_bytes(self, tmp_path):
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            assert run(["generate", "--out", out, "--k", "3", "--d-true", "6",
                        "--outlier-fraction", "0.2"]) == cli.EXIT_OK
        assert (outs[0] / "problem.json").read_bytes() == (outs[1] / "problem.json").read_bytes()


class TestSolve:
    def test_writes_assignment_trace_and_report(self, problem_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["solve", "--problem", problem_path, "--out", out, "--seed", "1"])
        assert code == cli.EXIT_OK
        u = io.load_assignment(out / "assignment.json")
        trace = io.load_trace(out / "trace.csv")
        row = io.load_report(out / "report.csv")
        assert u.index.m == io.load_problem(problem_path).m
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert row["method"] == "hippi"
        assert 0.0 <= float(row["fscore"]) <= 1.0
        assert "fscore=" in capsys.readouterr().out

    def test_same_seed_gives_byte_identical_outputs(self, problem_path, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run(["solve", "--problem", problem_path, "--out", out,
                        "--seed", "42"]) == cli.EXIT_OK
        for name in ("assignment.json", "trace.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unseeded_runs_write_what_seed_zero_writes(self, problem_path, tmp_path):
        seeds = {"a": [], "b": [], "zero": ["--seed", "0"]}
        for name, flags in seeds.items():
            assert run(["solve", "--problem", problem_path, "--out", tmp_path / name,
                        *flags]) == cli.EXIT_OK
        for name in ("assignment.json", "trace.csv"):
            written = {(tmp_path / run_name / name).read_bytes() for run_name in seeds}
            assert len(written) == 1

    @pytest.mark.parametrize("method", ["spectral", "random", "greedy"])
    def test_baseline_methods_run(self, problem_path, tmp_path, method):
        out = tmp_path / method
        code = run(["solve", "--problem", problem_path, "--out", out,
                    "--method", method, "--seed", "3"])
        assert code == cli.EXIT_OK
        assert io.load_trace(out / "trace.csv").shape == (1,)
        assert io.load_report(out / "report.csv")["method"] == method

    def test_external_file_method_round_trips(self, problem_path, tmp_path):
        base = tmp_path / "base"
        run(["solve", "--problem", problem_path, "--out", base, "--seed", "1"])
        out = tmp_path / "ext"
        code = run(["solve", "--problem", problem_path, "--out", out,
                    "--method", "external-file",
                    "--assignment", base / "assignment.json"])
        assert code == cli.EXIT_OK
        original = io.load_assignment(base / "assignment.json")
        copied = io.load_assignment(out / "assignment.json")
        assert np.array_equal(original.assignment, copied.assignment)

    def test_external_file_method_reports_the_file_universe_size(
        self, problem_path, tmp_path, capsys
    ):
        base = tmp_path / "base"
        run(["solve", "--problem", problem_path, "--out", base, "--seed", "1", "--d", "30"])
        out = tmp_path / "ext"
        assert run(["solve", "--problem", problem_path, "--out", out, "--d", "3",
                    "--method", "external-file",
                    "--assignment", base / "assignment.json"]) == cli.EXIT_OK
        assert io.load_report(out / "report.csv")["d"] == "30"
        assert capsys.readouterr().out.splitlines()[-2].startswith("method=external-file d=30 ")

    def test_external_assignment_with_other_objects_is_data_error(
        self, problem_path, tmp_path, capsys
    ):
        sizes = io.load_problem(problem_path).sizes
        other = tmp_path / "other.json"
        wider = (sizes[0] + 1, *sizes[1:])
        io.save_assignment(random_assignment(np.random.default_rng(0), wider, 20), other)
        assert run(["solve", "--problem", problem_path, "--out", tmp_path / "x",
                    "--method", "external-file", "--assignment", other]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{other}: object 0 has {wider[0]} points; the problem has {sizes[0]}" in err

    def test_external_file_method_without_path_is_data_error(self, problem_path, tmp_path):
        assert run(["solve", "--problem", problem_path, "--out", tmp_path / "x",
                    "--method", "external-file"]) == cli.EXIT_DATA

    def test_explicit_universe_size(self, problem_path, tmp_path):
        out = tmp_path / "wide"
        code = run(["solve", "--problem", problem_path, "--out", out,
                    "--seed", "1", "--d", "30"])
        assert code == cli.EXIT_OK
        assert io.load_assignment(out / "assignment.json").d == 30

    def test_config_file_merges_with_flag_priority(self, problem_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solver": {"max_iters": 50},
            "kernel": {"sigma": 0.4},
            "run": {"seed": 7, "d": 25},
        }))
        parser = cli.build_parser()
        args = parser.parse_args([
            "solve", "--problem", str(problem_path), "--config", str(cfg),
            "--max-iters", "9",
        ])
        rc = cli.build_run_config(args)
        assert rc.solver.max_iters == 9       # flag beats file
        assert rc.kernel.sigma == 0.4         # file beats default
        assert rc.seed == 7 and rc.d == 25    # run section applies

    def test_unknown_config_key_is_data_error(self, problem_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for doc in (
            {"solver": {"bogus_knob": 1}},
            {"generate": {"k": 2, "d_true": 4, "bogus_knob": 1}},
            {"kernel": {"bogus_knob": 1}},
            {"run": {"bogus_knob": 1}},
        ):
            cfg.write_text(json.dumps(doc))
            assert run(["solve", "--problem", problem_path, "--config", cfg,
                        "--out", tmp_path / "x"]) == cli.EXIT_DATA
            assert "bogus_knob" in capsys.readouterr().err

    def test_missing_problem_file_is_data_error(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "nope.json",
                    "--out", tmp_path]) == cli.EXIT_DATA

    def test_solver_exception_maps_to_exit_3(self, problem_path, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(cli, "hippi_solve", boom)
        assert run(["solve", "--problem", problem_path,
                    "--out", tmp_path / "x"]) == cli.EXIT_SOLVER

    def test_allocation_failure_is_data_error(self, problem_path, tmp_path, monkeypatch, capsys):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")
        monkeypatch.setattr(cli, "random_init", too_large)
        assert run(["solve", "--problem", problem_path, "--d", 2**40,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert "data error: Unable to allocate 8.00 TiB" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_universe_below_the_largest_object_fails_before_the_kernels(
        self, problem_path, tmp_path, monkeypatch, capsys, command
    ):
        def unexpected(*args, **kwargs):
            raise AssertionError("kernels built for a universe that cannot hold the objects")
        monkeypatch.setattr(cli, "build_similarity", unexpected)
        argv = [command, "--d", "3", "--out", tmp_path / "x"]
        if command == "solve":
            argv += ["--problem", problem_path]
        else:
            argv += ["--sizes", "40", "--points-per-object", "4"]
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.search(r"universe size 3 is smaller than the largest object \(\d+\)", err)

    def test_strict_psd_accepts_clean_geometry(self, problem_path, tmp_path):
        assert run(["solve", "--problem", problem_path, "--out", tmp_path / "s",
                    "--seed", "1", "--strict-psd"]) == cli.EXIT_OK

    @pytest.fixture
    def star_path(self, tmp_path):
        """Two 5-point objects whose distances are a star graph's path lengths.

        The centre is 1 from each leaf and the leaves are 2 apart, so at
        ``mu`` = 1 each Gaussian block has smallest eigenvalue -2.7e-2.
        """
        dist = np.full((5, 5), 2.0)
        dist[0, 1:] = dist[1:, 0] = 1.0
        np.fill_diagonal(dist, 0.0)
        angles = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
        points = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        features = np.random.default_rng(0).normal(size=(5, 3))
        path = tmp_path / "star.json"
        io.save_problem(
            ProblemInstance(points=(points, points), features=(features, features),
                            distances=(dist, dist)),
            path,
        )
        return path

    def test_strict_psd_rejects_a_geodesic_star_naming_its_object(
        self, star_path, tmp_path, capsys
    ):
        assert run(["solve", "--problem", star_path, "--out", tmp_path / "s",
                    "--mu", "1", "--strict-psd"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.search(r"object 0: adjacency block is not positive semidefinite "
                         r"\(smallest eigenvalue -2\.69\de-02\)", err)
        assert not (tmp_path / "s").exists()

    def test_plain_solve_repairs_each_block_of_a_geodesic_star_once(
        self, star_path, tmp_path, caplog
    ):
        with caplog.at_level("WARNING", logger="hippi.kernels"):
            assert run(["solve", "--problem", star_path, "--out", tmp_path / "s",
                        "--mu", "1"]) == cli.EXIT_OK
        repairs = [r.getMessage() for r in caplog.records]
        assert len(repairs) == 2 and all("repaired adjacency block" in r for r in repairs)
        assert "block 0" in repairs[0] and "block 1" in repairs[1]

    @pytest.mark.parametrize("field,value", [
        ("features", float("nan")),
        ("points", float("inf")),
    ])
    def test_non_finite_input_is_data_error_naming_object_and_row(
        self, problem_path, tmp_path, capsys, field, value
    ):
        doc = json.loads(problem_path.read_text())
        doc[field][1][2][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["solve", "--problem", bad, "--out", tmp_path / "x",
                    "--seed", "1"]) == cli.EXIT_DATA
        assert f"object 1: {field} row 2 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit, message", [
        pytest.param("points", lambda obj: obj[2].pop(),
                     "{file}: object 1: points: row 2 is not as long as row 0", id="ragged"),
        pytest.param("points", lambda obj: [row.append(0.5) for row in obj],
                     "object 1: ambient dimension 3 is not object 0's", id="ambient-dim"),
        pytest.param("features", lambda obj: [row.pop() for row in obj],
                     "object 1: feature dimension 3 is not object 0's", id="feature-dim"),
        pytest.param("ground_truth", lambda obj: obj.__setitem__(3, -2),
                     "object 1 row 3: ground-truth label -2 < -1", id="label"),
        pytest.param("ground_truth", lambda obj: obj.pop(),
                     "object 1: 7 ground-truth labels, 8 points", id="label-count"),
    ])
    def test_bad_problem_file_is_data_error_naming_object_and_row(
        self, problem_path, tmp_path, capsys, field, edit, message
    ):
        doc = json.loads(problem_path.read_text())
        edit(doc[field][1])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["solve", "--problem", bad, "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert message.format(file=bad) in capsys.readouterr().err

    def test_removed_projection_flag_is_usage_error(self, problem_path, tmp_path):
        for flag, value in (("--projection", "auction"), ("--f-tol", "0")):
            assert run(["solve", "--problem", problem_path, "--out", tmp_path / "x",
                        flag, value]) == cli.EXIT_USAGE

    def test_removed_projection_config_key_is_data_error(self, problem_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for solver in ({"projection_method": "auction"}, {"f_tol": 0.0}):
            cfg.write_text(json.dumps({"solver": solver}))
            assert run(["solve", "--problem", problem_path, "--config", cfg,
                        "--out", tmp_path / "x"]) == cli.EXIT_DATA
            assert "bad SolverConfig settings" in capsys.readouterr().err

    def test_removed_universe_rule_and_full_solve_are_rejected(
        self, problem_path, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        for key, value in (("universe_rule", "max-block"), ("full_solve", True)):
            cfg.write_text(json.dumps({"run": {key: value}}))
            assert run(["solve", "--problem", problem_path, "--config", cfg,
                        "--out", tmp_path / "x"]) == cli.EXIT_DATA
            assert key in capsys.readouterr().err
        assert run(["solve", "--problem", problem_path, "--universe-rule", "max-block",
                    "--out", tmp_path / "x"]) == cli.EXIT_USAGE
        assert run(["bench", "--full", "--out", tmp_path / "x"]) == cli.EXIT_USAGE


class TestEval:
    @pytest.fixture
    def solved(self, problem_path, tmp_path):
        out = tmp_path / "run"
        run(["solve", "--problem", problem_path, "--out", out, "--seed", "1"])
        return out

    def test_scores_assignment(self, problem_path, solved, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(["eval", "--problem", problem_path,
                    "--assignment", solved / "assignment.json", "--out", out])
        assert code == cli.EXIT_OK
        row = io.load_report(out / "report.csv")
        solve_row = io.load_report(solved / "report.csv")
        assert row["fscore"] == solve_row["fscore"]
        assert float(row["cycle_error"]) == 0.0
        assert "fscore=" in capsys.readouterr().out

    def test_scores_pairwise_file(self, problem_path, solved, tmp_path):
        u = io.load_assignment(solved / "assignment.json")
        pairwise_path = tmp_path / "pairwise.json"
        io.save_pairwise(expand(u), pairwise_path)
        out = tmp_path / "eval"
        code = run(["eval", "--problem", problem_path,
                    "--pairwise", pairwise_path, "--out", out])
        assert code == cli.EXIT_OK
        row = io.load_report(out / "report.csv")
        assert row["fscore"] == io.load_report(solved / "report.csv")["fscore"]

    @pytest.mark.parametrize("flag", ["--assignment", "--pairwise"])
    def test_runtime_covers_the_scoring(self, problem_path, solved, tmp_path, monkeypatch, flag):
        def slow_fscore(*args):
            time.sleep(0.2)
            return metrics.fscore(*args)

        prediction = solved / "assignment.json"
        if flag == "--pairwise":
            prediction = tmp_path / "pairwise.json"
            io.save_pairwise(expand(io.load_assignment(solved / "assignment.json")), prediction)
        monkeypatch.setattr(cli, "fscore", slow_fscore)
        out = tmp_path / "eval"
        assert run(["eval", "--problem", problem_path, flag, prediction,
                    "--out", out]) == cli.EXIT_OK
        assert float(io.load_report(out / "report.csv")["runtime_seconds"]) >= 0.2

    def test_requires_a_prediction_argument(self, problem_path, tmp_path):
        assert run(["eval", "--problem", problem_path,
                    "--out", tmp_path]) == cli.EXIT_DATA

    def test_empty_assignment_file_is_data_error(self, problem_path, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert run(["eval", "--problem", problem_path,
                    "--assignment", empty, "--out", tmp_path]) == cli.EXIT_DATA

    def test_pairwise_file_with_other_objects_is_data_error(self, problem_path, tmp_path, capsys):
        sizes = io.load_problem(problem_path).sizes
        other = tmp_path / "two_objects.json"
        io.save_pairwise(expand(random_assignment(np.random.default_rng(0), sizes[:2], 20)), other)
        assert run(["eval", "--problem", problem_path,
                    "--pairwise", other, "--out", tmp_path / "x"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{other}: object 2 has 0 points; the problem has {sizes[2]}" in err

    def test_mismatched_assignment_is_data_error(self, problem_path, tmp_path):
        other = tmp_path / "other"
        run(["generate", "--out", other, "--k", "2", "--d-true", "4", "--seed", "1"])
        run(["solve", "--problem", other / "problem.json", "--out", other / "run",
             "--seed", "1"])
        assert run(["eval", "--problem", problem_path,
                    "--assignment", other / "run" / "assignment.json",
                    "--out", tmp_path]) == cli.EXIT_DATA


def shifted_labels_problem(problem_path, tmp_path, shift=10**12):
    """A copy of the problem file whose inlier labels are all moved up by ``shift``."""
    doc = json.loads(problem_path.read_text())
    doc["ground_truth"] = [[g + shift if g >= 0 else g for g in t] for t in doc["ground_truth"]]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    return path


class TestLargeLabels:
    def test_solve_scores_shifted_labels_like_the_originals(self, problem_path, tmp_path):
        shifted = shifted_labels_problem(problem_path, tmp_path)
        for name, path in (("plain", problem_path), ("shifted", shifted)):
            assert run(["solve", "--problem", path, "--out", tmp_path / name,
                        "--seed", "1"]) == cli.EXIT_OK
        plain = io.load_report(tmp_path / "plain" / "report.csv")
        moved = io.load_report(tmp_path / "shifted" / "report.csv")
        for key in ("true_positives", "false_positives", "false_negatives", "fscore"):
            assert moved[key] == plain[key]

    def test_eval_scores_shifted_labels_like_the_originals(self, problem_path, tmp_path):
        shifted = shifted_labels_problem(problem_path, tmp_path)
        run(["solve", "--problem", problem_path, "--out", tmp_path / "run", "--seed", "1"])
        assignment = tmp_path / "run" / "assignment.json"
        for name, path in (("plain", problem_path), ("shifted", shifted)):
            assert run(["eval", "--problem", path, "--assignment", assignment,
                        "--out", tmp_path / name]) == cli.EXIT_OK
        plain = io.load_report(tmp_path / "plain" / "report.csv")
        moved = io.load_report(tmp_path / "shifted" / "report.csv")
        for key in ("true_positives", "false_positives", "false_negatives", "fscore"):
            assert moved[key] == plain[key]


def resaved_with_universe_size(path, d, tmp_path):
    """The assignment file at ``path`` saved again, naming a universe of ``d`` slots."""
    u = io.load_assignment(path)
    out = tmp_path / f"assignment_d{d}.json"
    io.save_assignment(UniverseAssignment(u.assignment, d=d, index=u.index), out)
    return out


class TestHugeUniverse:
    """Nothing that reads an assignment allocates by its universe size ``d``."""

    @pytest.mark.parametrize("d", [2**20, 2**40])
    def test_eval_verify_and_external_solve_print_what_the_file_at_its_own_d_prints(
        self, problem_path, tmp_path, capsys, d
    ):
        run(["solve", "--problem", problem_path, "--out", tmp_path / "run", "--seed", "1"])
        own = tmp_path / "run" / "assignment.json"
        huge = resaved_with_universe_size(own, d, tmp_path)

        def printed(path):
            capsys.readouterr()
            assert run(["eval", "--problem", problem_path, "--assignment", path,
                        "--out", tmp_path / "eval"]) == cli.EXIT_OK
            assert run(["verify", "--assignment", path]) == cli.EXIT_OK
            assert run(["solve", "--problem", problem_path, "--method", "external-file",
                        "--assignment", path, "--out", tmp_path / "ext"]) == cli.EXIT_OK
            report = io.load_report(tmp_path / "ext" / "report.csv")
            del report["runtime_seconds"]
            return capsys.readouterr().out, report

        (text, report), (huge_text, huge_report) = printed(own), printed(huge)
        own_d = io.load_assignment(own).d
        assert huge_text.replace(f" d={d} ", " d=? ") == text.replace(f" d={own_d} ", " d=? ")
        assert huge_report == {**report, "d": str(d)}
        assert "precision=" in text and "consistent" in text and "objective=" in text

    @pytest.mark.parametrize("flags", [["--init", "greedy"], ["--method", "spectral"]])
    def test_greedy_and_spectral_solve_in_a_universe_of_2_40_slots(
        self, problem_path, tmp_path, flags
    ):
        out = tmp_path / "huge"
        assert run(["solve", "--problem", problem_path, *flags, "--d", 2**40,
                    "--out", out]) == cli.EXIT_OK
        u = io.load_assignment(out / "assignment.json")
        assert u.d == 2**40 and u.index == io.load_problem(problem_path).index

    def test_random_start_solves_in_a_universe_of_2_40_slots(self, problem_path, tmp_path):
        out = tmp_path / "huge"
        assert run(["solve", "--problem", problem_path, "--init", "random", "--d", 2**40,
                    "--seed", "0", "--out", out]) == cli.EXIT_OK
        u = io.load_assignment(out / "assignment.json")
        assert u.d == 2**40 and u.index == io.load_problem(problem_path).index


class TestVerify:
    def test_consistent_assignment_exits_zero(self, problem_path, tmp_path, capsys):
        out = tmp_path / "run"
        run(["solve", "--problem", problem_path, "--out", out, "--seed", "1"])
        assert run(["verify", "--assignment", out / "assignment.json"]) == cli.EXIT_OK
        assert "consistent" in capsys.readouterr().out

    def test_inconsistent_pairwise_exits_two(self, tmp_path, capsys):
        # 0-0 matched across objects 0->1 and 1->2, but 0->2 says 0-1: broken triangle.
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2, 2],
            "matches": [[0, 0, 1, 0], [1, 0, 2, 0], [0, 0, 2, 1]],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "--pairwise", path]) == cli.EXIT_DATA
        assert "inconsistent" in capsys.readouterr().out

    def test_requires_input(self):
        assert run(["verify"]) == cli.EXIT_DATA

    @pytest.mark.parametrize("entry", [[0, 1, 1], 3])
    def test_match_that_is_not_four_values_exits_two_naming_it(self, tmp_path, capsys, entry):
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 1, 0], entry],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "--pairwise", path]) == cli.EXIT_DATA
        assert f"match 1 must be a list of four values, got {entry!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["pairwise", "assignment"])
    def test_one_composition_sweep_gives_every_count(
        self, problem_path, tmp_path, capsys, monkeypatch, source
    ):
        out = tmp_path / "run"
        run(["solve", "--problem", problem_path, "--out", out, "--seed", "1"])
        path = out / "assignment.json"
        if source == "pairwise":
            path = out / "pairwise.json"
            io.save_pairwise(expand(io.load_assignment(out / "assignment.json")), path)
        sweeps = []
        three_hops = metrics._three_hops
        monkeypatch.setattr(metrics, "_three_hops", lambda x: sweeps.append(x) or three_hops(x))
        capsys.readouterr()
        assert run(["verify", f"--{source}", path]) == cli.EXIT_OK
        assert len(sweeps) == 1
        assert capsys.readouterr().out.splitlines() == [
            "identity=0 symmetry=0 transitivity=0 cycle_error=0.0",
            "consistent",
        ]


class TestSavedMatching:
    """``eval``, ``verify`` and ``solve --method external-file`` read one matching file."""

    @pytest.fixture
    def files(self, problem_path, tmp_path):
        out = tmp_path / "run"
        run(["solve", "--problem", problem_path, "--out", out, "--seed", "1"])
        io.save_pairwise(expand(io.load_assignment(out / "assignment.json")), out / "pw.json")
        return out / "assignment.json", out / "pw.json"

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_an_assignment_and_a_pairwise_file_are_a_data_error(
        self, problem_path, tmp_path, capsys, files, command
    ):
        argv = [command, "--assignment", files[0], "--pairwise", files[1], "--out", tmp_path / "x"]
        if command == "eval":
            argv += ["--problem", problem_path]
        assert run(argv) == cli.EXIT_DATA
        message = f"{command} needs exactly one of --assignment and --pairwise"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("with_assignment, message", [
        (False, "method external-file reads --assignment, not a pairwise file"),
        (True, "solve needs exactly one of --assignment and --pairwise"),
    ])
    def test_external_file_rejects_a_pairwise_file_from_the_config(
        self, problem_path, tmp_path, capsys, files, with_assignment, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"pairwise": str(files[1])}}))
        argv = ["solve", "--problem", problem_path, "--config", cfg,
                "--method", "external-file", "--out", tmp_path / "x"]
        if with_assignment:
            argv += ["--assignment", files[0]]
        assert run(argv) == cli.EXIT_DATA
        assert message in capsys.readouterr().err


class TestBench:
    def test_ladder_writes_csv_and_exponent(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run(["bench", "--sizes", "40,80", "--points-per-object", "4",
                    "--d", "6", "--iters", "1", "--seed", "0", "--out", out])
        assert code == cli.EXIT_OK
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("m,k,d,seconds_per_iteration")
        assert len(lines) == 3
        assert "fitted exponent=" in capsys.readouterr().out

    def test_full_solve_column(self, tmp_path):
        out = tmp_path / "bench"
        code = run(["bench", "--sizes", "40,80", "--points-per-object", "4",
                    "--d", "6", "--iters", "1", "--seed", "0", "--out", out])
        assert code == cli.EXIT_OK
        header, *rows = (out / "bench.csv").read_text().splitlines()
        assert header.split(",")[-2:] == ["solve_seconds", "iterations"]
        assert len(rows) == 2 and all(int(row.split(",")[-1]) >= 1 for row in rows)

    @pytest.mark.filterwarnings("error")
    def test_no_exponent_from_one_distinct_size(self, tmp_path, capsys):
        """Two rungs of one size leave the slope undetermined, so none is fitted."""
        code = run(["bench", "--sizes", "40,40", "--points-per-object", "4",
                    "--iters", "1", "--out", tmp_path])
        assert code == cli.EXIT_OK
        assert len((tmp_path / "bench.csv").read_text().splitlines()) == 3
        assert "fitted exponent" not in capsys.readouterr().out

    def test_ladder_times_one_apply_and_projection_per_step(self, monkeypatch):
        """Per rung: one warm-up apply, an apply and a projection per timed step,
        whether or not the iterate repeats, then the solve's own work."""
        counts = {"applies": 0, "projections": 0}
        apply, project = solver.WbarOperator.times_assignment, solver.project_to_universe

        def counting_apply(self, u):
            counts["applies"] += 1
            return apply(self, u)

        def counting_project(*args, **kwargs):
            counts["projections"] += 1
            return project(*args, **kwargs)

        monkeypatch.setattr(solver.WbarOperator, "times_assignment", counting_apply)
        monkeypatch.setattr(solver, "project_to_universe", counting_project)
        iters = 5
        rows = cli.bench_ladder(cli.RunConfig(
            command="bench", sizes=(40, 80), points_per_object=4, bench_iters=iters))
        assert rows[0]["iterations"] <= iters  # rung 40 repeats inside the timed steps
        assert counts == {
            "applies": sum(1 + iters + row["iterations"] - 1 for row in rows),
            "projections": sum(iters + row["iterations"] - 1 for row in rows),
        }

    def test_indivisible_sizes_are_data_errors(self, tmp_path):
        assert run(["bench", "--sizes", "41", "--points-per-object", "4",
                    "--out", tmp_path]) == cli.EXIT_DATA

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--iters", "0"], "bench_iters must be >= 1"),
            (["--iters", "-1"], "bench_iters must be >= 1"),
            (["--sizes", ","], "sizes must be a non-empty list"),
            (["--sizes", "40,0"], "sizes must be a non-empty list"),
            (["--points-per-object", "0"], "points_per_object must be >= 1"),
            (["--d", "3"], r"universe size 3 is smaller than the largest object \(4\)"),
            (["--d", "0"], r"universe size 0 is smaller than the largest object \(4\)"),
        ],
        ids=["iters-zero", "iters-negative", "sizes-empty", "sizes-zero", "points-zero",
             "d-too-small", "d-zero"],
    )
    def test_bad_settings_are_data_errors_naming_the_setting(
        self, tmp_path, capsys, flags, message
    ):
        argv = ["bench", "--sizes", "40", "--points-per-object", "4", "--d", "6",
                "--iters", "1", "--seed", "0", "--out", tmp_path]
        assert run(argv + flags) == cli.EXIT_DATA
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "bench.csv").exists()

    def test_fit_scaling_exponent_recovers_power_law(self):
        ms = np.array([100, 200, 400, 800])
        secs = 3e-6 * ms.astype(float) ** 2.17
        assert cli.fit_scaling_exponent(ms, secs) == pytest.approx(2.17, abs=1e-9)


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run(["solve", "--bogus"]) == cli.EXIT_USAGE

    def test_unknown_command(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_problem(self):
        assert run(["solve"]) == cli.EXIT_USAGE

    def test_bad_method_choice(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "p.json",
                    "--method", "sorcery"]) == cli.EXIT_USAGE

    def test_bad_sizes_list(self):
        assert run(["bench", "--sizes", "40,eighty"]) == cli.EXIT_USAGE

    def test_bad_method_in_config_file_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"method": "sorcery"}}))
        p = tmp_path / "p.json"
        p.write_text("{}")
        assert run(["solve", "--problem", p, "--config", cfg]) == cli.EXIT_DATA


# Every flag that overrides a config field: command, flag and its value, config
# section, field, value in the file, value after the flag.
MERGE_CASES = [
    ("generate", ["--k", "4"], "generate", "k", 2, 4),
    ("generate", ["--d-true", "6"], "generate", "d_true", 5, 6),
    ("generate", ["--visibility", "0.5"], "generate", "visibility", 0.9, 0.5),
    ("generate", ["--coord-noise", "0.2"], "generate", "coord_noise_sigma", 0.1, 0.2),
    ("generate", ["--feature-noise", "0.2"], "generate", "feature_noise_sigma", 0.1, 0.2),
    ("generate", ["--outlier-fraction", "0.3"], "generate", "outlier_fraction", 0.1, 0.3),
    ("generate", ["--occlusion", "0.1", "0.2", "0.3", "0.4"], "generate", "occlusion_rect",
     [0.0, 0.0, 0.5, 0.5], (0.1, 0.2, 0.3, 0.4)),
    ("generate", ["--transform", "none"], "generate", "transform_family", "similarity", "none"),
    ("generate", ["--feature-dim", "7"], "generate", "feature_dim", 3, 7),
    ("generate", ["--prototypes", "3"], "generate", "feature_prototypes", 2, 3),
    ("generate", ["--seed", "8"], "generate", "seed", 9, 8),
    ("solve", ["--sigma", "0.3"], "kernel", "sigma", 0.7, 0.3),
    ("solve", ["--mu", "0.3"], "kernel", "mu", 0.7, 0.3),
    ("solve", ["--weight-mode", "intra-ratio"], "kernel", "weight_mode", "constant",
     "intra-ratio"),
    ("solve", ["--max-iters", "9"], "solver", "max_iters", 50, 9),
    ("solve", ["--d", "30"], "run", "d", 25, 30),
    ("solve", ["--method", "greedy"], "run", "method", "spectral", "greedy"),
    ("solve", ["--init", "greedy"], "run", "init", "random", "greedy"),
    ("solve", ["--strict-psd"], "run", "strict_psd", False, True),
    ("solve", ["--assignment", "b.json"], "run", "assignment", "a.json", "b.json"),
    ("bench", ["--sizes", "40,80"], "run", "sizes", [20], (40, 80)),
    ("bench", ["--points-per-object", "4"], "run", "points_per_object", 5, 4),
    ("bench", ["--iters", "2"], "run", "bench_iters", 7, 2),
]


@pytest.mark.parametrize(
    "command, dest, owner",
    [
        ("generate", "transform_family", TRANSFORM_FAMILIES),
        ("solve", "init", cli.INIT_METHODS),
        ("solve", "weight_mode", WEIGHT_MODES),
    ],
)
def test_choice_lists_are_the_owning_modules_tuples(command, dest, owner):
    commands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    action = next(a for a in commands.choices[command]._actions if a.dest == dest)
    assert tuple(action.choices) == owner


@pytest.mark.parametrize(
    "command, flag, section, name, in_file, expected",
    MERGE_CASES,
    ids=[f"{case[0]} {case[1][0]}" for case in MERGE_CASES],
)
def test_flag_overrides_the_config_field_of_the_same_name(
    tmp_path, command, flag, section, name, in_file, expected
):
    doc = {"generate": {"k": 2, "d_true": 5}} if command == "generate" else {}
    doc.setdefault(section, {})[name] = in_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg)]
    if command == "solve":
        argv += ["--problem", "p.json"]

    def field_of(extra):
        rc = cli.build_run_config(cli.build_parser().parse_args(argv + extra))
        owner = {"run": rc, "generate": rc.generator, "kernel": rc.kernel, "solver": rc.solver}
        return getattr(owner[section], name)

    assert field_of([]) == (tuple(in_file) if isinstance(in_file, list) else in_file)
    assert field_of(flag) == expected


@pytest.mark.parametrize("argv, name", [
    (["solve", "--problem", "p.json"], "strict_psd"),
])
def test_absent_switch_keeps_the_config_file_value(tmp_path, argv, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": {name: True}}))
    rc = cli.build_run_config(cli.build_parser().parse_args(argv + ["--config", str(cfg)]))
    assert getattr(rc, name) is True


class TestIntegerFields:
    """A fractional or boolean value in an integer field, or a boolean or
    non-finite value in a float field, is a data error naming where it sits,
    never a silent truncation."""

    @pytest.fixture
    def assignment_doc(self, problem_path, tmp_path):
        run(["solve", "--problem", problem_path, "--out", tmp_path / "run", "--seed", "1"])
        return json.loads((tmp_path / "run" / "assignment.json").read_text())

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("value", [2.9, True])
    def test_object_size(self, assignment_doc, tmp_path, capsys, value):
        assignment_doc["sizes"][1] = value
        bad = self.write(tmp_path, assignment_doc)
        assert run(["verify", "--assignment", bad]) == cli.EXIT_DATA
        assert f"object 1: size must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3.5, True])
    def test_universe_size(self, problem_path, assignment_doc, tmp_path, capsys, value):
        assignment_doc["d"] = value
        bad = self.write(tmp_path, assignment_doc)
        assert run(["eval", "--problem", problem_path, "--assignment", bad,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert f"universe size d must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.7, True])
    def test_assignment_slot(self, problem_path, assignment_doc, tmp_path, capsys, value):
        sizes = assignment_doc["sizes"]
        assignment_doc["assignment"][sizes[0] + 1] = value
        bad = self.write(tmp_path, assignment_doc)
        assert run(["eval", "--problem", problem_path, "--assignment", bad,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"object 1 row 1: slot must be an integer, got {value!r}" in err

    def test_assignment_slot_beyond_64_bits(self, problem_path, assignment_doc, tmp_path, capsys):
        assignment_doc["assignment"][1] = 2**63
        bad = self.write(tmp_path, assignment_doc)
        assert run(["eval", "--problem", problem_path, "--assignment", bad,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert f"object 0 row 1: slot {2**63} does not fit in 64 bits" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.9, False])
    def test_ground_truth_label(self, problem_path, tmp_path, capsys, value):
        doc = json.loads(problem_path.read_text())
        doc["ground_truth"][2][3] = value
        bad = self.write(tmp_path, doc)
        assert run(["solve", "--problem", bad, "--out", tmp_path / "x",
                    "--seed", "1"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"object 2 row 3: ground-truth label must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("command, doc, message", [
        ("generate", {"generate": {"k": 2.5, "d_true": 4}}, "k must be an integer, got 2.5"),
        ("solve", {"run": {"seed": 1.5}}, "seed must be an integer, got 1.5"),
        ("solve", {"run": {"d": 12.7}}, "d must be an integer, got 12.7"),
        ("solve", {"solver": {"max_iters": 2.5}}, "max_iters must be an integer, got 2.5"),
        ("solve", {"solver": {"max_iters": True}}, "max_iters must be an integer, got True"),
        ("bench", {"run": {"sizes": [40, 80.5]}}, "sizes[1] must be an integer, got 80.5"),
        ("solve", {"kernel": {"sigma": True}}, "sigma must be a finite number, got True"),
        ("solve", {"kernel": {"mu": float("inf")}}, "mu must be a finite number, got inf"),
        ("solve", {"kernel": {"sigma": 1e200}},
         "sigma must be positive with 0 < 2 sigma^2 < inf, got 1e+200"),
        ("generate", {"generate": {"k": 2, "d_true": 4, "visibility": True}},
         "visibility must be a finite number, got True"),
    ], ids=["generate-k", "run-seed", "run-d", "solver-max-iters",
            "solver-max-iters-bool", "run-sizes", "kernel-sigma-bool", "kernel-mu-inf",
            "kernel-sigma-overflow", "generate-visibility-bool"])
    def test_config_file_field(self, problem_path, tmp_path, capsys, command, doc, message):
        argv = [command, "--config", self.write(tmp_path, doc), "--out", tmp_path / "x"]
        if command == "solve":
            argv += ["--problem", problem_path]
        assert run(argv) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", "1e155", "sigma must be positive with 0 < 2 sigma^2 < inf, got 1e+155"),
        ("--sigma", "1e-170", "sigma must be positive with 0 < 2 sigma^2 < inf, got 1e-170"),
        ("--mu", "5e-324", "adjacency scale is 0 (mu=5e-324, sigma_A="),
    ], ids=["sigma-overflow", "sigma-underflow", "mu-underflow"])
    def test_kernel_scale_that_overflows_or_vanishes(
        self, problem_path, tmp_path, capsys, flag, value, message
    ):
        assert run(["solve", "--problem", problem_path, flag, value,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err

    def test_non_finite_flag_value(self, problem_path, tmp_path, capsys):
        assert run(["solve", "--problem", problem_path, "--sigma", "inf",
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert "sigma must be a finite number, got inf" in capsys.readouterr().err

    def test_integral_floats_in_the_config_file_are_accepted(self, problem_path, tmp_path):
        doc = {"run": {"d": 30.0, "seed": 1.0}, "solver": {"max_iters": 5.0}}
        out = tmp_path / "x"
        assert run(["solve", "--problem", problem_path, "--config", self.write(tmp_path, doc),
                    "--out", out]) == cli.EXIT_OK
        assert io.load_assignment(out / "assignment.json").d == 30

    @pytest.mark.parametrize("value", [0.5, True])
    def test_pairwise_match_field(self, tmp_path, capsys, value):
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 1, 0], [0, value, 1, 1]],
        }
        bad = self.write(tmp_path, doc)
        assert run(["verify", "--pairwise", bad]) == cli.EXIT_DATA
        assert f"match 1 field 1 must be an integer, got {value!r}" in capsys.readouterr().err
