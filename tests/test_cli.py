"""End-to-end tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from hippi import cli, io
from hippi.core import expand


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

    def test_missing_required_settings_is_data_error(self, tmp_path):
        assert run(["generate", "--out", tmp_path]) == cli.EXIT_DATA

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
                    "--external", base / "assignment.json"])
        assert code == cli.EXIT_OK
        original = io.load_assignment(base / "assignment.json")
        copied = io.load_assignment(out / "assignment.json")
        assert np.array_equal(original.assignment, copied.assignment)

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

    def test_unknown_config_key_is_data_error(self, problem_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"bogus_knob": 1}}))
        assert run(["solve", "--problem", problem_path, "--config", cfg,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA

    def test_missing_problem_file_is_data_error(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "nope.json",
                    "--out", tmp_path]) == cli.EXIT_DATA

    def test_solver_exception_maps_to_exit_3(self, problem_path, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(cli, "hippi_solve", boom)
        assert run(["solve", "--problem", problem_path,
                    "--out", tmp_path / "x"]) == cli.EXIT_SOLVER

    def test_strict_psd_accepts_clean_geometry(self, problem_path, tmp_path):
        assert run(["solve", "--problem", problem_path, "--out", tmp_path / "s",
                    "--seed", "1", "--strict-psd"]) == cli.EXIT_OK

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

    def test_removed_projection_flag_is_usage_error(self, problem_path, tmp_path):
        assert run(["solve", "--problem", problem_path, "--out", tmp_path / "x",
                    "--projection", "auction"]) == cli.EXIT_USAGE

    def test_removed_projection_config_key_is_data_error(self, problem_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"projection_method": "auction"}}))
        assert run(["solve", "--problem", problem_path, "--config", cfg,
                    "--out", tmp_path / "x"]) == cli.EXIT_DATA
        assert "bad SolverConfig settings" in capsys.readouterr().err


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

    def test_requires_a_prediction_argument(self, problem_path, tmp_path):
        assert run(["eval", "--problem", problem_path,
                    "--out", tmp_path]) == cli.EXIT_DATA

    def test_empty_assignment_file_is_data_error(self, problem_path, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert run(["eval", "--problem", problem_path,
                    "--assignment", empty, "--out", tmp_path]) == cli.EXIT_DATA

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
        code = run(["bench", "--sizes", "40", "--points-per-object", "4",
                    "--d", "6", "--iters", "1", "--seed", "0", "--full", "--out", out])
        assert code == cli.EXIT_OK
        header = (out / "bench.csv").read_text().splitlines()[0]
        assert "solve_seconds" in header and "iterations" in header

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
        ],
        ids=["iters-zero", "iters-negative", "sizes-empty", "sizes-zero", "points-zero",
             "d-too-small"],
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
