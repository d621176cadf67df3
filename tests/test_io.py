"""Round-trip and byte-determinism tests for the file formats."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hippi import io
from hippi.core import BlockIndex, UniverseAssignment, ProblemInstance, expand
from hippi.metrics import MatchReport
from hippi.solver import SolverTrace
from hippi.synth import GenConfig, generate

from helpers import block_map, loop_load_pairwise, match_count, pack_maps, random_assignment


@pytest.fixture
def problem():
    return generate(
        GenConfig(
            k=3,
            d_true=6,
            visibility=0.8,
            coord_noise_sigma=0.02,
            feature_noise_sigma=0.1,
            outlier_fraction=0.2,
            feature_dim=3,
            seed=11,
        )
    )


def assert_problems_equal(a, b):
    assert a.sizes == b.sizes
    for x, y in zip(a.points, b.points):
        assert np.array_equal(x, y)
    for x, y in zip(a.features, b.features):
        assert np.array_equal(x, y)
    if a.ground_truth is None:
        assert b.ground_truth is None
    else:
        for x, y in zip(a.ground_truth, b.ground_truth):
            assert np.array_equal(x, y)
    if a.distances is None:
        assert b.distances is None
    else:
        for x, y in zip(a.distances, b.distances):
            assert np.array_equal(x, y)
    assert a.seed == b.seed


class TestProblemFiles:
    def test_round_trip_is_identity(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        assert_problems_equal(problem, io.load_problem(path))

    def test_round_trip_without_truth_or_seed(self, tmp_path):
        rng = np.random.default_rng(3)
        bare = ProblemInstance(
            points=(rng.random((4, 2)), rng.random((3, 2))),
            features=(rng.random((4, 5)), rng.random((3, 5))),
        )
        path = tmp_path / "bare.json"
        io.save_problem(bare, path)
        loaded = io.load_problem(path)
        assert_problems_equal(bare, loaded)
        assert loaded.ground_truth is None and loaded.seed is None

    def test_round_trip_with_custom_distances(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.random((5, 2))
        gram = rng.random((5, 5))
        dist = gram + gram.T
        np.fill_diagonal(dist, 0.0)
        p = ProblemInstance(
            points=(pts,), features=(rng.random((5, 2)),), distances=(dist,)
        )
        path = tmp_path / "d.json"
        io.save_problem(p, path)
        loaded = io.load_problem(path)
        assert np.array_equal(loaded.distances[0], dist)

    def test_repeated_saves_are_byte_identical(self, problem, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        io.save_problem(problem, first)
        io.save_problem(problem, second)
        assert first.read_bytes() == second.read_bytes()

    def test_wrong_format_rejected(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        with pytest.raises(ValueError, match="format"):
            io.load_assignment(path)

    def test_wrong_version_rejected(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            io.load_problem(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="JSON object"):
            io.load_problem(path)

    def test_missing_field_rejected(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        doc = json.loads(path.read_text())
        del doc["features"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed"):
            io.load_problem(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ValueError):
            io.load_problem(path)

    @staticmethod
    def with_sizes(problem, tmp_path, sizes):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        doc = json.loads(path.read_text())
        doc["sizes"] = sizes
        path.write_text(json.dumps(doc))
        return path

    def test_sizes_disagreeing_with_the_points_rejected(self, problem, tmp_path):
        sizes = list(problem.sizes)
        sizes[2] = 99
        path = self.with_sizes(problem, tmp_path, sizes)
        message = f"object 2 has {problem.sizes[2]} points; sizes says 99"
        with pytest.raises(ValueError, match=message):
            io.load_problem(path)

    def test_sizes_listing_another_object_count_rejected(self, problem, tmp_path):
        *head, last = problem.sizes
        path = self.with_sizes(problem, tmp_path, [*problem.sizes, 5])
        with pytest.raises(ValueError, match=f"object {problem.k} has 0 points; sizes says 5"):
            io.load_problem(path)
        path = self.with_sizes(problem, tmp_path, head)
        with pytest.raises(ValueError, match=f"object {len(head)} has {last} points; sizes says 0"):
            io.load_problem(path)

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_non_integer_size_rejected_naming_the_object(self, problem, tmp_path, value):
        sizes = list(problem.sizes)
        sizes[1] = value
        path = self.with_sizes(problem, tmp_path, sizes)
        with pytest.raises(ValueError, match=f"object 1: size must be an integer, got {value!r}"):
            io.load_problem(path)

    def test_integral_float_size_accepted(self, problem, tmp_path):
        path = self.with_sizes(problem, tmp_path, [float(s) for s in problem.sizes])
        assert io.load_problem(path).sizes == problem.sizes

    @pytest.mark.parametrize("value, message", [
        ("not a seed", "seed must be an integer, got 'not a seed'"),
        (2.5, "seed must be an integer, got 2.5"),
        (-1, "seed must be >= 0, got -1"),
    ], ids=["not-an-integer", "fractional", "negative"])
    def test_bad_seed_rejected_naming_it(self, problem, tmp_path, value, message):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        doc = json.loads(path.read_text())
        doc["seed"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{message}$"):
            io.load_problem(path)

    def test_missing_sizes_rejected_as_malformed(self, problem, tmp_path):
        path = tmp_path / "problem.json"
        io.save_problem(problem, path)
        doc = json.loads(path.read_text())
        del doc["sizes"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed problem document"):
            io.load_problem(path)


class TestAssignmentFiles:
    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        u = random_assignment(rng, (4, 2, 5), d=6)
        path = tmp_path / "u.json"
        io.save_assignment(u, path)
        loaded = io.load_assignment(path)
        assert loaded.d == u.d
        assert loaded.index == u.index
        assert np.array_equal(loaded.assignment, u.assignment)

    def test_repeated_saves_are_byte_identical(self, tmp_path):
        u = random_assignment(np.random.default_rng(8), (3, 3), d=4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        io.save_assignment(u, a)
        io.save_assignment(u, b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_stored_assignment_rejected(self, tmp_path):
        u = random_assignment(np.random.default_rng(9), (3, 2), d=4)
        path = tmp_path / "u.json"
        io.save_assignment(u, path)
        doc = json.loads(path.read_text())
        doc["assignment"][0] = doc["assignment"][1]  # duplicate column in block 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            io.load_assignment(path)

    @pytest.mark.parametrize(
        "row,name", [(0, "object 0 row 0: slot"), (4, "object 1 row 1: slot"),
                     (8, "object 2 row 2: slot"), (9, "assignment entry 9")]
    )
    def test_bad_slot_named_by_object_and_row(self, tmp_path, row, name):
        u = random_assignment(np.random.default_rng(10), (3, 3, 3), d=4)
        path = tmp_path / "u.json"
        io.save_assignment(u, path)
        doc = json.loads(path.read_text())
        doc["assignment"].append(0)  # one entry too many, so row 9 exists
        doc["assignment"][row] = 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.5"):
            io.load_assignment(path)


class TestPairwiseFiles:
    def test_round_trip_of_expanded_assignment(self, tmp_path):
        u = random_assignment(np.random.default_rng(10), (4, 3, 2), d=5)
        x = expand(u)
        path = tmp_path / "x.json"
        io.save_pairwise(x, path)
        assert io.load_pairwise(path) == x

    def test_round_trip_preserves_partial_matches(self, tmp_path):
        index = BlockIndex(sizes=(2, 3))
        ab = np.array([1, -1], dtype=np.int64)  # one unmatched point
        ba = np.array([-1, 0, -1], dtype=np.int64)
        x = pack_maps(((np.arange(2), ab), (ba, np.arange(3))), index)
        path = tmp_path / "partial.json"
        io.save_pairwise(x, path)
        loaded = io.load_pairwise(path)
        assert loaded == x
        assert match_count(loaded) == 1

    def test_conflicting_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 1, 0], [0, 0, 1, 1]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="conflict"):
            io.load_pairwise(path)

    def test_entry_conflicting_only_through_the_reverse_map_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 1, 0], [0, 1, 1, 0]],  # two points of object 0 claim point 0
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"match \[0, 1, 1, 0\] conflicts"):
            io.load_pairwise(path)

    def test_duplicate_consistent_entry_allowed(self, tmp_path):
        path = tmp_path / "dup.json"
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 1, 1], [0, 0, 1, 1]],
        }
        path.write_text(json.dumps(doc))
        x = io.load_pairwise(path)
        assert block_map(x, 0, 1)[0] == 1 and block_map(x, 1, 0)[1] == 0

    def test_diagonal_entry_rejected(self, tmp_path):
        path = tmp_path / "diag.json"
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 0, 1]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="invalid object pair"):
            io.load_pairwise(path)

    def test_out_of_range_point_rejected(self, tmp_path):
        path = tmp_path / "oob.json"
        cases = (
            ([2, 2], [[0, 5, 1, 0]]),
            ([3, 3], [[0, -1, 1, 0]]),  # -1 would wrap round to the last point
            ([3, 3], [[0, 0, 1, -2]]),
            ([3, 3], [[0, -1, 1, 0], [0, 0, 1, -2]]),
        )
        for sizes, matches in cases:
            doc = {
                "format": io.PAIRWISE_FORMAT,
                "version": io.FORMAT_VERSION,
                "sizes": sizes,
                "matches": matches,
            }
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="outside its object"):
                io.load_pairwise(path)

    @pytest.mark.parametrize("entry", [[0, 0, 1], [0, 0, 1, 0, 1], 7, "0011", None])
    def test_entry_that_is_not_four_values_rejected_naming_it(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        doc = {
            "format": io.PAIRWISE_FORMAT,
            "version": io.FORMAT_VERSION,
            "sizes": [2, 2],
            "matches": [[0, 0, 1, 0], entry, [0, 1, 1, 1]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^match 1 must be a list of four values, got"):
            io.load_pairwise(path)


@st.composite
def pairwise_documents(draw):
    """A pairwise document: a valid match list, or one with a few bad fields.

    A valid list is a random subset of a consistent expansion, each match in
    either orientation, some repeated, in random order.  Corruptions are
    either integers anywhere (invalid pairs, points outside their object,
    conflicts) or values that are not integers in otherwise valid entries, so
    the first bad entry is the same whichever check meets it first.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = expand(random_assignment(rng, sizes, max(sizes) + draw(st.integers(0, 2))))
    entries = [
        [i, p, j, q] if rng.random() < 0.5 else [j, q, i, p]
        for i, p, j, q in x.matched_pairs()
        if rng.random() < 0.8
    ]
    if entries:
        entries += [list(entries[r]) for r in rng.integers(len(entries), size=rng.integers(3))]
    rng.shuffle(entries)
    mode = draw(st.sampled_from(["valid", "integers", "types"]))
    for _ in range(draw(st.integers(1, 3)) if entries and mode != "valid" else 0):
        e, f = int(rng.integers(len(entries))), int(rng.integers(4))
        v = entries[e][f]
        if type(v) is not int:
            continue  # already corrupted
        if mode == "integers" and f % 2 and draw(st.booleans()):
            # Another point of the same object: a likely conflict.
            obj = entries[e][f - 1]
            entries[e][f] = draw(st.integers(0, sizes[obj] - 1)) if 0 <= obj < len(sizes) else v
        elif mode == "integers":
            entries[e][f] = draw(st.integers(-2, max(len(sizes), *sizes) + 1))
        else:
            entries[e][f] = draw(st.sampled_from([float(v), v + 0.5, True, False, None, str(v)]))
    return {
        "format": io.PAIRWISE_FORMAT,
        "version": io.FORMAT_VERSION,
        "sizes": sizes,
        "matches": entries,
    }


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairwise_documents())
def test_whole_array_loader_agrees_with_the_per_match_loop(tmp_path, doc):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    try:
        expected = loop_load_pairwise(json.loads(path.read_text()))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            io.load_pairwise(path)
        assert str(got.value) == str(exc)
    else:
        assert io.load_pairwise(path) == expected


class TestTraceFiles:
    def test_round_trip_is_exact(self, tmp_path):
        objectives = np.array([1.0, 2.5, 2.5 + 1e-12, np.pi * 1e6])
        trace = SolverTrace(objectives=objectives, converged=True)
        path = tmp_path / "trace.csv"
        io.save_trace(trace, path)
        assert np.array_equal(io.load_trace(path), objectives)

    def test_no_wall_time_column(self, tmp_path):
        trace = SolverTrace(objectives=np.array([3.0]), converged=False)
        path = tmp_path / "trace.csv"
        io.save_trace(trace, path)
        header = path.read_text().splitlines()[0]
        assert header == "iteration,objective"
        assert path.read_text().splitlines() == [header, "0,3.0"]

    def test_iteration_numbers_start_at_zero(self, tmp_path):
        trace = SolverTrace(objectives=np.array([1.0, 4.0]), converged=True)
        path = tmp_path / "trace.csv"
        io.save_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("0,") and lines[2].startswith("1,")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,value\n0,1.0\n")
        with pytest.raises(ValueError, match="trace"):
            io.load_trace(path)


class TestReportFiles:
    def test_round_trip_values(self, tmp_path):
        report = MatchReport(8, 2, 4, cycle_error=0.125)
        path = tmp_path / "report.csv"
        io.save_report(
            report,
            path,
            method="hippi",
            index=BlockIndex(sizes=(3, 4)),
            d=5,
            iterations=7,
            converged=True,
            runtime_seconds=1.5,
        )
        row = io.load_report(path)
        assert row["method"] == "hippi"
        assert (int(row["k"]), int(row["m"]), int(row["d"])) == (2, 7, 5)
        assert int(row["iterations"]) == 7
        assert row["converged"] == "True"
        assert float(row["precision"]) == report.precision
        assert float(row["recall"]) == report.recall
        assert float(row["fscore"]) == report.fscore
        assert int(row["true_positives"]) == 8
        assert float(row["cycle_error"]) == 0.125
        assert float(row["runtime_seconds"]) == 1.5

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="report"):
            io.load_report(path)

    def test_multiple_rows_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        header = ",".join(io.REPORT_COLUMNS)
        row = ",".join(["x"] + ["0"] * (len(io.REPORT_COLUMNS) - 1))
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(ValueError, match="one report row"):
            io.load_report(path)
