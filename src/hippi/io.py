"""File formats: JSON documents for data, flat CSV for traces and reports.

All JSON is written with sorted keys and a fixed layout so that identical
inputs produce byte-identical files; floats go through Python's shortest
round-trip repr.  Trace CSVs carry only iteration numbers and objective
values, so reruns of the same seeded configuration diff clean; the one wall
time on file is a report's ``runtime_seconds``, which the caller measures.

Every integer field is read by one reader that names the first bad entry.
A pairwise file's matches are checked as whole arrays; the first bad one in
file order is named.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, repeat, zip_longest
from operator import length_hint

import numpy as np

from hippi.core import (
    BlockIndex,
    PairwiseMatchingSet,
    ProblemInstance,
    UniverseAssignment,
    as_integer,
)
from hippi.metrics import MatchReport
from hippi.solver import SolverTrace

PROBLEM_FORMAT = "multimatch-problem"
ASSIGNMENT_FORMAT = "multimatch-assignment"
PAIRWISE_FORMAT = "multimatch-pairwise"
FORMAT_VERSION = 1

REPORT_COLUMNS = (
    "method",
    "k",
    "m",
    "d",
    "iterations",
    "converged",
    "precision",
    "recall",
    "fscore",
    "true_positives",
    "false_positives",
    "false_negatives",
    "cycle_error",
    "runtime_seconds",
)


def _dump(document: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load(path, expected_format: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if document.get("format") != expected_format:
        raise ValueError(
            f"{path}: format {document.get('format')!r}, expected {expected_format!r}"
        )
    if document.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {document.get('version')!r}")
    return document


def _integers(values, row_name) -> np.ndarray:
    """A JSON list of integers as ``int64``; ``row_name(r)`` names entry ``r`` in errors.

    Checked entry by entry, because numpy would turn ``true`` into 1 and
    truncate ``1.7`` to 1 without a word.
    """
    ints = [v if type(v) is int else as_integer(v, row_name(r)) for r, v in enumerate(values)]
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        r = next(r for r, v in enumerate(ints) if not -(2**63) <= v < 2**63)
        raise ValueError(f"{row_name(r)} {ints[r]} does not fit in 64 bits") from None


def _tables(objects, path, name: str) -> tuple[np.ndarray, ...]:
    """One ``float64`` table per object; a ragged one is rejected naming its first odd row."""
    tables = []
    for i, rows in enumerate(objects):
        try:
            tables.append(np.asarray(rows, dtype=np.float64))
        except ValueError as exc:
            odd = [length_hint(row, -1) != length_hint(rows[0], -1) for row in rows]
            why = f"row {odd.index(True)} is not as long as row 0" if any(odd) else exc
            raise ValueError(f"{path}: object {i}: {name}: {why}") from None
    return tuple(tables)


def save_problem(p: ProblemInstance, path) -> None:
    document = {
        "format": PROBLEM_FORMAT,
        "version": FORMAT_VERSION,
        "sizes": list(p.sizes),
        "points": [pts.tolist() for pts in p.points],
        "features": [f.tolist() for f in p.features],
        "ground_truth": (
            None if p.ground_truth is None else [g.tolist() for g in p.ground_truth]
        ),
        "distances": (
            None if p.distances is None else [d.tolist() for d in p.distances]
        ),
        "seed": p.seed,
    }
    _dump(document, path)


def load_problem(path) -> ProblemInstance:
    doc = _load(path, PROBLEM_FORMAT)
    try:
        index = BlockIndex(sizes=tuple(doc["sizes"]))
        points = _tables(doc["points"], path, "points")
        features = _tables(doc["features"], path, "features")
        gt = doc.get("ground_truth")
        if gt is not None:
            gt = tuple(
                _integers(g, lambda r: f"object {i} row {r}: ground-truth label")
                for i, g in enumerate(gt)
            )
        dist = doc.get("distances")
        p = ProblemInstance(
            points=points,
            features=features,
            ground_truth=gt,
            distances=None if dist is None else _tables(dist, path, "distances"),
            seed=doc.get("seed"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed problem document ({exc})") from exc
    check_sizes(path, p.sizes, index.sizes, "sizes says")
    return p


def check_sizes(path, sizes, expected, source: str) -> None:
    """Reject the file ``path`` unless its object ``sizes`` are ``expected``.

    The error names the first object that differs; a missing object counts
    as one of 0 points.  ``source`` says where ``expected`` comes from.
    """
    pairs = list(zip_longest(sizes, expected, fillvalue=0))
    i = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
    if i is not None:
        raise ValueError(f"{path}: object {i} has {pairs[i][0]} points; {source} {pairs[i][1]}")


def save_assignment(u: UniverseAssignment, path) -> None:
    document = {
        "format": ASSIGNMENT_FORMAT,
        "version": FORMAT_VERSION,
        "sizes": list(u.index.sizes),
        "d": u.d,
        "assignment": u.assignment.tolist(),
    }
    _dump(document, path)


def load_assignment(path) -> UniverseAssignment:
    doc = _load(path, ASSIGNMENT_FORMAT)
    try:
        index = BlockIndex(sizes=tuple(doc["sizes"]))

        def row_name(r: int) -> str:
            if r >= index.m:
                return f"assignment entry {r}"
            return f"object {index.owner[r]} row {index.local[r]}: slot"

        return UniverseAssignment(
            assignment=_integers(doc["assignment"], row_name),
            d=doc["d"],
            index=index,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed assignment document ({exc})") from exc


def save_pairwise(x: PairwiseMatchingSet, path) -> None:
    """Store the cross-object matches; diagonals are written as identities."""
    document = {
        "format": PAIRWISE_FORMAT,
        "version": FORMAT_VERSION,
        "sizes": list(x.index.sizes),
        "matches": [list(match) for match in x.matched_pairs()],
    }
    _dump(document, path)


def load_pairwise(path) -> PairwiseMatchingSet:
    """Rebuild a full matching set: mirrored cross blocks, identity diagonal."""
    doc = _load(path, PAIRWISE_FORMAT)
    try:
        index, matches = BlockIndex(sizes=tuple(doc["sizes"])), doc["matches"]
        k, sizes, offsets = index.k, np.array(index.sizes), np.array(index.offsets)
        shaped = np.fromiter(map(isinstance, matches, repeat(list)), bool)
        shaped &= np.fromiter(map(length_hint, matches, repeat(0)), np.int64) == 4
        if not shaped.all():
            e = int(np.argmin(shaped))
            raise ValueError(f"match {e} must be a list of four values, got {matches[e]!r}")
        fields = _integers(chain.from_iterable(matches), lambda r: f"match {r // 4} field {r % 4}")
        i, p, j, q = fields.reshape(-1, 4).T
        bad_pair = (i < 0) | (i >= k) | (j < 0) | (j >= k) | (i == j)
        i, j = i % k, j % k  # wrapped into range; an invalid match fails whatever its cells
        outside = (p < 0) | (p >= sizes[i]) | (q < 0) | (q >= sizes[j])
        # Match e writes q at (offsets[i] + p, j) and p at (offsets[j] + q, i), the flat
        # ``targets`` indices cell[2e] and cell[2e + 1]; a write unlike its cell's first conflicts.
        cell = np.column_stack([(offsets[i] + p) * k + j, (offsets[j] + q) * k + i]).ravel()
        value = np.column_stack([q, p]).ravel()
        _, first, inverse = np.unique(cell, return_index=True, return_inverse=True)
        failed = bad_pair | outside
        failed[np.flatnonzero(value != value[first][inverse]) // 2] = True
        if failed.any():
            e = int(np.argmax(failed))
            why = ("names an invalid object pair" if bad_pair[e]
                   else "names a point outside its object" if outside[e]
                   else "conflicts with an earlier one")
            raise ValueError(f"match {matches[e]} {why}")
        targets = np.full((index.m, k), -1, dtype=np.int64)
        targets[np.arange(index.m), index.owner] = index.local
        np.put(targets, cell, value)
        return PairwiseMatchingSet(targets=targets, index=index)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed pairwise document ({exc})") from exc


def save_trace(trace: SolverTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,objective\n")
        for t, f in enumerate(trace.objectives.tolist()):
            fh.write(f"{t},{f!r}\n")


def load_trace(path) -> np.ndarray:
    """Objective values from a trace CSV, in iteration order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["iteration", "objective"]:
            raise ValueError(f"{path}: not a trace CSV")
        return np.array([float(row["objective"]) for row in reader])


def save_report(
    report: MatchReport,
    path,
    *,
    method: str,
    index: BlockIndex,
    d: int,
    iterations: int,
    converged: bool,
    runtime_seconds: float,
) -> None:
    row = dict(method=method, k=index.k, m=index.m, d=d, iterations=iterations,
               converged=converged, runtime_seconds=runtime_seconds)
    row.update((c, getattr(report, c)) for c in REPORT_COLUMNS if c not in row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerow(row)


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != REPORT_COLUMNS:
            raise ValueError(f"{path}: not a report CSV")
        rows = list(reader)
    if len(rows) != 1:
        raise ValueError(f"{path}: expected exactly one report row")
    return rows[0]
