"""Ground-truth scoring and cycle-consistency verification.

Matching quality is scored at the pair level: every unordered cross-object
point pair predicted as matching counts once, and it is a true positive
exactly when both points carry the same non-outlier ground-truth label.
Cycle consistency is checked directly on the integer match maps, so all
counts are exact.

A universe assignment is scored in ``O(m log m)`` from counts, without
expanding its ``k^2`` match maps: points match iff they share a slot, so the
predicted pairs are ``sum C(n_s, 2)`` over slot occupancies and the true
positives ``sum C(c, 2)`` over (slot, label) cells of inlier points.  Labels
are only ever compared or compressed, never used as array sizes, so their
magnitude costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``expand`` is unused here but stays bound: perfbench/spans.py times it as
# ``metrics.expand``.
from hippi.core import BlockIndex, PairwiseMatchingSet, UniverseAssignment, expand  # noqa: F401


@dataclass(frozen=True)
class MatchReport:
    """Pair-level precision/recall/f-score plus consistency and runtime."""

    precision: float
    recall: float
    fscore: float
    true_positives: int
    false_positives: int
    false_negatives: int
    cycle_error: float = 0.0
    runtime_seconds: float = 0.0

    def __post_init__(self):
        for name in ("precision", "recall", "fscore", "cycle_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("true_positives", "false_positives", "false_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.runtime_seconds < 0:
            raise ValueError("runtime_seconds must be non-negative")
        denom = self.precision + self.recall
        expected = 2.0 * self.precision * self.recall / denom if denom > 0 else 0.0
        if abs(self.fscore - expected) > 1e-9:
            raise ValueError("fscore does not match 2pr/(p+r)")

    @classmethod
    def from_counts(
        cls, tp: int, fp: int, fn: int, cycle_error: float = 0.0, runtime_seconds: float = 0.0
    ) -> "MatchReport":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        denom = precision + recall
        f = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return cls(
            precision=precision,
            recall=recall,
            fscore=f,
            true_positives=int(tp),
            false_positives=int(fp),
            false_negatives=int(fn),
            cycle_error=cycle_error,
            runtime_seconds=runtime_seconds,
        )


@dataclass(frozen=True)
class CycleReport:
    """Violation entry counts for the three consistency conditions.

    Each constraint instance is counted once: identity per object, symmetry
    per unordered object pair, transitivity per composition ``i -> j -> l``
    with ``i <= l`` (the reversed orientation is the same constraint,
    transposed).
    """

    identity: int
    symmetry: int
    transitivity: int

    @property
    def total(self) -> int:
        return self.identity + self.symmetry + self.transitivity

    @property
    def ok(self) -> bool:
        return self.total == 0


def _compose(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Follow two match maps; any unmatched hop yields -1."""
    out = np.full(first.shape, -1, dtype=np.int64)
    hit = first >= 0
    out[hit] = then[first[hit]]
    return out


def _inverse(mp: np.ndarray, target_size: int) -> np.ndarray:
    inv = np.full(target_size, -1, dtype=np.int64)
    src = np.flatnonzero(mp >= 0)
    inv[mp[src]] = src
    return inv


def verify_cycle_consistency(x: PairwiseMatchingSet) -> CycleReport:
    """Count identity, symmetry and transitivity violations exactly."""
    k = x.k
    sizes = x.index.sizes
    identity = 0
    for i in range(k):
        mp = x.block_map(i, i)
        on_diagonal = mp == np.arange(sizes[i])
        # A row matched elsewhere contributes two wrong entries (the missing
        # diagonal one and the spurious one); an unmatched row just one.
        identity += int(np.sum(~on_diagonal & (mp >= 0)) * 2)
        identity += int(np.sum(~on_diagonal & (mp < 0)))
    symmetry = 0
    for i in range(k):
        for j in range(i, k):
            forward = x.block_map(i, j)
            backward = _inverse(x.block_map(j, i), sizes[i])
            ones_f = int(np.sum(forward >= 0))
            ones_b = int(np.sum(backward >= 0))
            both = int(np.sum((forward >= 0) & (forward == backward)))
            symmetry += ones_f + ones_b - 2 * both
    transitivity = 0
    for i in range(k):
        for l in range(i, k):
            direct = x.block_map(i, l)
            for j in range(k):
                comp = _compose(x.block_map(i, j), x.block_map(j, l))
                transitivity += int(np.sum((comp >= 0) & (comp != direct)))
    return CycleReport(identity=identity, symmetry=symmetry, transitivity=transitivity)


def cycle_error(x: PairwiseMatchingSet) -> float:
    """Fraction of composed three-cycle matches that contradict the direct map.

    Over all ordered triples of distinct objects ``(i, j, l)``, the numerator
    counts composed matches ``i -> j -> l`` that land where the direct block
    has none, and the denominator counts all composed matches.  An input with
    no composed matches scores 0.
    """
    k = x.k
    violations = 0
    total = 0
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            for l in range(k):
                if l == i or l == j:
                    continue
                comp = _compose(x.block_map(i, j), x.block_map(j, l))
                hit = comp >= 0
                total += int(np.sum(hit))
                violations += int(np.sum(hit & (comp != x.block_map(i, l))))
    return violations / total if total > 0 else 0.0


def _as_matching_set(predicted) -> tuple[PairwiseMatchingSet, float]:
    """Normalise a pairwise prediction and compute its cycle error."""
    if isinstance(predicted, PairwiseMatchingSet):
        return predicted, cycle_error(predicted)
    if hasattr(predicted, "to_matching_set"):
        ms = predicted.to_matching_set()
        return ms, cycle_error(ms)
    raise TypeError(f"cannot score a {type(predicted).__name__} as a matching")


def _pairs(counts: np.ndarray) -> int:
    """Unordered pairs within groups of the given sizes: ``sum C(n, 2)``."""
    return int((counts * (counts - 1) // 2).sum())


def _cell_counts(*keys: np.ndarray) -> np.ndarray:
    """Number of points in each distinct combination of the given keys."""
    return np.unique(np.stack(keys), axis=1, return_counts=True)[1]


def _checked_labels(truth, index: BlockIndex) -> list[np.ndarray]:
    labels = [np.asarray(t, dtype=np.int64) for t in truth]
    if len(labels) != index.k or any(t.shape != (s,) for t, s in zip(labels, index.sizes)):
        raise ValueError("ground truth does not match the objects' sizes")
    return labels


def _universe_counts(u: UniverseAssignment, labels: list[np.ndarray]) -> tuple[int, int]:
    """True and false positive pairs of a universe assignment.

    Two points of one object never share a slot, so every pair within a slot
    is a predicted cross-object match, and it is true when both points carry
    the same inlier label.
    """
    predicted = _pairs(np.bincount(u.assignment, minlength=u.d))
    flat = np.concatenate(labels)
    inlier = flat >= 0
    tp = _pairs(_cell_counts(u.assignment[inlier], flat[inlier]))
    return tp, predicted - tp


def _pairwise_counts(ms: PairwiseMatchingSet, labels: list[np.ndarray]) -> tuple[int, int]:
    """True and false positive pairs, one matched pair at a time."""
    tp = fp = 0
    for i, p, j, q in ms.matched_pairs():
        a, b = labels[i][p], labels[j][q]
        if a >= 0 and a == b:
            tp += 1
        else:
            fp += 1
    return tp, fp


def _true_pairs(labels: list[np.ndarray], index: BlockIndex) -> int:
    """Cross-object pairs of inlier points that share a label."""
    flat = np.concatenate(labels)
    owner = np.repeat(np.arange(index.k), index.sizes)
    inlier = flat >= 0
    # Same-object repeats of a label form no pairs, so they are discounted.
    return _pairs(_cell_counts(flat[inlier])) - _pairs(_cell_counts(owner[inlier], flat[inlier]))


def fscore(predicted, truth, runtime_seconds: float = 0.0) -> MatchReport:
    """Score a predicted matching against per-object universe labels.

    ``predicted`` may be a :class:`PairwiseMatchingSet`, a
    :class:`UniverseAssignment`, or anything exposing ``to_matching_set()``.
    ``truth`` holds one integer label array per object; ``-1`` marks outliers,
    which never participate in true pairs.  Universe assignments are
    consistent by construction, so their cycle error is 0 without the cubic
    sweep.
    """
    if truth is None:
        raise ValueError("ground truth labels are required")
    if isinstance(predicted, UniverseAssignment):
        index, consistency = predicted.index, 0.0
        labels = _checked_labels(truth, index)
        tp, fp = _universe_counts(predicted, labels)
    else:
        ms, consistency = _as_matching_set(predicted)
        index = ms.index
        labels = _checked_labels(truth, index)
        tp, fp = _pairwise_counts(ms, labels)
    fn = _true_pairs(labels, index) - tp
    return MatchReport.from_counts(
        tp, fp, fn, cycle_error=consistency, runtime_seconds=runtime_seconds
    )
