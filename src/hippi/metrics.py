"""Ground-truth scoring and cycle-consistency verification.

Matching quality is scored at the pair level: every unordered cross-object
point pair predicted as matching counts once, and it is a true positive
exactly when both points carry the same non-outlier ground-truth label.
Cycle consistency is checked directly on the integer ``m x k`` targets of
a :class:`PairwiseMatchingSet`, so all counts are exact.  A composition
``i -> j -> l`` is one gather: a point's target in ``j`` is a global row of
the same array, and one appended row of -1 stands for a missing hop.  One
sweep over these compositions counts both the transitivity violations and
the three-cycle matches behind ``cycle_error``.

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
from hippi.core import (  # noqa: F401
    BlockIndex,
    PairwiseMatchingSet,
    UniverseAssignment,
    expand,
)


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
    composed: int = 0
    contradicted: int = 0

    @property
    def total(self) -> int:
        return self.identity + self.symmetry + self.transitivity

    @property
    def ok(self) -> bool:
        return self.total == 0

    @property
    def cycle_error(self) -> float:
        """Share of composed three-cycle matches ``i -> j -> l`` that map ``(i, l)`` lacks."""
        return self.contradicted / self.composed if self.composed > 0 else 0.0


def _three_hops(x: PairwiseMatchingSet):
    """Per source object ``i``: ``(i, comp, direct)``, all compositions at once.

    ``comp[p, j, l]`` is where point ``p`` of object ``i`` lands by way of
    object ``j`` in object ``l`` (or -1), and ``direct[p, l]`` is its direct
    match in ``l``.  Each yield holds ``m_i k^2`` entries, about the size of
    the input's maps from ``i``.
    """
    idx, t = x.index, x.targets
    # Row ``m`` is all -1, so a missing first hop lands on -1 again: composing
    # through it needs no mask.
    padded = np.vstack([t, np.full((1, idx.k), -1, dtype=np.int64)])
    hop = np.where(t >= 0, np.array(idx.offsets[:-1]) + t, idx.m)
    for i in range(idx.k):
        rows = idx.slice_of(i)
        yield i, padded[hop[rows]], t[rows]


def verify_cycle_consistency(x: PairwiseMatchingSet) -> CycleReport:
    """Count consistency violations and three-cycle matches exactly, in one sweep."""
    idx, t = x.index, x.targets
    diagonal = t[np.arange(idx.m), idx.owner]
    wrong = diagonal != idx.local
    # A row matched elsewhere contributes two wrong entries (the missing
    # diagonal one and the spurious one); an unmatched row just one.
    identity = int(np.sum(wrong & (diagonal >= 0)) * 2 + np.sum(wrong & (diagonal < 0)))
    # Per map (i, j): its matches, and those that map (j, i) sends straight back.
    starts = idx.offsets[:-1]
    ones = np.add.reduceat(t >= 0, starts, axis=0, dtype=np.int64)
    both = np.add.reduceat(x.mirrored(), starts, axis=0, dtype=np.int64)
    symmetry = int(np.triu(ones + ones.T - 2 * both).sum())
    transitivity = composed = contradicted = 0
    j, l = np.arange(idx.k)[:, None], np.arange(idx.k)[None, :]
    for i, comp, direct in _three_hops(x):
        hit = comp >= 0
        bad = hit & (comp != direct[:, None, :])
        # Compositions i -> j -> l with l >= i, through every j.
        transitivity += int(np.count_nonzero(bad[:, :, i:]))
        distinct = (j != i) & (l != i) & (j != l)
        composed += int(np.count_nonzero(hit & distinct))
        contradicted += int(np.count_nonzero(bad & distinct))
    return CycleReport(identity, symmetry, transitivity, composed, contradicted)


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
    """True and false positive pairs among the cross-object matches, each counted once."""
    g, _, h = ms.global_matches(upper=True)
    flat = np.concatenate(labels)
    a, b = flat[g], flat[h]
    tp = int(np.sum((a >= 0) & (a == b)))
    return tp, g.size - tp


def _true_pairs(labels: list[np.ndarray], index: BlockIndex) -> int:
    """Cross-object pairs of inlier points that share a label."""
    flat = np.concatenate(labels)
    owner = index.owner
    inlier = flat >= 0
    # Same-object repeats of a label form no pairs, so they are discounted.
    return _pairs(_cell_counts(flat[inlier])) - _pairs(_cell_counts(owner[inlier], flat[inlier]))


def fscore(predicted, truth, runtime_seconds: float = 0.0) -> MatchReport:
    """Score a predicted matching against per-object universe labels.

    ``predicted`` is a :class:`UniverseAssignment` or a
    :class:`PairwiseMatchingSet`; anything else raises ``TypeError``.
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
    elif isinstance(predicted, PairwiseMatchingSet):
        index, consistency = predicted.index, verify_cycle_consistency(predicted).cycle_error
        labels = _checked_labels(truth, index)
        tp, fp = _pairwise_counts(predicted, labels)
    else:
        raise TypeError(f"cannot score a {type(predicted).__name__} as a matching")
    fn = _true_pairs(labels, index) - tp
    return MatchReport.from_counts(
        tp, fp, fn, cycle_error=consistency, runtime_seconds=runtime_seconds
    )
