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
forming its ``k^2`` match maps: points match iff they share a slot, so the
predicted pairs are ``sum C(n_s, 2)`` over the occupancies of the occupied
slots, read off :attr:`~hippi.core.UniverseAssignment.slot_runs`, and the
true positives ``sum C(c, 2)`` over (slot, label) cells of inlier points.
Slots and labels are only ever compared or compressed, never used as array
sizes, so neither the universe size ``d`` nor a label's magnitude costs
anything or changes a count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hippi.core import PairwiseMatchingSet, UniverseAssignment, ground_truth_labels, integer_fields


@dataclass(frozen=True)
class MatchReport:
    """Pair-level match counts plus cycle consistency.

    Precision, recall and f-score are derived from the counts, so they cannot
    disagree with them; a ratio with a zero denominator reads 0.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    cycle_error: float = 0.0

    def __post_init__(self):
        counts = ("true_positives", "false_positives", "false_negatives")
        integer_fields(self, counts)
        for name in counts:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.cycle_error <= 1.0:
            raise ValueError(f"cycle_error must be in [0, 1], got {self.cycle_error}")

    @property
    def precision(self) -> float:
        tp, fp = self.true_positives, self.false_positives
        return tp / (tp + fp) if tp + fp > 0 else 0.0

    @property
    def recall(self) -> float:
        tp, fn = self.true_positives, self.false_negatives
        return tp / (tp + fn) if tp + fn > 0 else 0.0

    @property
    def fscore(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


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


def _universe_counts(u: UniverseAssignment, flat: np.ndarray) -> tuple[int, int]:
    """True and false positive pairs of a universe assignment, given each point's label.

    Two points of one object never share a slot, so every pair within a slot
    is a predicted cross-object match, and it is true when both points carry
    the same inlier label.
    """
    predicted = _pairs(np.diff(u.slot_runs[1], append=u.m))
    inlier = flat >= 0
    tp = _pairs(_cell_counts(u.assignment[inlier], flat[inlier]))
    return tp, predicted - tp


def _pairwise_counts(ms: PairwiseMatchingSet, flat: np.ndarray) -> tuple[int, int]:
    """True and false positive pairs among the cross-object matches, each counted once."""
    g, _, h = ms.global_matches(upper=True)
    a, b = flat[g], flat[h]
    tp = int(np.sum((a >= 0) & (a == b)))
    return tp, g.size - tp


def _true_pairs(flat: np.ndarray, owner: np.ndarray) -> int:
    """Cross-object pairs of inlier points that share a label."""
    inlier = flat >= 0
    # Same-object repeats of a label form no pairs, so they are discounted.
    return _pairs(_cell_counts(flat[inlier])) - _pairs(_cell_counts(owner[inlier], flat[inlier]))


def fscore(predicted, truth) -> MatchReport:
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
    if not isinstance(predicted, (UniverseAssignment, PairwiseMatchingSet)):
        raise TypeError(f"cannot score a {type(predicted).__name__} as a matching")
    flat = np.concatenate(ground_truth_labels(truth, predicted.index.sizes))
    if isinstance(predicted, UniverseAssignment):
        consistency, (tp, fp) = 0.0, _universe_counts(predicted, flat)
    else:
        consistency = verify_cycle_consistency(predicted).cycle_error
        tp, fp = _pairwise_counts(predicted, flat)
    fn = _true_pairs(flat, predicted.index.owner) - tp
    return MatchReport(tp, fp, fn, cycle_error=consistency)
