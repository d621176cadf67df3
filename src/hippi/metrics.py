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

    @property
    def total(self) -> int:
        return self.identity + self.symmetry + self.transitivity

    @property
    def ok(self) -> bool:
        return self.total == 0


def _padded_maps(x: PairwiseMatchingSet) -> np.ndarray:
    """All ``k^2`` maps stacked as one ``(k, k, n_max + 1)`` array.

    Entries past an object's size and the whole last column hold -1, so
    indexing a map with an unmatched ``-1`` lands on -1 again: composing
    through a missing hop needs no mask.
    """
    k, n = x.k, max(x.index.sizes)
    maps = np.full((k, k, n + 1), -1, dtype=np.int64)
    for i, row in enumerate(x.maps):
        for j, mp in enumerate(row):
            maps[i, j, : mp.size] = mp
    return maps


def _three_hops(maps: np.ndarray, sizes: tuple[int, ...]):
    """Per source object ``i``: ``(i, comp, direct)``, all compositions at once.

    ``comp[j, l, p]`` is where point ``p`` of object ``i`` lands by way of
    object ``j`` in object ``l`` (or -1), and ``direct[l, p]`` is its direct
    match in ``l``.  Each yield holds ``k^2 m_i`` entries, about the size of
    the input's maps from ``i``.
    """
    k, width = maps.shape[0], maps.shape[2]
    flat = maps.reshape(-1)
    # Flat offset of map (j, l): composing is one ``take`` per source object.
    base = (np.arange(k)[:, None] * k + np.arange(k)[None, :]) * width
    for i, n in enumerate(sizes):
        direct = maps[i, :, :n]
        comp = flat.take(base[:, :, None] + (direct % width)[:, None, :])
        yield i, comp, direct


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
    maps = _padded_maps(x)
    width = maps.shape[2]
    ones = (maps >= 0).sum(axis=2)
    # Entry (i, j, p) agrees with its mirror when map (j, i) sends p's match
    # back to p; -1 entries never agree, as the sentinel is never a point.
    back = maps[np.arange(k)[None, :, None], np.arange(k)[:, None, None], maps % width]
    both = ((maps >= 0) & (back == np.arange(width))).sum(axis=2)
    upper = np.triu(np.ones((k, k), dtype=bool))
    symmetry = int((ones + ones.T - 2 * both)[upper].sum())
    transitivity = 0
    for i, comp, direct in _three_hops(maps, sizes):
        # Compositions i -> j -> l with l >= i, through every j.
        transitivity += int(np.sum((comp[:, i:] >= 0) & (comp[:, i:] != direct[i:])))
    return CycleReport(identity=identity, symmetry=symmetry, transitivity=transitivity)


def cycle_error(x: PairwiseMatchingSet) -> float:
    """Fraction of composed three-cycle matches that contradict the direct map.

    Over all ordered triples of distinct objects ``(i, j, l)``, the numerator
    counts composed matches ``i -> j -> l`` that land where the direct block
    has none, and the denominator counts all composed matches.  An input with
    no composed matches scores 0.
    """
    k = x.k
    j, l = np.arange(k)[:, None], np.arange(k)[None, :]
    violations = 0
    total = 0
    for i, comp, direct in _three_hops(_padded_maps(x), x.index.sizes):
        distinct = (j != i) & (l != i) & (j != l)
        hit = (comp >= 0) & distinct[:, :, None]
        total += int(hit.sum())
        violations += int(np.sum(hit & (comp != direct)))
    return violations / total if total > 0 else 0.0


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
        index, consistency = predicted.index, cycle_error(predicted)
        labels = _checked_labels(truth, index)
        tp, fp = _pairwise_counts(predicted, labels)
    else:
        raise TypeError(f"cannot score a {type(predicted).__name__} as a matching")
    fn = _true_pairs(labels, index) - tp
    return MatchReport.from_counts(
        tp, fp, fn, cycle_error=consistency, runtime_seconds=runtime_seconds
    )
