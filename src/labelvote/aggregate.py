"""Iterative weighted majority voting with per-annotator weight learning.

The aggregation loop alternates three steps until the consensus stops
moving: vote on every item with the current weights, estimate each
annotator's accuracy against the consensus, and map accuracies to new
weights with weight = L * accuracy - 1 (L being the vocabulary size).
The rule zeroes out annotators at chance level (accuracy 1/L), gives
perfect annotators the maximal weight L - 1, and leaves consistently
wrong annotators with negative weight so their votes count as evidence
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import AnnotationMatrix, ExtendedLabel

TIE_BREAK_RULES = ("lowest-index", "highest-index")

IterationCallback = Callable[[int, list[ExtendedLabel], list[float], list[float]], None]


@dataclass(frozen=True)
class EnsembleConfig:
    """Loop guard for the aggregation: iteration cap and tie-break rule."""

    max_iterations: int = 100
    tie_break: str = "lowest-index"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tie_break not in TIE_BREAK_RULES:
            raise ValueError(
                f"unknown tie_break {self.tie_break!r}, expected one of {TIE_BREAK_RULES}"
            )


@dataclass
class EnsembleState:
    """Converged (or capped) result of one aggregation run."""

    weights: list[float]
    accuracies: list[float]
    predictions: list[ExtendedLabel]
    iterations_run: int
    converged: bool


def _vote(items, labels, voter_weights, n_items, n_labels, tie_break) -> np.ndarray:
    """Weighted plurality label of items 0..n_items-1, 0 where nobody voted.

    The votes come item-major with annotators ascending inside each item,
    ``voter_weights`` holding each vote's annotator weight. ``np.bincount``
    adds weights one at a time in input order, so each (item, label)
    score is summed in annotator order, as a dense loop would, and exact
    ties come out the same.
    """
    scores = np.bincount(
        items * n_labels + labels - 1, weights=voter_weights, minlength=n_items * n_labels
    ).reshape(n_items, n_labels)
    if tie_break == "highest-index":
        predictions = n_labels - scores[:, ::-1].argmax(axis=1)
    else:
        predictions = scores.argmax(axis=1) + 1
    predictions[np.bincount(items, minlength=n_items) == 0] = 0
    return predictions


def weighted_vote(
    matrix: AnnotationMatrix,
    item: int,
    weights: Sequence[float],
    tie_break: str = "lowest-index",
) -> ExtendedLabel:
    """Weighted plurality label for one item.

    Each observed vote adds its annotator's weight to the voted label's
    score; every label in 1..L competes, including labels nobody voted
    for (score 0), which matters when weights go negative. Returns 0 when
    the item has no observed votes at all.
    """
    if len(weights) != matrix.n_annotators:
        raise ValueError(
            f"got {len(weights)} weights for {matrix.n_annotators} annotators"
        )
    if not 0 <= item < matrix.n_items:
        raise ValueError(f"item index {item} out of range 0..{matrix.n_items - 1}")
    lo, hi = np.searchsorted(matrix.items, [item, item + 1])
    voter_weights = np.asarray(weights, dtype=float)[matrix.annotators[lo:hi]]
    votes = (matrix.items[lo:hi] - item, matrix.labels[lo:hi], voter_weights)
    return int(_vote(*votes, 1, matrix.schema.n_labels, tie_break)[0])


def estimate_accuracies(
    matrix: AnnotationMatrix, predictions: Sequence[ExtendedLabel]
) -> list[float]:
    """Per-annotator agreement rate with the current predictions.

    Items whose prediction is 0 (no votes) are excluded from both the
    numerator and the denominator. An annotator with no countable
    observations gets the chance level 1/L, which the weight rule maps
    to exactly 0.
    """
    if len(predictions) != matrix.n_items:
        raise ValueError(
            f"got {len(predictions)} predictions for {matrix.n_items} items"
        )
    predicted = np.asarray(predictions, dtype=np.intp)[matrix.items]
    n = matrix.n_annotators
    observed = np.bincount(matrix.annotators[predicted != 0], minlength=n)
    matches = np.bincount(matrix.annotators[matrix.labels == predicted], minlength=n)
    chance = np.full(n, 1.0 / matrix.schema.n_labels)
    return np.divide(matches, observed, out=chance, where=observed > 0).tolist()


def update_weights(accuracies: Sequence[float], n_labels: int) -> list[float]:
    """Map accuracies to vote weights: v = L * accuracy - 1, elementwise."""
    if n_labels < 2:
        raise ValueError("n_labels must be >= 2")
    for a in accuracies:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"accuracy {a} outside [0, 1]")
    return [n_labels * a - 1.0 for a in accuracies]


def oracle_weights(true_accuracies: Sequence[float], n_labels: int) -> list[float]:
    """Idealized weights from known annotator accuracies.

    Same rule as :func:`update_weights` but fed true accuracies instead of
    estimates; the iterative run approximates these.
    """
    return update_weights(true_accuracies, n_labels)


def majority_vote(
    matrix: AnnotationMatrix, tie_break: str = "lowest-index"
) -> list[ExtendedLabel]:
    """Uniform-weight baseline: every annotator counts 1."""
    votes = (matrix.items, matrix.labels, np.ones(matrix.observed_count))
    return _vote(*votes, matrix.n_items, matrix.schema.n_labels, tie_break).tolist()


def run_ensemble(
    matrix: AnnotationMatrix,
    config: EnsembleConfig | None = None,
    on_iteration: IterationCallback | None = None,
) -> EnsembleState:
    """Run the full aggregation loop to a fixed point (or the iteration cap).

    Weights start uniform at 1, so iteration 1's predictions are exactly
    the plain majority vote. Convergence means: this iteration's
    predictions equal the previous iteration's. The weights recomputed
    from repeated predictions are bitwise identical to the last ones, so
    the returned state is self-consistent: predictions == the weighted
    vote under the returned weights.

    ``on_iteration`` (if given) is called after each iteration with
    (iteration number, predictions, accuracies, updated weights); handy
    for instrumentation and convergence traces.

    Deterministic: identical matrix and config produce an identical state.
    """
    if config is None:
        config = EnsembleConfig()
    if matrix.observed_count == 0:
        raise ValueError("annotation matrix has no observed entries")
    n_labels = matrix.schema.n_labels
    weights = [1.0] * matrix.n_annotators
    previous_predictions: np.ndarray | None = None
    converged = False
    for iteration in range(1, config.max_iterations + 1):
        votes = (matrix.items, matrix.labels, np.asarray(weights)[matrix.annotators])
        predictions = _vote(*votes, matrix.n_items, n_labels, config.tie_break)
        accuracies = estimate_accuracies(matrix, predictions)
        weights = update_weights(accuracies, n_labels)
        if on_iteration is not None:
            on_iteration(iteration, predictions.tolist(), accuracies, weights)
        if previous_predictions is not None and np.array_equal(
            predictions, previous_predictions
        ):
            converged = True
            break
        previous_predictions = predictions
    return EnsembleState(
        weights=weights,
        accuracies=accuracies,
        predictions=predictions.tolist(),
        iterations_run=iteration,
        converged=converged,
    )
