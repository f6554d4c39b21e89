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

from .core import AnnotationMatrix
from .jsonl import _rules
from .storage import ExtendedLabel, _Checked

IterationCallback = Callable[[int, list[ExtendedLabel], list[float], list[float]], None]


@dataclass(frozen=True)
class EnsembleConfig(_Checked):
    """Loop guard for the aggregation: the iteration cap."""

    max_iterations: int = 100
    _RULES = _rules(max_iterations="an integer >= 1")


@dataclass
class EnsembleState:
    """Converged (or capped) result of one aggregation run."""

    weights: list[float]
    accuracies: list[float]
    predictions: list[ExtendedLabel]
    iterations_run: int
    converged: bool


def _ballot(counts, items, labels, n_items, n_labels) -> tuple:
    """The weight-free half of ``_vote``: each annotator's vote count, each
    vote's label-major score slot, the items with no vote, and the labels'
    tie ranks, L for label 1 down to 1 for label L. The votes come
    annotator-major, ``counts[i]`` of them from annotator i."""
    slots = (labels.astype(np.intp) - 1) * n_items + items
    ranks = np.arange(n_labels, 0, -1, dtype=np.min_scalar_type(n_labels + 1))[:, None]
    return counts, slots, np.bincount(items, minlength=n_items) == 0, ranks


def _vote(ballot, weights: np.ndarray) -> np.ndarray:
    """Weighted plurality label of each item of ``ballot``, 0 where nobody voted.

    ``np.bincount`` adds the annotators' weights one vote at a time in input
    order. An annotator votes once per item, so each (item, label) score is
    summed in annotator order, as a dense loop would, and exact ties come out
    the same: to the lowest label, the highest ranked of the labels that hold
    the item's top score.
    """
    counts, slots, unvoted, ranks = ballot
    scores = np.bincount(slots, np.repeat(weights, counts), len(ranks) * unvoted.size)
    scores = scores.reshape(len(ranks), -1)
    top = ((scores == scores.max(axis=0)) * ranks).max(axis=0)
    predictions = len(ranks) + 1 - top  # in the labels' small dtype, for a fast compare
    predictions[unvoted] = 0
    return predictions


def weighted_vote(
    matrix: AnnotationMatrix, item: int, weights: Sequence[float]
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
    votes = np.array(matrix.by_item[item], dtype=np.intp).reshape(-1, 2)  # annotators ascending
    counts = np.bincount(votes[:, 0], minlength=matrix.n_annotators)
    ballot = _ballot(counts, 0 * votes[:, 0], votes[:, 1], 1, matrix.schema.n_labels)
    return int(_vote(ballot, np.asarray(weights, dtype=float))[0])


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
    counts, items, labels = matrix._counts, matrix.items, matrix.labels
    predicted = np.asarray(predictions)[items]
    # One sum over each voter's run of votes; reduceat would give an empty run a vote.
    voters = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[voters]
    matches = np.zeros(matrix.n_annotators)
    matches[voters] = np.add.reduceat(labels == predicted, starts, dtype=np.intp)
    observed = counts.astype(float)
    if not predicted.all():  # a caller's 0 on a voted item: the loop never passes one
        observed[voters] -= np.add.reduceat(predicted == 0, starts, dtype=np.intp)
    chance = np.full(matrix.n_annotators, 1.0 / matrix.schema.n_labels)
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
    estimates; the iterative run approximates these. Kept as the baseline
    name that the acceptance suite imports.
    """
    return update_weights(true_accuracies, n_labels)


def majority_vote(matrix: AnnotationMatrix) -> list[ExtendedLabel]:
    """Uniform-weight baseline: every annotator counts 1."""
    ballot = _ballot(matrix._counts, matrix.items, matrix.labels, matrix.n_items,
                     matrix.schema.n_labels)
    return _vote(ballot, np.ones(matrix.n_annotators)).tolist()


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
    ballot = _ballot(matrix._counts, matrix.items, matrix.labels, matrix.n_items, n_labels)
    weights = [1.0] * matrix.n_annotators
    previous_predictions: np.ndarray | None = None
    converged = False
    for iteration in range(1, config.max_iterations + 1):
        predictions = _vote(ballot, np.asarray(weights))
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
