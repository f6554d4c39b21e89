"""The numpy-free half of the aggregation: the weight-learning loop, and its plain step.

It holds the loop's config and result, the weight rule, the loop itself, and
the numbering of annotation rows into entries that ``core.build_matrix``
shares. ``run_plain`` votes in plain Python, bit for bit as
``aggregate.run_ensemble`` does with numpy; ``labelvote aggregate`` runs it
when ``fits_plain`` says the input is too small to repay loading numpy.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .jsonl import _rules
from .storage import AttributeSchema, ConflictError, ExtendedLabel, _Checked, encode_label

# The plain path's cost grows with the input and the iterations; the numpy
# path's extra start-up, loading numpy and the vectorised modules, is fixed at
# about 110 ms. Per line of about 90 bytes, one annotation, the plain path
# reads about 1.0 µs slower than the column reader, and each iteration votes
# about 0.27 µs slower than the vectorised loop (numpy 2.4, Python 3.11, one
# Xeon core). So the plain path loses at most size / 90 x (1.0 + 0.27 x
# iterations) µs <= size x iterations / 90 x 1.27 µs, which stays under 110 ms
# up to about 7.8 MB x iterations; hence 8 MiB, about break-even at
# --max-iter 1 and far ahead at larger caps, which few runs reach. (At
# 32 MiB x iterations, --max-iter 1 on a 31.6 MB file took 617 ms plain
# against 330 ms.) Extract-mock's 58.8 KB x 100 iterations (5.9 MB) fits;
# hard-crowd's 6.2 MB x 36 (223 MB) and dense-20k's 9.0 MB x 100 (900 MB) do not.
PLAIN_BUDGET = 8 << 20  # bytes x iterations

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


def _fixed_point(step, n_annotators: int, n_labels: int, config: EnsembleConfig | None,
                 on_iteration: IterationCallback | None) -> EnsembleState:
    """``aggregate.run_ensemble``'s loop around ``step(weights)``, which votes and
    returns (predictions, accuracies). The predictions are a typed array, compared
    by their bytes: a list would cost the numpy step a conversion per iteration."""
    if config is None:
        config = EnsembleConfig()
    weights, previous, converged = [1.0] * n_annotators, None, False
    for iteration in range(1, config.max_iterations + 1):
        predictions, accuracies = step(weights)
        weights = update_weights(accuracies, n_labels)
        if on_iteration is not None:
            on_iteration(iteration, predictions.tolist(), accuracies, weights)
        if (current := predictions.tobytes()) == previous:
            converged = True
            break
        previous = current
    return EnsembleState(weights, accuracies, predictions.tolist(), iteration, converged)


def _number_rows(schema: AttributeSchema, rows: Iterable) -> tuple:
    """(annotator ids, item ids, (annotators, items, labels)) of ``rows``: the
    ids in first-appearance order among rows with an in-vocabulary label, and
    one entry per such row, numbered and encoded. See ``core.build_matrix``
    for the rows and the errors."""
    annotator_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    codes: dict[str, ExtendedLabel] = {}
    entries: tuple[list[int], list[int], list[ExtendedLabel]] = ([], [], [])
    annotators, items, labels = entries
    rows = iter(rows)
    for annotator_id, item_id, attribute, raw_label in rows:
        if attribute != schema.attribute_name:
            list(rows)  # read the rest first: see build_matrix
            _cells(schema, tuple(annotator_index), tuple(item_index), entries)
            raise ValueError(
                f"record attribute {attribute!r} does not match "
                f"schema attribute {schema.attribute_name!r}"
            )
        value = codes.get(raw_label)
        if value is None:
            value = codes[raw_label] = encode_label(schema, raw_label)
        if value == 0:
            continue
        annotators.append(annotator_index.setdefault(annotator_id, len(annotator_index)))
        items.append(item_index.setdefault(item_id, len(item_index)))
        labels.append(value)
    return tuple(annotator_index), tuple(item_index), entries


def _cells(schema: AttributeSchema, annotator_ids, item_ids, entries) -> dict[int, ExtendedLabel]:
    """The label of each pair of the entry columns (annotators, items, labels),
    keyed ``annotator * len(item_ids) + item``. Agreeing repeats collapse;
    ConflictError names the first entry that contradicts an earlier one."""
    n_items, cells = len(item_ids), {}
    for annotator, item, label in zip(*entries):
        first = cells.setdefault(annotator * n_items + item, label)
        if first != label:
            raise ConflictError(
                f"conflicting labels for annotator {annotator_ids[annotator]!r} "
                f"on item {item_ids[item]!r}: "
                f"{schema.labels[first - 1]!r} vs {schema.labels[label - 1]!r}"
            )
    return cells


class Votes(NamedTuple):
    """The annotations ``run_plain`` votes on, as ``core.AnnotationMatrix`` holds
    them: its ids, and ``by_item[j]``, item j's (annotator, label) votes with
    annotators ascending."""

    schema: AttributeSchema
    annotator_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    by_item: list[list[tuple[int, ExtendedLabel]]]


def build_votes(schema: AttributeSchema, rows: Iterable) -> Votes:
    """The votes of ``core.build_matrix(schema, rows)``, raising its errors,
    without numpy."""
    annotator_ids, item_ids, entries = _number_rows(schema, rows)
    cells = _cells(schema, annotator_ids, item_ids, entries)
    by_item: list[list[tuple[int, ExtendedLabel]]] = [[] for _ in item_ids]
    for key in sorted(cells):  # annotator-major
        annotator, item = divmod(key, len(item_ids))
        by_item[item].append((annotator, cells[key]))
    return Votes(schema, annotator_ids, item_ids, by_item)


def fits_plain(path, max_iterations: int) -> bool:
    """Whether ``run_plain`` should aggregate the file at ``path``: a regular
    file whose size times ``max_iterations`` is within ``PLAIN_BUDGET``. A pipe
    or any other file of unknown size goes to the numpy path."""
    return os.path.isfile(path) and os.path.getsize(path) * max_iterations <= PLAIN_BUDGET


def run_plain(votes: Votes, config: EnsembleConfig | None = None,
              on_iteration: IterationCallback | None = None) -> EnsembleState:
    """``aggregate.run_ensemble`` of the same annotations in plain Python, bit
    for bit, with the same ``on_iteration``. Each item's score starts at 0.0
    for every label, so a negative weight can pick a label nobody voted for,
    and adds the voters' weights in ascending annotator order, the order in
    which ``np.bincount`` sums them. A tie goes to the lowest label, and an
    item with no vote gets 0. An annotator's accuracy is its matches over its
    votes, all on predicted items; with no vote it is 1/L."""
    n_labels, by_item = votes.schema.n_labels, votes.by_item
    blank = [-math.inf] + [0.0] * n_labels  # indexed by label; slot 0 never wins
    counts = [0] * len(votes.annotator_ids)
    for item_votes in by_item:
        for annotator, _ in item_votes:
            counts[annotator] += 1

    def step(weights):
        predictions, matches = array("q"), [0] * len(counts)
        for item_votes in by_item:
            scores = blank[:]
            for annotator, label in item_votes:
                scores[label] += weights[annotator]
            best = scores.index(max(scores)) if item_votes else 0
            predictions.append(best)
            for annotator, label in item_votes:
                if label == best:
                    matches[annotator] += 1
        return predictions, [m / c if c else 1.0 / n_labels for m, c in zip(matches, counts)]

    return _fixed_point(step, len(counts), n_labels, config, on_iteration)
