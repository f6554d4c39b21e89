"""Independent expectations for the files labelvote writes.

Everything here is computed from the workload definition alone, without
importing labelvote, so it can judge the program's output:

- ``simulate`` replays the documented simulation stream (docs/formats.md,
  "Simulation randomness") as a dense N x P matrix, 0 meaning missing.
- ``ensemble`` is a numpy transcription of ``tests/reference.py``: votes
  are summed per item in ascending annotator order and ties go to the
  lowest label index, so its floats are bit-identical to the reference.
  ``derive_digests.py`` checks that claim against the reference itself.
- The ``*_digest`` helpers render the exact bytes the writers in
  ``labelvote.storage`` produce and return their sha256.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring as quote  # json.dumps(str, ensure_ascii=False)

import numpy as np


def simulate(seed: int, n_items: int, accuracies, missing_rates, n_labels: int):
    """Return (truth, rows): truth[j] in 1..L, rows[i, j] in 0..L."""
    truth = np.random.default_rng([seed, 0]).integers(1, n_labels + 1, size=n_items)
    n = len(accuracies)
    rng = np.random.default_rng([seed, 1])
    miss_draw = rng.random((n, n_items))
    correct_draw = rng.random((n, n_items))
    offset = rng.integers(1, n_labels, size=(n, n_items))
    wrong = ((truth[None, :] - 1 + offset) % n_labels) + 1
    labels = np.where(
        correct_draw < np.asarray(accuracies, dtype=float)[:, None], truth[None, :], wrong
    )
    observed = miss_draw >= np.asarray(missing_rates, dtype=float)[:, None]
    return truth, np.where(observed, labels, 0).astype(np.int8)


def first_appearance(rows):
    """Annotator and item orders ``build_matrix`` assigns to an annotator-major file.

    Only annotators and items with at least one in-vocabulary label are
    registered; items are ordered by the first annotator that labels them,
    then by position.
    """
    observed = rows > 0
    annotators = np.flatnonzero(observed.any(axis=1))
    labeled = observed.any(axis=0)
    first = np.where(labeled, observed.argmax(axis=0), rows.shape[0])
    items = np.lexsort((np.arange(rows.shape[1]), first))[: int(labeled.sum())]
    return annotators, items


@dataclass
class EnsembleResult:
    predictions: np.ndarray  # per column of the input, 0 where nobody voted
    weights: list[float]
    accuracies: list[float]
    iterations_run: int
    converged: bool


def ensemble(rows, n_labels: int, max_iterations: int = 100, weight_tolerance: float = 1e-6):
    """Iterative weighted majority vote over dense rows, as tests/reference.py runs it."""
    n, p = rows.shape
    votes = [np.flatnonzero(rows[i]) for i in range(n)]
    codes = [rows[i, votes[i]].astype(np.int64) - 1 for i in range(n)]
    has_vote = (rows > 0).any(axis=0)
    weights = [1.0] * n
    previous = None
    predictions = np.zeros(p, dtype=np.int64)
    accuracies: list[float] = []
    iterations_run = 0
    converged = False
    for iteration in range(1, max_iterations + 1):
        scores = np.zeros((p, n_labels))
        for i in range(n):
            # Each item appears once per annotator, so this adds weights[i]
            # to every voted cell in ascending annotator order.
            scores[votes[i], codes[i]] += weights[i]
        predictions = np.where(has_vote, scores.argmax(axis=1) + 1, 0)
        accuracies = []
        for i in range(n):
            predicted = predictions[votes[i]]
            counted = predicted != 0
            observed = int(counted.sum())
            matches = int((predicted[counted] == codes[i][counted] + 1).sum())
            accuracies.append(matches / observed if observed else 1.0 / n_labels)
        new_weights = [n_labels * a - 1.0 for a in accuracies]
        delta = max(abs(new - old) for new, old in zip(new_weights, weights))
        iterations_run = iteration
        stable = (
            previous is not None
            and np.array_equal(predictions, previous)
            and delta < weight_tolerance
        )
        weights = new_weights
        if stable:
            converged = True
            break
        previous = predictions
    return EnsembleResult(predictions, weights, accuracies, iterations_run, converged)


def annotations_digest(rows, worker_ids, item_ids, labels, attribute: str) -> str:
    """Digest of simulate's annotations file: observed cells, annotator-major."""
    items = [quote(x) for x in item_ids]
    names = [None] + [quote(label) for label in labels]
    tail = f', "attribute": {quote(attribute)}, "raw_label": '
    h = hashlib.sha256()
    for worker_id, row in zip(worker_ids, rows):
        head = f'{{"annotator_id": {quote(worker_id)}, "item_id": '
        values = row.tolist()
        h.update(
            "".join(
                f"{head}{items[j]}{tail}{names[values[j]]}}}\n"
                for j in np.flatnonzero(row).tolist()
            ).encode("utf-8")
        )
    return h.hexdigest()


def predictions_digest(item_ids, values, labels, attribute: str) -> str:
    """Digest of a predictions/truth JSONL file; value 0 is written as null."""
    head = '{"item_id": '
    tail = f', "attribute": {quote(attribute)}, "label": '
    names = ["null"] + [quote(label) for label in labels]
    text = "".join(
        f"{head}{quote(item_id)}{tail}{names[value]}}}\n"
        for item_id, value in zip(item_ids, np.asarray(values).tolist())
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def weights_digest(attribute, annotator_ids, result: EnsembleResult) -> str:
    document = {
        "attribute": attribute,
        "weights": dict(zip(annotator_ids, result.weights)),
        "accuracies": dict(zip(annotator_ids, result.accuracies)),
        "iterations_run": result.iterations_run,
        "converged": result.converged,
    }
    text = json.dumps(document, ensure_ascii=False, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
