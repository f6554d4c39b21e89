"""Synthetic ground truth and noisy simulated annotators.

The noise model is symmetric: a worker labels each item independently,
answers the true label with probability ``accuracy`` and otherwise picks
uniformly among the L - 1 wrong labels; each answer is independently
withheld with probability ``missing_rate``. Under symmetric noise a
single accuracy number fully characterizes a worker, which is exactly
what the aggregation's one-accuracy-per-annotator estimate assumes.

Randomness comes from numpy's default PCG64 generator. The truth stream
is seeded with ``[seed, 0]`` and the annotation stream with ``[seed, 1]``
(see docs/formats.md), so the two draws never interleave and each op is
reproducible on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AnnotationMatrix
from .jsonl import _rules
from .storage import AttributeSchema, ExtendedLabel, _Checked


@dataclass(frozen=True)
class WorkerProfile(_Checked):
    """True accuracy and missingness of one simulated annotator."""

    worker_id: str
    accuracy: float
    missing_rate: float = 0.0
    _RULES = _rules(worker_id="a non-empty string", accuracy="a number >= 0 and <= 1",
                    missing_rate="a number >= 0 and < 1")


@dataclass(frozen=True)
class SimulationConfig(_Checked):
    """Everything one simulation needs; the seed is mandatory by design."""

    n_items: int
    schema: AttributeSchema
    workers: tuple[WorkerProfile, ...]
    seed: int
    _RULES = _rules(n_items="an integer >= 1", seed="an integer >= 0")

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "workers", tuple(self.workers))
        if not self.workers:
            raise ValueError("at least one worker is required")
        ids = [w.worker_id for w in self.workers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids")


def generate_ground_truth(config: SimulationConfig) -> list[ExtendedLabel]:
    """Draw one true label per item, iid uniform over 1..L."""
    rng = np.random.default_rng([config.seed, 0])
    labels = rng.integers(1, config.schema.n_labels + 1, size=config.n_items)
    return labels.tolist()


def simulate_annotations(
    config: SimulationConfig, truth: Sequence[ExtendedLabel]
) -> AnnotationMatrix:
    """Produce the workers' noisy annotation matrix for a given truth.

    Three uniform draws per (worker, item) cell, in row-major order:
    a missingness draw, a correctness draw, and a wrong-label offset in
    1..L-1 (consumed even when unused, to keep the stream layout fixed).
    """
    if len(truth) != config.n_items:
        raise ValueError(
            f"truth has {len(truth)} labels for {config.n_items} items"
        )
    n_labels = config.schema.n_labels
    if any(not 1 <= t <= n_labels for t in truth):
        raise ValueError("ground truth labels must be in 1..L (no missing values)")
    n, p = len(config.workers), config.n_items
    truth_row = np.asarray(truth, dtype=np.int64)
    accuracy = np.array([w.accuracy for w in config.workers])[:, None]
    missing_rate = np.array([w.missing_rate for w in config.workers])[:, None]
    # Each (n, p) draw is used up and freed before the next is made.
    rng = np.random.default_rng([config.seed, 1])
    observed = rng.random((n, p)) >= missing_rate
    correct = rng.random((n, p)) < accuracy
    labels = rng.integers(1, n_labels, size=(n, p))  # wrong-label offsets
    labels += truth_row - 1
    labels %= n_labels
    labels += 1  # the wrong label: (truth - 1 + offset) % L + 1
    np.copyto(labels, truth_row, where=correct)
    del correct

    # nonzero() walks annotator-major with items ascending, the matrix's own
    # order, so the matrix's stable sort finds it in place.
    annotators, items = np.nonzero(observed)
    del observed
    labels = labels[annotators, items]
    return AnnotationMatrix(
        schema=config.schema,
        annotator_ids=tuple(w.worker_id for w in config.workers),
        item_ids=tuple(map("item-%06d".__mod__, range(1, p + 1))),
        entries=(annotators, items, labels),
    )


def score_accuracy(
    predictions: Sequence[ExtendedLabel], truth: Sequence[ExtendedLabel]
) -> float:
    """Fraction of items predicted correctly; abstentions (0) count as wrong."""
    if len(predictions) != len(truth):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(truth)} truths"
        )
    if any(t == 0 for t in truth):
        raise ValueError("truth must not contain missing labels")
    return sum(p == t for p, t in zip(predictions, truth)) / len(truth)
