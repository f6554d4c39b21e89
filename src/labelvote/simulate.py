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

from .core import AnnotationMatrix, AttributeSchema, ExtendedLabel


@dataclass(frozen=True)
class WorkerProfile:
    """True accuracy and missingness of one simulated annotator."""

    worker_id: str
    accuracy: float
    missing_rate: float = 0.0

    def __post_init__(self):
        if not self.worker_id.strip():
            raise ValueError("worker_id must be non-empty")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy {self.accuracy} outside [0, 1]")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"missing_rate {self.missing_rate} outside [0, 1)")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation needs; the seed is mandatory by design."""

    n_items: int
    schema: AttributeSchema
    workers: tuple[WorkerProfile, ...]
    seed: int

    def __init__(
        self,
        n_items: int,
        schema: AttributeSchema,
        workers: Sequence[WorkerProfile],
        seed: int,
    ):
        object.__setattr__(self, "n_items", n_items)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "workers", tuple(workers))
        object.__setattr__(self, "seed", seed)
        if self.n_items < 1:
            raise ValueError("n_items must be >= 1")
        if not self.workers:
            raise ValueError("at least one worker is required")
        ids = [w.worker_id for w in self.workers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids")
        if not isinstance(seed, int) or seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _item_ids(n_items: int) -> tuple[str, ...]:
    return tuple(f"item-{j:06d}" for j in range(1, n_items + 1))


def generate_ground_truth(config: SimulationConfig) -> list[ExtendedLabel]:
    """Draw one true label per item, iid uniform over 1..L."""
    rng = np.random.default_rng([config.seed, 0])
    labels = rng.integers(1, config.schema.n_labels + 1, size=config.n_items)
    return [int(v) for v in labels]


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
    rng = np.random.default_rng([config.seed, 1])
    miss_draw = rng.random((n, p))
    correct_draw = rng.random((n, p))
    offset = rng.integers(1, n_labels, size=(n, p))

    truth_row = np.asarray(truth, dtype=np.int64)
    accuracy = np.array([w.accuracy for w in config.workers])[:, None]
    missing_rate = np.array([w.missing_rate for w in config.workers])[:, None]
    wrong = ((truth_row[None, :] - 1 + offset) % n_labels) + 1
    labels = np.where(correct_draw < accuracy, truth_row[None, :], wrong)
    observed = miss_draw >= missing_rate

    # Transposed, nonzero() walks item-major with annotators ascending, the
    # matrix's own order, so the matrix's stable sort finds it in place.
    items, annotators = np.nonzero(observed.T)
    return AnnotationMatrix(
        schema=config.schema,
        annotator_ids=tuple(w.worker_id for w in config.workers),
        item_ids=_item_ids(p),
        entries=(annotators, items, labels[annotators, items]),
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
