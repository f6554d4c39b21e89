"""The benchmark's workloads: what each one runs and what it must produce.

Every workload runs the same four subcommands, so every end-to-end
metric exists on every workload, but sizes differ so that each one
stresses a different layer:

- dense-20k: 20k items x 5 dense workers with the accuracies of
  scripts/pipeline.sh (100k annotations, L=3, converges in 3 iterations).
  JSONL parsing and matrix building dominate; the voting loop is ~10%.
  The ROADMAP's 200k-item tier takes 35 s for one chain, which leaves one
  sample of each step per run: too few for a steady median on a shared
  two-core machine. 20k items keeps the same profile at a tenth the size.
- hard-crowd: 10k items x 32 sparse workers (80% missing, L=4): 24
  near-chance workers, 2 spammers at exactly 1/L and 6 adversarial ones.
  Negative and zero weights, many annotators and abstentions; the voting
  loop dominates. Left to converge it takes 35 to 100 iterations
  depending on the seed, which would make aggregate time a property of
  the seed, so ``aggregate --max-iter`` caps it at 36. With 80% missing,
  about 8 of the 10k items get no annotation at all.
- extract-mock: 200 products against three mock providers with a fixed
  delay; one plain, one failing its first calls (so retries run), one not
  concurrency-safe. Its wall time is provider waits and scheduling. The
  providers answer with three simulated workers' labels, and aggregate
  reads what extract wrote, as in the paper's LLM-ensemble pipeline.

On the two pipeline workloads extract is a 30-product probe and
aggregate reads the simulated annotations. Inputs depend on the seed
only; the program receives generated files and the seed of its own
``simulate`` run.

A run is a fixed number of rounds, each the whole chain between two
``labelvote --help``, so that the operations a run attempts, and which of them fail,
depend on the workload, the seed and ``--seconds`` only, never on how
fast the machine was. ``round_s`` is the wall time of one round on the
two-core machine the baseline was taken on; a run of S seconds makes
floor(S / round_s) rounds, at least one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle

ATTRIBUTE = "attr"
PROVIDER_DELAY_S = 0.004
# The in-flight cap of extract: the two-core machine the baseline was taken on.
MAX_IN_FLIGHT = min(2, os.cpu_count() or 1)
UNRESOLVED = "unknown"

# The mock providers extract queries, minus their responses. Provider k
# answers with worker k's simulated labels.
PROVIDERS = (
    {"provider_id": "llm-plain"},
    {"provider_id": "llm-retry", "fail_times": 2, "max_retries": 3},
    {"provider_id": "llm-serial", "concurrency_safe": False},
)

PAPER_WORKERS = (("w1", 0.753), ("w2", 0.887), ("w3", 0.875), ("w4", 0.911), ("w5", 0.934))


def _hard_crowd_workers():
    near_chance = [
        (f"near-{k + 1:02d}", round(float(a), 4))
        for k, a in enumerate(np.linspace(0.26, 0.45, 24))
    ]
    spammers = [("spam-1", 0.25), ("spam-2", 0.25)]
    adversarial = [(f"adv-{k + 1}", 0.02) for k in range(6)]
    return tuple((wid, acc, 0.8) for wid, acc in near_chance + spammers + adversarial)


@dataclass(frozen=True)
class Workload:
    name: str
    items: int
    labels: tuple[str, ...]
    workers: tuple[tuple[str, float, float], ...]  # (worker_id, accuracy, missing_rate)
    products: int
    round_s: float
    aggregate_extracted: bool = False
    max_iterations: int = 100

    def rounds(self, seconds: float) -> int:
        return max(1, int(seconds / self.round_s))

    def scaled(self, divisor: int) -> "Workload":
        return replace(
            self,
            items=max(20, self.items // divisor),
            products=max(20, self.products // divisor),
        )


WORKLOADS = {
    "dense-20k": Workload(
        name="dense-20k",
        items=20_000,
        labels=("low", "mid", "high"),
        workers=tuple((wid, acc, 0.0) for wid, acc in PAPER_WORKERS),
        products=30,
        round_s=5.6,
    ),
    "hard-crowd": Workload(
        name="hard-crowd",
        items=10_000,
        labels=("small", "medium", "large", "huge"),
        workers=_hard_crowd_workers(),
        products=30,
        round_s=6.2,
        max_iterations=36,
    ),
    "extract-mock": Workload(
        name="extract-mock",
        items=200,
        labels=("low", "mid", "high"),
        workers=(("llm-plain", 0.85, 0.0), ("llm-retry", 0.75, 0.1), ("llm-serial", 0.65, 0.2)),
        products=200,
        round_s=4.4,
        aggregate_extracted=True,
    ),
}

# 200 for tiny: every workload still runs all four subcommands in about a second.
TINY_DIVISOR = 200


@dataclass
class Expected:
    """What a correct run writes, derived by the oracle from the workload and seed."""

    annotations: str  # sha256 of simulate --out
    truth: str  # sha256 of simulate --truth-out
    predictions: str
    weights: str
    extracted: list[tuple[str, str, str]]  # (provider, item, response), file order


def item_ids(n_items: int) -> list[str]:
    return [f"item-{j:06d}" for j in range(1, n_items + 1)]


def write_inputs(workload: Workload, seed: int, directory: Path) -> Expected:
    """Write workers.json, products.jsonl and providers.json; return the expected outputs."""
    w = workload
    n_labels = len(w.labels)
    truth, rows = oracle.simulate(
        seed, w.items, [a for _, a, _ in w.workers], [m for _, _, m in w.workers], n_labels
    )
    ids = item_ids(w.items)
    worker_ids = [wid for wid, _, _ in w.workers]

    with open(directory / "workers.json", "w", encoding="utf-8") as fh:
        json.dump(
            [{"worker_id": wid, "accuracy": a, "missing_rate": m} for wid, a, m in w.workers],
            fh,
        )

    # Product j's title carries each provider's answer as a "[provider:label]"
    # token that provider's canned responses match; no token means the
    # provider answers UNRESOLVED, which aggregate treats as missing.
    provider_ids = [p["provider_id"] for p in PROVIDERS]
    answers = [
        [w.labels[v - 1] if v else UNRESOLVED for v in rows[k, : w.products]]
        for k in range(len(provider_ids))
    ]
    with open(directory / "products.jsonl", "w", encoding="utf-8") as fh:
        for j in range(w.products):
            tokens = " ".join(
                f"[{pid}:{answers[k][j]}]"
                for k, pid in enumerate(provider_ids)
                if answers[k][j] != UNRESOLVED
            )
            fh.write(
                json.dumps({"item_id": ids[j], "title": f"Item {ids[j]} {tokens}",
                            "description": "synthetic product"})
                + "\n"
            )
    providers = [
        {
            "kind": "mock",
            **p,
            "responses": {f"[{p['provider_id']}:{label}]": label for label in w.labels},
            "default_response": UNRESOLVED,
            "delay": PROVIDER_DELAY_S,
        }
        for p in PROVIDERS
    ]
    with open(directory / "providers.json", "w", encoding="utf-8") as fh:
        json.dump(providers, fh, indent=1)
    extracted = [
        (pid, ids[j], answers[k][j])
        for k, pid in enumerate(provider_ids)
        for j in range(w.products)
    ]

    if w.aggregate_extracted:
        vote_rows = rows[: len(provider_ids), : w.products]
        vote_ids, voter_ids = ids[: w.products], provider_ids
    else:
        vote_rows, vote_ids, voter_ids = rows, ids, worker_ids
    annotators, items = oracle.first_appearance(vote_rows)
    result = oracle.ensemble(vote_rows[np.ix_(annotators, items)], n_labels, w.max_iterations)
    return Expected(
        annotations=oracle.annotations_digest(rows, worker_ids, ids, w.labels, ATTRIBUTE),
        truth=oracle.predictions_digest(ids, truth, w.labels, ATTRIBUTE),
        predictions=oracle.predictions_digest(
            [vote_ids[j] for j in items], result.predictions, w.labels, ATTRIBUTE
        ),
        weights=oracle.weights_digest(
            ATTRIBUTE, [voter_ids[i] for i in annotators], result
        ),
        extracted=extracted,
    )
