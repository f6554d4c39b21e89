"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Each test prints its measured numbers so a ``-s`` run doubles as a small
report. The synthetic studies use the five fixed seeds 0..4 and a
realistic spread of worker accuracies (0.753, 0.887, 0.875, 0.911,
0.934, roughly one weak model and four strong ones) on a 3-label
vocabulary over 20,000 items.
"""

import itertools
import json
import random
import statistics

import pytest

from labelvote import (
    AnnotationMatrix,
    AnnotationRecord,
    AttributeSchema,
    EnsembleConfig,
    SimulationConfig,
    WeightsReport,
    WorkerProfile,
    generate_ground_truth,
    majority_vote,
    oracle_weights,
    read_annotations,
    read_predictions,
    read_weights,
    run_ensemble,
    score_accuracy,
    simulate_annotations,
    update_weights,
    weighted_vote,
    write_annotations,
    write_predictions,
    write_weights,
)
from labelvote.cli import main
from labelvote.ensemble import build_votes, run_plain

from conftest import make_matrix, random_sparse_rows
from reference import reference_ensemble

SEEDS = (0, 1, 2, 3, 4)
TRUE_ACCURACIES = (0.753, 0.887, 0.875, 0.911, 0.934)
N_ITEMS = 20_000
STUDY_SCHEMA = AttributeSchema("age", ["low", "mid", "high"])


def study_config(seed, extra_workers=()):
    workers = [
        WorkerProfile(f"w{k}", accuracy, 0.0)
        for k, accuracy in enumerate(TRUE_ACCURACIES)
    ]
    workers.extend(extra_workers)
    return SimulationConfig(N_ITEMS, STUDY_SCHEMA, workers, seed)


def run_study(seed, extra_workers=()):
    """Simulate one seed and aggregate it; returns (truth, matrix, state)."""
    config = study_config(seed, extra_workers)
    truth = generate_ground_truth(config)
    matrix = simulate_annotations(config, truth)
    state = run_ensemble(matrix)
    return truth, matrix, state


def worker_accuracy(matrix, truth, worker):
    row = [matrix.label_for(worker, j) for j in range(matrix.n_items)]
    return score_accuracy(row, truth)


@pytest.fixture(scope="module")
def base_study():
    return {seed: run_study(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def spammer_study():
    spammer = WorkerProfile("spammer", 1 / 3, 0.0)
    return {seed: run_study(seed, extra_workers=[spammer]) for seed in SEEDS}


@pytest.fixture(scope="module")
def sparse_corpus():
    rng = random.Random(20240901)
    corpus = []
    for _ in range(1000):
        rows, n_labels = random_sparse_rows(
            rng, max_annotators=6, max_items=50, max_labels=4, max_missing=0.5
        )
        corpus.append(
            make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
        )
    return corpus


def test_ac1_exhaustive_equivalence_with_brute_force():
    """All 4096 dense 3x4 binary-label matrices match the reference exactly."""
    schema = AttributeSchema("attr", ["a", "b"])
    annotator_ids = ("a0", "a1", "a2")
    item_ids = ("p0", "p1", "p2", "p3")
    checked = 0
    for cells in itertools.product((1, 2), repeat=12):
        rows = [list(cells[0:4]), list(cells[4:8]), list(cells[8:12])]
        entries = {
            (i, j): rows[i][j] for i in range(3) for j in range(4)
        }
        matrix = AnnotationMatrix(schema, annotator_ids, item_ids, entries)
        state = run_ensemble(matrix)
        preds, weights, accuracies, iterations, converged = reference_ensemble(rows, 2)
        assert state.predictions == preds
        assert state.weights == weights
        assert state.accuracies == accuracies
        assert state.iterations_run == iterations
        assert state.converged == converged
        checked += 1
    assert checked == 4096
    print(f"\nAC-1: {checked} dense matrices bit-identical to the brute-force reference")


def test_ac1_plain_loop_exhaustive_equivalence_with_brute_force():
    """The numpy-free loop of small ``aggregate`` runs, on the same 4096 matrices as rows."""
    schema = AttributeSchema("attr", ["a", "b"])
    checked = 0
    for cells in itertools.product((1, 2), repeat=12):
        rows = [list(cells[0:4]), list(cells[4:8]), list(cells[8:12])]
        records = [
            (f"a{i}", f"p{j}", "attr", schema.labels[rows[i][j] - 1])
            for i in range(3) for j in range(4)
        ]
        state = run_plain(build_votes(schema, records))
        expected = reference_ensemble(rows, 2)
        assert (state.predictions, state.weights, state.accuracies, state.iterations_run,
                state.converged) == expected
        checked += 1
    assert checked == 4096


def test_ac2_ensemble_beats_best_single_worker(base_study):
    """Converged ensemble beats the best single worker on every seed."""
    margins = []
    for seed in SEEDS:
        truth, matrix, state = base_study[seed]
        ensemble_accuracy = score_accuracy(state.predictions, truth)
        best_single = max(
            worker_accuracy(matrix, truth, i) for i in range(matrix.n_annotators)
        )
        margin = ensemble_accuracy - best_single
        margins.append(margin)
        assert state.converged
        assert ensemble_accuracy > best_single, (
            f"seed {seed}: ensemble {ensemble_accuracy:.4f} "
            f"did not beat best single {best_single:.4f}"
        )
    average_margin = sum(margins) / len(margins)
    assert average_margin >= 0.005
    print(
        f"\nAC-2: ensemble beat the best single worker on all {len(SEEDS)} seeds, "
        f"average margin {average_margin:.4f} (per-seed min {min(margins):.4f})"
    )


def test_ac3_spammer_is_nullified(base_study, spammer_study):
    """A chance-level worker gets |weight| < 0.05 and barely moves accuracy."""
    deltas = []
    spammer_weights = []
    for seed in SEEDS:
        truth_base, _, state_base = base_study[seed]
        truth_spam, matrix_spam, state_spam = spammer_study[seed]
        spammer_index = matrix_spam.annotator_ids.index("spammer")
        spammer_weight = state_spam.weights[spammer_index]
        spammer_weights.append(spammer_weight)
        assert abs(spammer_weight) < 0.05, (
            f"seed {seed}: spammer weight {spammer_weight:+.4f}"
        )
        base_accuracy = score_accuracy(state_base.predictions, truth_base)
        spam_accuracy = score_accuracy(state_spam.predictions, truth_spam)
        delta = abs(spam_accuracy - base_accuracy)
        deltas.append(delta)
        assert delta < 0.005, f"seed {seed}: accuracy moved by {delta:.4f}"
    print(
        f"\nAC-3: max spammer |weight| {max(abs(w) for w in spammer_weights):.4f}, "
        f"max accuracy delta {max(deltas):.4f}"
    )


def test_ac4_learned_weights_approximate_oracle(base_study):
    """Every learned weight lands within 0.05 of L * p_i - 1."""
    oracle = oracle_weights(list(TRUE_ACCURACIES), STUDY_SCHEMA.n_labels)
    worst = 0.0
    for seed in SEEDS:
        _, _, state = base_study[seed]
        for learned, ideal in zip(state.weights, oracle):
            gap = abs(learned - ideal)
            worst = max(worst, gap)
            assert gap <= 0.05, f"seed {seed}: |{learned:.4f} - {ideal:.4f}| > 0.05"
    print(f"\nAC-4: worst |learned - oracle| gap {worst:.4f}")


def test_ac5_weight_formula_identities():
    """Chance-level zero point, monotonicity, and argmax scale invariance."""
    for n_labels in range(2, 11):
        assert update_weights([1 / n_labels], n_labels) == [0.0]

    rng = random.Random(501)
    pairs_checked = 0
    while pairs_checked < 1000:
        n_labels = rng.randint(2, 8)
        a, b = rng.random(), rng.random()
        if a == b:
            continue
        lo, hi = sorted((a, b))
        w_lo, w_hi = update_weights([lo, hi], n_labels)
        assert w_hi > w_lo
        pairs_checked += 1

    rows = [[1, 1, 2, 0], [1, 2, 2, 2], [2, 1, 2, 0], [0, 1, 1, 1]]
    matrix = make_matrix(rows)
    weights = [1.25, 0.5, -0.25, 0.75]
    baseline = [weighted_vote(matrix, j, weights) for j in range(matrix.n_items)]
    for _ in range(100):
        scale = rng.uniform(1e-3, 1e3)
        scaled = [scale * w for w in weights]
        votes = [weighted_vote(matrix, j, scaled) for j in range(matrix.n_items)]
        assert votes == baseline
    print("\nAC-5: identities exact for L in 2..10, 1000 pairs, 100 scalings")


def test_ac6_single_iteration_reduces_to_majority_vote(sparse_corpus):
    """max_iterations=1 returns exactly the uniform majority vote."""
    for matrix in sparse_corpus:
        state = run_ensemble(matrix, EnsembleConfig(max_iterations=1))
        assert state.predictions == majority_vote(matrix)
    print(f"\nAC-6: equality held on all {len(sparse_corpus)} random sparse matrices")


def test_ac7_convergence_and_determinism(sparse_corpus):
    """Every corpus run converges within 100 iterations, bit-identically."""
    iteration_counts = []
    for matrix in sparse_corpus:
        state = run_ensemble(matrix)
        assert state.converged, "a corpus matrix failed to converge"
        assert state.iterations_run <= 100
        assert run_ensemble(matrix) == state
        iteration_counts.append(state.iterations_run)
    median_iterations = statistics.median(iteration_counts)
    assert median_iterations <= 10
    print(
        f"\nAC-7: all {len(sparse_corpus)} runs converged; median iterations "
        f"{median_iterations}, max {max(iteration_counts)}"
    )


def test_ac8_garanimals_extraction_pipeline(tmp_path):
    """Mock extraction piped into aggregation recovers female/child labels."""
    products = tmp_path / "products.jsonl"
    products.write_text(
        json.dumps(
            {
                "item_id": "sku-1",
                "title": "Garanimals Toddler Girl Short Sleeve Graphic T-Shirt, Sizes 18M-5T",
                "description": (
                    "Bring an instant smile to her face with this colorful "
                    "Graphic T-shirt from Garanimals. Cute and comfortable in "
                    "a soft knit fabric."
                ),
            }
        )
        + "\n",
        encoding="utf-8",
    )
    cases = [
        ("gender", "male,female,unisex", "female", "Female", "female"),
        ("age", "baby,child,adult", "child", "Child", "child"),
    ]
    consensus = {}
    for attribute, labels, response_1, response_2, expected in cases:
        providers = tmp_path / f"providers-{attribute}.json"
        providers.write_text(
            json.dumps(
                [
                    {"kind": "mock", "provider_id": "mock-a",
                     "responses": {"Garanimals": response_1}},
                    {"kind": "mock", "provider_id": "mock-b",
                     "responses": {"Garanimals": response_2}},
                ]
            ),
            encoding="utf-8",
        )
        annotations = tmp_path / f"annotations-{attribute}.jsonl"
        predictions = tmp_path / f"predictions-{attribute}.jsonl"
        assert main([
            "extract", "--products", str(products), "--attribute", attribute,
            "--labels", labels, "--providers", str(providers),
            "--out", str(annotations),
        ]) == 0
        assert main([
            "aggregate", "--input", str(annotations), "--attribute", attribute,
            "--labels", labels, "--out", str(predictions),
        ]) == 0
        rows = read_predictions(predictions)
        assert len(rows) == 1
        assert rows[0].label == expected
        consensus[attribute] = rows[0].label
    print(f"\nAC-8: consensus {consensus}")


def test_ac9_storage_round_trips(tmp_path):
    """1000 randomized write/read cycles across all three formats."""
    rng = random.Random(909)
    words = ["male", "female", "unisex", "n/a", "köln", "maybe yes", "0"]

    for case in range(334):
        records = [
            AnnotationRecord(
                annotator_id=f"a{rng.randint(1, 9)}",
                item_id=f"p{rng.randint(1, 99)}",
                attribute=rng.choice(["gender", "age"]),
                raw_label=rng.choice(words),
            )
            for _ in range(rng.randint(0, 25))
        ]
        path = tmp_path / "annotations.jsonl"
        write_annotations(path, records)
        assert read_annotations(path) == records

    schema = AttributeSchema("gender", ["Male", "Female", "Unisex"])
    for case in range(333):
        item_ids = [f"p{j}" for j in range(rng.randint(1, 20))]
        predictions = [rng.randint(0, 3) for _ in item_ids]
        path = tmp_path / "predictions.jsonl"
        write_predictions(path, item_ids, predictions, schema)
        rows = read_predictions(path)
        assert [r.item_id for r in rows] == item_ids
        assert [r.label for r in rows] == [
            None if v == 0 else schema.labels[v - 1] for v in predictions
        ]

    for case in range(333):
        ids = [f"w{k}" for k in range(rng.randint(1, 8))]
        report = WeightsReport(
            attribute="gender",
            weights={a: rng.uniform(-1.0, 2.0) for a in ids},
            accuracies={a: rng.random() for a in ids},
            iterations_run=rng.randint(1, 100),
            converged=rng.random() < 0.5,
        )
        path = tmp_path / "weights.json"
        write_weights(path, report)
        assert read_weights(path) == report

    print("\nAC-9: 1000 round trips exact")
