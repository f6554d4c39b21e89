"""Synthetic truth and noisy-worker generation."""

import pytest

from labelvote import (
    AttributeSchema,
    SimulationConfig,
    WorkerProfile,
    generate_ground_truth,
    run_ensemble,
    score_accuracy,
    simulate_annotations,
)


def config_for(workers, n_items=100, seed=7, labels=("a", "b", "c")):
    schema = AttributeSchema("attr", list(labels))
    return SimulationConfig(n_items=n_items, schema=schema, workers=workers, seed=seed)


class TestWorkerProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerProfile("w", 1.5)
        with pytest.raises(ValueError):
            WorkerProfile("w", 0.5, missing_rate=1.0)
        with pytest.raises(ValueError):
            WorkerProfile("  ", 0.5)

    def test_bounds_are_inclusive_but_for_missing_rate_one(self):
        assert WorkerProfile("w", 1, missing_rate=0).accuracy == 1
        assert WorkerProfile("w", 0.0, missing_rate=0.999).missing_rate == 0.999
        with pytest.raises(ValueError) as excinfo:
            WorkerProfile("w", 0.5, missing_rate=1)
        assert str(excinfo.value) == "field 'missing_rate' must be a number >= 0 and < 1"


class TestSimulationConfig:
    def test_validation(self):
        worker = WorkerProfile("w", 0.9)
        schema = AttributeSchema("attr", ["a", "b"])
        with pytest.raises(ValueError):
            SimulationConfig(0, schema, [worker], 1)
        with pytest.raises(ValueError):
            SimulationConfig(10, schema, [], 1)
        with pytest.raises(ValueError):
            SimulationConfig(10, schema, [worker, worker], 1)
        with pytest.raises(ValueError):
            SimulationConfig(10, schema, [worker], -1)

    @pytest.mark.parametrize(
        "n_items, seed, message",
        [
            (True, 1, "field 'n_items' must be an integer >= 1"),
            (2.5, 1, "field 'n_items' must be an integer >= 1"),
            (float("inf"), 1, "field 'n_items' must be an integer >= 1"),
            (10, True, "field 'seed' must be an integer >= 0"),
            (10, 1.0, "field 'seed' must be an integer >= 0"),
            (10, float("nan"), "field 'seed' must be an integer >= 0"),
        ],
        ids=["boolean items", "fractional items", "infinite items", "boolean seed",
             "float seed", "NaN seed"],
    )
    def test_sizes_and_seed_are_integers(self, n_items, seed, message):
        schema = AttributeSchema("attr", ["a", "b"])
        with pytest.raises(ValueError) as excinfo:
            SimulationConfig(n_items, schema, [WorkerProfile("w", 0.9)], seed)
        assert str(excinfo.value) == message


class TestGenerateGroundTruth:
    def test_deterministic_per_seed(self):
        config = config_for([WorkerProfile("w", 0.9)], n_items=4, labels=("a", "b"))
        assert generate_ground_truth(config) == generate_ground_truth(config)

    def test_single_item(self):
        config = config_for([WorkerProfile("w", 0.9)], n_items=1)
        truth = generate_ground_truth(config)
        assert len(truth) == 1 and truth[0] in (1, 2, 3)

    def test_class_frequencies_near_uniform(self):
        config = config_for([WorkerProfile("w", 0.9)], n_items=100_000)
        truth = generate_ground_truth(config)
        assert 0 not in truth
        for label in (1, 2, 3):
            frequency = truth.count(label) / len(truth)
            assert abs(frequency - 1 / 3) < 0.01


class TestSimulateAnnotations:
    def test_perfect_worker_copies_truth(self):
        config = config_for([WorkerProfile("w", 1.0, 0.0)], n_items=50)
        truth = generate_ground_truth(config)
        matrix = simulate_annotations(config, truth)
        assert [matrix.label_for(0, j) for j in range(50)] == truth

    def test_chance_level_worker_agreement(self):
        config = config_for([WorkerProfile("w", 1 / 3, 0.0)], n_items=100_000)
        truth = generate_ground_truth(config)
        matrix = simulate_annotations(config, truth)
        row = [matrix.label_for(0, j) for j in range(matrix.n_items)]
        agreement = score_accuracy(row, truth)
        assert abs(agreement - 1 / 3) < 0.01

    def test_missing_rate_controls_stored_count(self):
        config = config_for([WorkerProfile("w", 0.9, 0.5)], n_items=100_000)
        truth = generate_ground_truth(config)
        matrix = simulate_annotations(config, truth)
        expected = 0.5 * config.n_items
        assert abs(matrix.observed_count - expected) <= 0.01 * expected

    def test_reproducible_and_seed_sensitive(self):
        workers = [WorkerProfile("w1", 0.8, 0.2), WorkerProfile("w2", 0.6, 0.1)]
        config = config_for(workers, n_items=200, seed=42)
        truth = generate_ground_truth(config)
        assert simulate_annotations(config, truth) == simulate_annotations(config, truth)
        other = config_for(workers, n_items=200, seed=43)
        assert simulate_annotations(other, generate_ground_truth(other)) != (
            simulate_annotations(config, truth)
        )

    def test_truth_length_must_match(self):
        config = config_for([WorkerProfile("w", 0.9)], n_items=5)
        with pytest.raises(ValueError):
            simulate_annotations(config, [1, 2])

    def test_truth_must_be_observed(self):
        config = config_for([WorkerProfile("w", 0.9)], n_items=2)
        with pytest.raises(ValueError):
            simulate_annotations(config, [1, 0])

    def test_wrong_labels_never_equal_truth(self):
        config = config_for([WorkerProfile("w", 0.0, 0.0)], n_items=2_000)
        truth = generate_ground_truth(config)
        matrix = simulate_annotations(config, truth)
        assert all(
            matrix.label_for(0, j) != truth[j] for j in range(matrix.n_items)
        )


class TestScoreAccuracy:
    def test_perfect(self):
        assert score_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_abstentions(self):
        assert score_accuracy([0, 0], [1, 2]) == 0.0

    def test_half(self):
        assert score_accuracy([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_accuracy([1], [1, 2])

    def test_rejects_missing_truth(self):
        with pytest.raises(ValueError):
            score_accuracy([1, 1], [1, 0])


class TestEndToEnd:
    def test_perfect_worker_alone_recovers_truth(self):
        config = config_for([WorkerProfile("w", 1.0, 0.0)], n_items=100)
        truth = generate_ground_truth(config)
        state = run_ensemble(simulate_annotations(config, truth))
        assert state.predictions == truth
        assert state.weights == [2.0]  # L - 1 for L = 3
