"""Weighted voting, accuracy estimation, and the full aggregation loop."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from labelvote import (
    AnnotationMatrix,
    AttributeSchema,
    EnsembleConfig,
    SimulationConfig,
    WorkerProfile,
    estimate_accuracies,
    generate_ground_truth,
    majority_vote,
    oracle_weights,
    run_ensemble,
    score_accuracy,
    simulate_annotations,
    update_weights,
    weighted_vote,
)
from labelvote.aggregate import _vote

from conftest import make_matrix, random_sparse_rows
from reference import reference_ensemble


def vote_all(matrix, weights, tie_break="lowest-index"):
    """The whole-matrix vote kernel under explicit weights."""
    voter_weights = np.asarray(weights, dtype=float)[matrix.annotators]
    return _vote(
        matrix.items, matrix.labels, voter_weights,
        matrix.n_items, matrix.schema.n_labels, tie_break,
    ).tolist()


def scalar_vote(rows, n_labels, item, weights, tie_break):
    """One item's weighted plurality, summed and compared one vote at a time."""
    scores = [0.0] * n_labels
    voted = False
    for i, row in enumerate(rows):
        if row[item]:
            scores[row[item] - 1] += weights[i]
            voted = True
    if not voted:
        return 0
    winners = [k for k, score in enumerate(scores, start=1) if score == max(scores)]
    return winners[-1] if tie_break == "highest-index" else winners[0]


@st.composite
def sparse_rows(draw):
    """Up to 6 x 12 dense rows of 0..L (L <= 6), about half missing, one observed."""
    n_labels = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0), st.integers(1, n_labels))
    rows = draw(st.lists(st.lists(cell, min_size=p, max_size=p), min_size=n, max_size=n))
    assume(any(any(row) for row in rows))
    return rows, n_labels


def labelled(rows, n_labels):
    return make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])


class TestWeightedVote:
    def test_unanimity(self):
        matrix = make_matrix([[2], [2], [2]])
        assert weighted_vote(matrix, 0, [1.0, 1.0, 1.0]) == 2

    def test_heavy_annotator_outvotes_two_light_ones(self):
        matrix = make_matrix([[1], [1], [2]])
        # score(1) = 2 < score(2) = 3
        assert weighted_vote(matrix, 0, [1.0, 1.0, 3.0]) == 2

    def test_tie_breaks_to_lowest_index(self):
        matrix = make_matrix([[1], [2]])
        assert weighted_vote(matrix, 0, [1.0, 1.0]) == 1
        assert weighted_vote(matrix, 0, [1.0, 1.0], tie_break="highest-index") == 2

    def test_item_with_no_votes_returns_missing(self):
        matrix = make_matrix([[1, 0], [2, 0]])
        assert weighted_vote(matrix, 1, [1.0, 1.0]) == 0

    def test_weight_length_mismatch(self):
        matrix = make_matrix([[1], [2]])
        with pytest.raises(ValueError):
            weighted_vote(matrix, 0, [1.0])

    def test_item_out_of_range(self):
        matrix = make_matrix([[1]])
        with pytest.raises(ValueError):
            weighted_vote(matrix, 1, [1.0])

    def test_negative_weight_counts_against_its_vote(self):
        schema_labels = ["a", "b", "c"]
        matrix = make_matrix([[1]], labels=schema_labels)
        # A single wrong-leaning annotator pushes the vote away from its label.
        assert weighted_vote(matrix, 0, [-1.0]) == 2

    def test_scaling_invariance(self):
        rng = random.Random(2024)
        for _ in range(50):
            rows, n_labels = random_sparse_rows(rng, max_items=10)
            matrix = make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
            weights = [rng.uniform(-1.0, n_labels - 1.0) for _ in rows]
            scale = rng.uniform(0.01, 100.0)
            for j in range(matrix.n_items):
                expected = weighted_vote(matrix, j, weights)
                scaled = weighted_vote(matrix, j, [scale * w for w in weights])
                assert scaled == expected


class TestEstimateAccuracies:
    def test_perfect_agreement(self):
        matrix = make_matrix([[1, 2, 1, 2, 1]])
        assert estimate_accuracies(matrix, [1, 2, 1, 2, 1]) == [1.0]

    def test_direct_ratio(self):
        matrix = make_matrix([[1, 1, 1, 1]])
        assert estimate_accuracies(matrix, [1, 2, 2, 2]) == [0.25]

    def test_unobserved_annotator_gets_chance_level(self):
        labels = ["a", "b", "c", "d"]
        matrix = make_matrix([[1, 1], [0, 0]], labels=labels)
        accuracies = estimate_accuracies(matrix, [1, 1])
        assert accuracies[1] == 0.25
        # Chance level exists to make the annotator inert after the update.
        assert update_weights(accuracies, 4)[1] == 0.0

    def test_abstention_items_are_excluded(self):
        matrix = make_matrix([[1, 1, 0], [0, 1, 0]])
        accuracies = estimate_accuracies(matrix, [1, 1, 0])
        assert accuracies == [1.0, 1.0]

    def test_length_mismatch(self):
        matrix = make_matrix([[1, 1]])
        with pytest.raises(ValueError):
            estimate_accuracies(matrix, [1])


class TestUpdateWeights:
    def test_perfect_annotator_gets_maximal_weight(self):
        assert update_weights([1.0], 3) == [2.0]

    def test_chance_level_is_nullified(self):
        assert update_weights([1 / 3], 3) == [0.0]

    def test_adversarial_annotator_goes_negative(self):
        assert update_weights([0.0], 2) == [-1.0]

    def test_weight_identity_exact(self):
        for n_labels in range(2, 11):
            assert update_weights([1 / n_labels], n_labels) == [0.0]

    def test_monotonic_in_accuracy(self):
        rng = random.Random(5)
        for _ in range(200):
            n_labels = rng.randint(2, 6)
            a, b = rng.random(), rng.random()
            if a == b:
                continue
            lo, hi = sorted((a, b))
            w_lo, w_hi = update_weights([lo, hi], n_labels)
            assert w_hi > w_lo

    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ValueError):
            update_weights([1.2], 2)
        with pytest.raises(ValueError):
            update_weights([-0.1], 2)
        with pytest.raises(ValueError):
            update_weights([0.5], 1)


class TestOracleWeights:
    def test_known_accuracies(self):
        assert oracle_weights([1.0, 0.5], 2) == [1.0, 0.0]

    def test_all_chance_ensemble_predicts_by_tie_break(self):
        matrix = make_matrix([[1, 2], [2, 1]])
        weights = oracle_weights([0.5, 0.5], 2)
        assert weights == [0.0, 0.0]
        votes = [weighted_vote(matrix, j, weights) for j in range(2)]
        assert votes == [1, 1]
        votes_high = [
            weighted_vote(matrix, j, weights, tie_break="highest-index") for j in range(2)
        ]
        assert votes_high == [2, 2]

    def test_oracle_weighting_beats_uniform_on_average(self):
        # Simulation study: weighted vote with true-accuracy weights vs
        # plain majority, averaged over seeds.
        schema = AttributeSchema("attr", ["a", "b", "c"])
        accuracies = [0.55, 0.6, 0.65, 0.9, 0.95]
        workers = [
            WorkerProfile(f"w{k}", acc, 0.0) for k, acc in enumerate(accuracies)
        ]
        oracle_v = oracle_weights(accuracies, 3)
        oracle_scores = []
        uniform_scores = []
        for seed in range(5):
            config = SimulationConfig(20_000, schema, workers, seed)
            truth = generate_ground_truth(config)
            matrix = simulate_annotations(config, truth)
            weighted = [
                weighted_vote(matrix, j, oracle_v) for j in range(matrix.n_items)
            ]
            oracle_scores.append(score_accuracy(weighted, truth))
            uniform_scores.append(score_accuracy(majority_vote(matrix), truth))
        assert sum(oracle_scores) / 5 >= sum(uniform_scores) / 5


class TestMajorityVote:
    def test_unanimous_matrix(self):
        matrix = make_matrix([[1, 2], [1, 2]])
        assert majority_vote(matrix) == [1, 2]

    def test_equals_first_iteration_of_the_ensemble(self):
        rng = random.Random(31)
        for _ in range(50):
            rows, n_labels = random_sparse_rows(rng, max_items=20)
            matrix = make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
            first_iteration = {}
            run_ensemble(
                matrix,
                on_iteration=lambda it, preds, accs, ws: first_iteration.setdefault(it, list(preds)),
            )
            assert majority_vote(matrix) == first_iteration[1]

    def test_empty_item_abstains(self):
        matrix = make_matrix([[1, 0]])
        assert majority_vote(matrix) == [1, 0]


class TestRunEnsemble:
    def test_single_annotator_fixed_point(self):
        matrix = make_matrix([[1, 2, 1]])
        state = run_ensemble(matrix)
        assert state.predictions == [1, 2, 1]
        assert state.accuracies == [1.0]
        assert state.weights == [1.0]  # L - 1 with L = 2
        assert state.converged
        assert state.iterations_run <= 2

    def test_hand_iterated_three_by_four(self):
        # Worked by hand: majority vote gives [1, 1, 2, 1]; agreement is
        # 4/4, 3/4, 3/4; weights 2a-1 are [1.0, 0.5, 0.5]; a second pass
        # reproduces the same predictions, so the loop stops there.
        matrix = make_matrix([[1, 1, 2, 1], [1, 1, 2, 2], [2, 1, 2, 1]])
        state = run_ensemble(matrix)
        assert state.predictions == [1, 1, 2, 1]
        assert state.accuracies == [1.0, 0.75, 0.75]
        assert state.weights == [1.0, 0.5, 0.5]
        assert state.converged
        assert state.iterations_run == 2

    def test_matches_brute_force_on_same_input(self):
        rows = [[1, 1, 2, 1], [1, 1, 2, 2], [2, 1, 2, 1]]
        matrix = make_matrix(rows)
        state = run_ensemble(matrix)
        preds, weights, accuracies, iterations, converged = reference_ensemble(rows, 2)
        assert state.predictions == preds
        assert state.weights == weights
        assert state.accuracies == accuracies
        assert (state.iterations_run, state.converged) == (iterations, converged)

    def test_unvoted_item_stays_missing_and_never_counts(self):
        matrix = make_matrix([[1, 0, 1], [1, 0, 2]])
        state = run_ensemble(matrix)
        assert state.predictions[1] == 0
        assert state.accuracies[0] == 1.0

    def test_empty_matrix_is_an_error(self):
        schema = AttributeSchema("attr", ["a", "b"])
        from labelvote import AnnotationMatrix

        matrix = AnnotationMatrix(schema, ["a1"], ["p1"], {})
        with pytest.raises(ValueError):
            run_ensemble(matrix)

    def test_max_iterations_one_reduces_to_majority_vote(self):
        rng = random.Random(17)
        config = EnsembleConfig(max_iterations=1)
        for _ in range(50):
            rows, n_labels = random_sparse_rows(rng, max_items=15)
            matrix = make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
            state = run_ensemble(matrix, config)
            assert state.predictions == majority_vote(matrix)
            assert not state.converged

    def test_deterministic(self):
        rng = random.Random(23)
        rows, n_labels = random_sparse_rows(rng)
        matrix = make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
        assert run_ensemble(matrix) == run_ensemble(matrix)

    def test_matches_brute_force_on_random_sparse_matrices(self):
        rng = random.Random(1234)
        for _ in range(100):
            rows, n_labels = random_sparse_rows(rng, max_items=20)
            matrix = make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
            state = run_ensemble(matrix)
            preds, weights, accuracies, iterations, converged = reference_ensemble(
                rows, n_labels
            )
            assert state.predictions == preds
            assert state.weights == weights
            assert state.accuracies == accuracies
            assert (state.iterations_run, state.converged) == (iterations, converged)

    def test_bounds_hold_on_random_matrices(self):
        rng = random.Random(77)
        for _ in range(50):
            rows, n_labels = random_sparse_rows(rng, max_items=15)
            matrix = make_matrix(rows, labels=[f"l{k}" for k in range(1, n_labels + 1)])
            state = run_ensemble(matrix)
            assert all(0.0 <= a <= 1.0 for a in state.accuracies)
            assert all(-1.0 <= w <= n_labels - 1.0 for w in state.weights)
            for j, prediction in enumerate(state.predictions):
                if prediction == 0:
                    assert all(matrix.label_for(i, j) == 0 for i in range(matrix.n_annotators))

    def test_inert_extra_annotator_changes_nothing(self):
        rows = [[1, 1, 2, 1], [1, 1, 2, 2], [2, 1, 2, 1]]
        base = run_ensemble(make_matrix(rows))
        padded = run_ensemble(make_matrix(rows + [[0, 0, 0, 0]]))
        assert padded.predictions == base.predictions
        assert padded.weights[:3] == base.weights
        assert padded.weights[3] == 0.0  # chance-level fallback, nullified

    def test_inert_extra_item_changes_nothing(self):
        rows = [[1, 1, 2, 1], [1, 1, 2, 2], [2, 1, 2, 1]]
        base = run_ensemble(make_matrix(rows))
        padded = run_ensemble(make_matrix([row + [0] for row in rows]))
        assert padded.predictions == base.predictions + [0]
        assert padded.weights == base.weights


    def test_zero_tolerance_converges_like_the_default(self):
        # Repeated predictions give bitwise-equal weights, so the reference's
        # smallest possible tolerance stops where its default does, and
        # where the package's tolerance-free rule does.
        state = run_ensemble(make_matrix([[1, 1, 2, 1], [1, 1, 2, 2], [2, 1, 2, 1]]))
        assert (state.iterations_run, state.converged) == (2, True)
        rng = random.Random(5)
        for _ in range(30):
            rows, n_labels = random_sparse_rows(rng, max_items=20)
            state = run_ensemble(labelled(rows, n_labels))
            expected = reference_ensemble(rows, n_labels, weight_tolerance=5e-324)
            assert expected == reference_ensemble(rows, n_labels)
            assert (
                state.predictions,
                state.weights,
                state.accuracies,
                state.iterations_run,
                state.converged,
            ) == expected


class TestVoteKernel:
    @settings(max_examples=300, deadline=None)
    @given(sparse_rows())
    def test_matches_reference_bit_for_bit(self, case):
        rows, n_labels = case
        state = run_ensemble(labelled(rows, n_labels))
        assert (
            state.predictions,
            state.weights,
            state.accuracies,
            state.iterations_run,
            state.converged,
        ) == reference_ensemble(rows, n_labels)

    def test_votes_add_up_in_annotator_order(self):
        # Summed in annotator order, 0.1 + 0.2 + 0.3 = 0.6000000000000001 beats
        # annotator 3's 0.6; summed in reverse it is exactly 0.6, a tie that
        # label 1 wins. Entries go in reverse so the matrix has to sort them.
        assert (0.1 + 0.2) + 0.3 > 0.6
        assert (0.3 + 0.2) + 0.1 == 0.6
        weights = [0.1, 0.2, 0.3, 0.6]
        entries = {(3, 0): 1, (3, 1): 1}
        entries.update({(i, j): 2 for i in (2, 1, 0) for j in (1, 0)})
        matrix = AnnotationMatrix(
            AttributeSchema("attr", ["a", "b"]), ["a0", "a1", "a2", "a3"], ["p0", "p1"], entries
        )
        assert vote_all(matrix, weights) == [2, 2]
        assert [weighted_vote(matrix, j, weights) for j in range(2)] == [2, 2]

    @settings(max_examples=300, deadline=None)
    @given(sparse_rows(), st.data())
    def test_exact_ties_under_negative_weights(self, case, data):
        rows, n_labels = case
        matrix = labelled(rows, n_labels)
        weights = data.draw(
            st.lists(
                st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        for tie_break in ("lowest-index", "highest-index"):
            expected = [
                scalar_vote(rows, n_labels, j, weights, tie_break)
                for j in range(matrix.n_items)
            ]
            assert vote_all(matrix, weights, tie_break) == expected
            assert [
                weighted_vote(matrix, j, weights, tie_break) for j in range(matrix.n_items)
            ] == expected


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EnsembleConfig(tie_break="coin-flip")
