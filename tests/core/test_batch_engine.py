"""Batch-evaluation engine: equivalence with the per-sample reference.

The batch engine must be a pure optimization: for every weight mode,
tail, and calibration regime, ``evaluate()`` has to reproduce the
decisions of the per-sample paths (``evaluate_one`` and the reference
loop in ``serial_reference.py``) exactly, with credibilities and confidences
equal up to the floating-point reassociation inherent in BLAS-backed
distance computation (~1e-12).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveWeighting,
    DecisionBatch,
    PromClassifier,
    PromRegressor,
    TriggerConfig,
    UniformWeighting,
    build_trigger_stack,
    drifting_indices,
    group_scores_by_label,
    pvalues_all_labels_batch,
    select_relabel_budget,
    squared_distance_matrix,
    summarize_decisions,
)
from repro.core.weighting import iter_squared_distance_chunks

from .serial_reference import evaluate_serial, pvalues_all_labels, select


def _classification_setup(
    n_cal=120, n_classes=4, d=6, seed=0, present_classes=None, **prom_kwargs
):
    """A calibrated PromClassifier plus a drawn test batch."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_cal, d))
    raw = rng.random((n_cal, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, present_classes or n_classes, n_cal)
    prom = PromClassifier(**prom_kwargs)
    prom.calibrate(features, probabilities, labels)
    n_test = 25
    test_features = np.concatenate(
        [rng.normal(size=(n_test - 5, d)), rng.normal(size=(5, d)) + 8.0]
    )
    raw_t = rng.random((n_test, n_classes)) + 0.05
    test_probabilities = raw_t / raw_t.sum(axis=1, keepdims=True)
    return prom, test_features, test_probabilities


def _assert_batch_matches_decisions(batch, decisions):
    assert isinstance(batch, DecisionBatch)
    assert len(batch) == len(decisions)
    assert [d.accepted for d in batch] == [d.accepted for d in decisions]
    np.testing.assert_allclose(
        batch.credibility,
        [d.credibility for d in decisions],
        rtol=1e-9,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        batch.confidence,
        [d.confidence for d in decisions],
        rtol=1e-9,
        atol=1e-12,
    )
    for i, reference in enumerate(decisions):
        votes = batch[i].votes
        assert [v.function_name for v in votes] == [
            v.function_name for v in reference.votes
        ]
        assert [v.accept for v in votes] == [v.accept for v in reference.votes]
        assert [v.prediction_set_size for v in votes] == [
            v.prediction_set_size for v in reference.votes
        ]
        np.testing.assert_allclose(
            [v.credibility for v in votes],
            [v.credibility for v in reference.votes],
            rtol=1e-9,
            atol=1e-12,
        )


class TestDistanceHelpers:
    def test_matches_naive_broadcast(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(40, 5))
        B = rng.normal(size=(23, 5))
        naive = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
        np.testing.assert_allclose(squared_distance_matrix(A, B), naive, atol=1e-9)

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(31, 4))
        B = rng.normal(size=(17, 4))
        full = squared_distance_matrix(A, B)
        chunked = squared_distance_matrix(A, B, chunk_size=3)
        np.testing.assert_allclose(full, chunked, rtol=1e-12, atol=1e-12)
        blocks = list(iter_squared_distance_chunks(A, B, chunk_size=7))
        assert [b[0] for b in blocks] == [0, 7, 14, 21, 28]
        np.testing.assert_allclose(
            np.concatenate([b[2] for b in blocks]), full, rtol=1e-12, atol=1e-12
        )

    def test_self_distance(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(12, 3))
        sq = squared_distance_matrix(A)
        assert sq.shape == (12, 12)
        assert np.all(np.abs(np.diag(sq)) < 1e-9)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            squared_distance_matrix(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            squared_distance_matrix(np.zeros((3, 2)), chunk_size=0)

    def test_resolve_tau_matches_naive_formula(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(80, 5))
        tau = AdaptiveWeighting().resolve_tau(features)
        diffs = features[:, None, :] - features[None, :, :]
        squared = np.sum(diffs * diffs, axis=2)
        expected = np.median(squared[np.triu_indices(len(features), k=1)])
        assert tau == pytest.approx(expected, rel=1e-9)


class TestSelectBatch:
    @pytest.mark.parametrize("min_samples", [10, 500])
    def test_matches_scalar_select(self, min_samples):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(150, 6))
        test = rng.normal(size=(12, 6))
        weighting = AdaptiveWeighting(
            fraction=0.4, min_samples=min_samples, tau=2.0
        )
        batch = weighting.select_batch(features, test)
        for i in range(len(test)):
            scalar = select(weighting, features, test[i])
            assert set(batch.indices[i].tolist()) == set(scalar.indices.tolist())
            order_b = np.argsort(batch.indices[i])
            order_s = np.argsort(scalar.indices)
            np.testing.assert_allclose(
                batch.weights[i][order_b], scalar.weights[order_s], atol=1e-9
            )

    def test_uniform_weighting_batch(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(50, 4))
        test = rng.normal(size=(7, 4))
        batch = UniformWeighting().select_batch(features, test)
        assert batch.indices.shape == (7, 50)
        assert np.all(batch.weights == 1.0)
        np.testing.assert_array_equal(batch.indices[0], np.arange(50))

    def test_batch_shapes(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(30, 3))
        batch = AdaptiveWeighting(tau=1.0).select_batch(features, features[:4])
        assert batch.indices.shape == batch.weights.shape
        assert len(batch) == 4

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            AdaptiveWeighting(tau=1.0).select_batch(
                np.zeros((10, 4)), np.zeros((2, 3))
            )


class TestPvalueBatchKernel:
    @pytest.mark.parametrize("weight_mode", ["count", "multiply"])
    @pytest.mark.parametrize("tail", ["right", "both"])
    @pytest.mark.parametrize("discrete", [False, True])
    def test_matches_scalar_pvalues(self, weight_mode, tail, discrete):
        rng = np.random.default_rng(5)
        n_cal, n_labels, d = 90, 5, 4
        features = rng.normal(size=(n_cal, d))
        # integer ranks with thresholds from the same set make
        # score == threshold occur (the tie branch of the two-sided kernel)
        scores = rng.integers(0, 5, n_cal).astype(float) if discrete else rng.random(n_cal)
        labels = rng.integers(0, n_labels, n_cal)
        weighting = AdaptiveWeighting(fraction=0.5, min_samples=20, tau=3.0)
        test_features = rng.normal(size=(15, d))
        test_scores = (
            rng.integers(0, 5, (15, n_labels)).astype(float)
            if discrete
            else rng.random((15, n_labels))
        )
        if discrete:
            assert np.isin(test_scores, scores).all()

        layout = group_scores_by_label(scores, labels, n_labels)
        subset_batch = weighting.select_batch(features, test_features)
        batch_p = pvalues_all_labels_batch(
            layout, subset_batch, test_scores, weight_mode=weight_mode, tail=tail
        )
        for i in range(len(test_features)):
            scalar_p = pvalues_all_labels(
                scores,
                labels,
                select(weighting, features, test_features[i]),
                test_scores[i],
                n_labels,
                weight_mode=weight_mode,
                tail=tail,
            )
            np.testing.assert_allclose(batch_p[i], scalar_p, rtol=1e-9, atol=1e-12)

    def test_unobserved_label_pvalue_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        n_cal, n_labels = 40, 4
        scores = rng.random(n_cal)
        labels = rng.integers(0, 2, n_cal)  # labels 2 and 3 never occur
        layout = group_scores_by_label(scores, labels, n_labels)
        assert layout.group_counts[2] == layout.group_counts[3] == 0
        features = rng.normal(size=(n_cal, 3))
        subset = AdaptiveWeighting(min_samples=100, tau=1.0).select_batch(
            features, rng.normal(size=(6, 3))
        )
        pvalues = pvalues_all_labels_batch(
            layout, subset, rng.random((6, n_labels))
        )
        assert np.all(pvalues[:, 2:] == 0.0)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            group_scores_by_label(np.ones(3), np.array([0, 1, 5]), 3)

    def test_invalid_mode_and_tail_rejected(self):
        layout = group_scores_by_label(np.ones(4), np.zeros(4, dtype=int), 2)
        subset = UniformWeighting().select_batch(np.zeros((4, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="weight_mode"):
            pvalues_all_labels_batch(layout, subset, np.ones((1, 2)), weight_mode="x")
        with pytest.raises(ValueError, match="tail"):
            pvalues_all_labels_batch(layout, subset, np.ones((1, 2)), tail="left")


class TestWeightModeEquations:
    """Both weight modes against hand-computed paper formulas."""

    def _unit_subset(self, n):
        features = np.zeros((n, 2))
        return AdaptiveWeighting(min_samples=n + 1, tau=1e12).select_batch(
            features, np.zeros((1, 2))
        )

    def test_multiply_mode_uses_n_plus_one_denominator(self):
        scores = np.array([0.5, 0.6, 0.7, 0.8])
        labels = np.zeros(4, dtype=int)
        layout = group_scores_by_label(scores, labels, 1)
        pvalues = pvalues_all_labels_batch(
            layout,
            self._unit_subset(4),
            np.array([[0.65]]),
            weight_mode="multiply",
        )
        # Two adjusted scores (0.7, 0.8) >= 0.65; denominator is n + 1 = 5.
        assert pvalues[0, 0] == pytest.approx(2 / 5)

    def test_count_mode_weighted_sum_denominator(self):
        scores = np.array([0.5, 0.6, 0.7, 0.8])
        labels = np.zeros(4, dtype=int)
        layout = group_scores_by_label(scores, labels, 1)
        pvalues = pvalues_all_labels_batch(
            layout, self._unit_subset(4), np.array([[0.65]]), weight_mode="count"
        )
        # Unit weights: numerator 2, denominator sum(w) + 1 = 5.
        assert pvalues[0, 0] == pytest.approx(2 / 5)


class TestClassifierBatchIdentity:
    """Property: batch evaluate() == per-sample evaluate_one()/reference."""

    @given(
        seed=st.integers(0, 30),
        weight_mode=st.sampled_from(["count", "multiply"]),
        small_calibration=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_per_sample(self, seed, weight_mode, small_calibration):
        prom, test_features, test_probabilities = _classification_setup(
            n_cal=90,
            seed=seed,
            weight_mode=weight_mode,
            # below / above n_cal: exercises both selection branches
            min_calibration=200 if small_calibration else 40,
        )
        batch = prom.evaluate(test_features, test_probabilities)
        serial = evaluate_serial(prom, test_features, test_probabilities)
        ones = [
            prom.evaluate_one(test_features[i], test_probabilities[i])
            for i in range(len(test_features))
        ]
        _assert_batch_matches_decisions(batch, serial)
        _assert_batch_matches_decisions(batch, ones)

    def test_empty_label_subsets(self):
        """Calibration labels covering only a subset of the classes."""
        prom, test_features, test_probabilities = _classification_setup(
            n_cal=60, n_classes=5, present_classes=2, seed=7
        )
        batch = prom.evaluate(test_features, test_probabilities)
        serial = evaluate_serial(prom, test_features, test_probabilities)
        _assert_batch_matches_decisions(batch, serial)

    def test_explicit_predicted_labels(self):
        prom, test_features, test_probabilities = _classification_setup(seed=3)
        predicted = np.zeros(len(test_features), dtype=int)
        batch = prom.evaluate(test_features, test_probabilities, predicted)
        serial = evaluate_serial(prom, test_features, test_probabilities, predicted)
        _assert_batch_matches_decisions(batch, serial)

    def test_chunked_evaluation_matches_single_chunk(self):
        prom, test_features, test_probabilities = _classification_setup(seed=9)
        whole = prom.evaluate(test_features, test_probabilities)
        chunked = prom.evaluate(test_features, test_probabilities, chunk_size=4)
        assert [d.accepted for d in whole] == [d.accepted for d in chunked]
        np.testing.assert_allclose(
            whole.credibility, chunked.credibility, rtol=1e-9, atol=1e-12
        )

    def test_empty_batch(self):
        prom, _, _ = _classification_setup(seed=1)
        batch = prom.evaluate(np.zeros((0, 6)), np.zeros((0, 4)))
        assert len(batch) == 0
        assert batch.expert_names == ("LAC", "TopK", "APS", "RAPS")

    def test_prediction_region_batch_matches_scalar(self):
        prom, test_features, test_probabilities = _classification_setup(seed=11)
        membership = prom.prediction_region_batch(test_features, test_probabilities)
        for i in range(len(test_features)):
            region = prom.prediction_region(test_features[i], test_probabilities[i])
            np.testing.assert_array_equal(np.flatnonzero(membership[i]), region)


class TestRegressorBatchIdentity:
    @given(
        seed=st.integers(0, 30),
        weight_mode=st.sampled_from(["count", "multiply"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_batch_equals_per_sample(self, seed, weight_mode):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(80, 5))
        targets = 2.0 * features[:, 0] + np.sin(features[:, 1])
        predictions = targets + rng.normal(scale=0.2, size=80)
        prom = PromRegressor(n_clusters=3, seed=0, weight_mode=weight_mode)
        prom.calibrate(features, predictions, targets)

        test_features = np.concatenate(
            [rng.normal(size=(12, 5)), rng.normal(size=(4, 5)) + 6.0]
        )
        test_predictions = rng.normal(size=16)
        batch = prom.evaluate(test_features, test_predictions)
        serial = evaluate_serial(prom, test_features, test_predictions)
        ones = [
            prom.evaluate_one(test_features[i], float(test_predictions[i]))
            for i in range(len(test_features))
        ]
        _assert_batch_matches_decisions(batch, serial)
        _assert_batch_matches_decisions(batch, ones)

    def test_approximate_target_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(70, 4))
        targets = features[:, 0] ** 2
        prom = PromRegressor(n_clusters=2, seed=0)
        prom.calibrate(features, targets + 0.1, targets)
        test = rng.normal(size=(9, 4))
        batched = prom.approximate_target_batch(test)
        scalars = [prom.approximate_target(test[i]) for i in range(len(test))]
        np.testing.assert_allclose(batched, scalars, rtol=1e-9, atol=1e-12)

    def test_loo_targets_match_naive_broadcast(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(40, 3))
        targets = rng.normal(size=40)
        prom = PromRegressor(k_neighbors=3)
        loo = prom._loo_targets(features, targets)
        diffs = features[:, None, :] - features[None, :, :]
        squared = np.sum(diffs * diffs, axis=2)
        np.fill_diagonal(squared, np.inf)
        nearest = np.argpartition(squared, 2, axis=1)[:, :3]
        np.testing.assert_allclose(loo, targets[nearest].mean(axis=1), atol=1e-9)


class TestDecisionBatchSequence:
    @pytest.fixture(scope="class")
    def batch_and_list(self):
        prom, test_features, test_probabilities = _classification_setup(seed=13)
        batch = prom.evaluate(test_features, test_probabilities)
        return batch, list(batch)

    def test_sequence_protocol(self, batch_and_list):
        batch, decisions = batch_and_list
        assert len(batch) == len(decisions)
        assert batch[0].accepted == decisions[0].accepted
        assert batch[-1].accepted == decisions[-1].accepted
        assert sum(1 for _ in batch) == len(decisions)
        sliced = batch[3:8]
        assert isinstance(sliced, DecisionBatch)
        assert len(sliced) == 5
        assert sliced[0].credibility == decisions[3].credibility
        with pytest.raises(IndexError):
            batch[len(batch)]

    def test_index_helpers_fast_path(self, batch_and_list):
        batch, decisions = batch_and_list
        np.testing.assert_array_equal(
            drifting_indices(batch), drifting_indices(decisions)
        )

    def test_relabel_budget_fast_path(self, batch_and_list):
        batch, decisions = batch_and_list
        np.testing.assert_array_equal(
            select_relabel_budget(batch, 0.5), select_relabel_budget(decisions, 0.5)
        )

    def test_summarize_fast_path(self, batch_and_list):
        batch, decisions = batch_and_list
        from_batch = summarize_decisions(batch)
        from_list = summarize_decisions(decisions)
        assert from_batch.n_rejected == from_list.n_rejected
        assert from_batch.mean_credibility == pytest.approx(
            from_list.mean_credibility
        )
        assert from_batch.expert_disagreement == pytest.approx(
            from_list.expert_disagreement
        )

    def test_trigger_stack_fast_path(self, batch_and_list):
        batch, decisions = batch_and_list
        fast = build_trigger_stack(TriggerConfig(window=50, threshold=0.2))
        slow = build_trigger_stack(TriggerConfig(window=50, threshold=0.2))
        fast.observe_batch(batch)
        slow.observe_batch(decisions)
        assert fast.rejection_rate == slow.rejection_rate
        assert fast.lifetime_rejection_rate == slow.lifetime_rejection_rate
