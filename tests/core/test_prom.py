"""Integration tests for PromClassifier and PromRegressor."""

import numpy as np
import pytest

from repro import PromClassifier, PromRegressor
from repro.core import (
    CalibrationError,
    StreamingPromClassifier,
    StreamingPromRegressor,
    LAC,
    NotCalibratedError,
    ValidationError,
    accepted_indices,
    detection_metrics,
    drifting_indices,
)
from repro.ml import MLPRegressor

from ..conftest import make_blobs


class TestPromClassifierLifecycle:
    def test_evaluate_before_calibrate_raises(self):
        prom = PromClassifier()
        with pytest.raises(NotCalibratedError):
            prom.evaluate_one(np.zeros(3), np.array([0.5, 0.5]))

    def test_empty_calibration_rejected(self):
        with pytest.raises(CalibrationError):
            PromClassifier().calibrate(np.zeros((0, 3)), np.zeros((0, 2)), [])

    def test_misaligned_calibration_rejected(self):
        with pytest.raises(CalibrationError):
            PromClassifier().calibrate(np.zeros((5, 3)), np.zeros((4, 2)), np.zeros(5))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(CalibrationError):
            PromClassifier().calibrate(
                np.zeros((3, 2)), np.full((3, 2), 0.5), np.array([0, 1, 5])
            )

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            PromClassifier(epsilon=0.0)
        with pytest.raises(ValueError):
            PromClassifier(epsilon=1.0)

    def test_no_functions_rejected(self):
        with pytest.raises(ValueError):
            PromClassifier(functions=[])

    def test_probability_width_mismatch_raises(self, calibrated_prom):
        with pytest.raises(ValueError, match="entries"):
            calibrated_prom.evaluate_one(np.zeros(32), np.array([0.5, 0.5]))

    def test_is_calibrated_flag(self, calibrated_prom):
        assert calibrated_prom.is_calibrated
        assert not PromClassifier().is_calibrated


def _assert_same_decisions(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)


class TestEvaluateBoundaryValidation:
    """Malformed evaluate inputs raise ValidationError and change nothing."""

    @pytest.fixture()
    def four_class(self):
        rng = np.random.default_rng(0)
        raw = rng.random((120, 4)) + 0.05
        prom = PromClassifier().calibrate(
            rng.normal(size=(120, 3)),
            raw / raw.sum(axis=1, keepdims=True),
            rng.integers(0, 4, 120),
        )
        raw_test = rng.random((5, 4)) + 0.05
        features = rng.normal(size=(5, 3))
        probabilities = raw_test / raw_test.sum(axis=1, keepdims=True)
        return prom, features, probabilities, prom.evaluate(features, probabilities)

    @pytest.mark.parametrize(
        "labels",
        [[-1] * 5, [4] * 5, [0, 1]],
        ids=["negative_label", "label_past_last_class", "short_label_list"],
    )
    def test_bad_predicted_labels_raise(self, four_class, labels):
        prom, features, probabilities, before = four_class
        with pytest.raises(ValidationError):
            prom.evaluate(features, probabilities, predicted_labels=labels)
        _assert_same_decisions(before, prom.evaluate(features, probabilities))

    def test_probability_row_count_mismatch_raises(self, four_class):
        prom, features, probabilities, before = four_class
        with pytest.raises(ValidationError):
            prom.evaluate(features, probabilities[:4])
        _assert_same_decisions(before, prom.evaluate(features, probabilities))

    def test_regressor_prediction_count_mismatch_raises(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(80, 3))
        targets = features[:, 0]
        prom = PromRegressor(n_clusters=3, seed=0).calibrate(
            features, targets + 0.1, targets
        )
        test = rng.normal(size=(5, 3))
        before = prom.evaluate(test, test[:, 0])
        with pytest.raises(ValidationError):
            prom.evaluate(test, np.zeros(9))
        _assert_same_decisions(before, prom.evaluate(test, test[:, 0]))


class TestNonFiniteInputs:
    """NaN/inf at the public boundary raise before any state changes."""

    @pytest.fixture()
    def classifier_data(self):
        rng = np.random.default_rng(3)
        raw = rng.random((150, 4)) + 0.05
        features = rng.normal(size=(150, 3))
        probabilities = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, 150)
        return features, probabilities, labels

    @staticmethod
    def _poisoned(array, value, index=(1, 1)):
        array = np.array(array, dtype=float)
        array[index] = value
        return array

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["features", "probabilities"])
    def test_classifier_evaluate_rejects_non_finite(self, classifier_data, value, where):
        features, probabilities, labels = classifier_data
        prom = PromClassifier().calibrate(features, probabilities, labels)
        test_f, test_p = features[:5], probabilities[:5]
        before = prom.evaluate(test_f, test_p)
        bad_f = self._poisoned(test_f, value) if where == "features" else test_f
        bad_p = self._poisoned(test_p, value) if where == "probabilities" else test_p
        with pytest.raises(ValidationError):
            prom.evaluate(bad_f, bad_p)
        with pytest.raises(ValidationError):
            prom.evaluate_one(bad_f[1], bad_p[1])
        _assert_same_decisions(before, prom.evaluate(test_f, test_p))

    @pytest.mark.parametrize("where", ["features", "probabilities"])
    def test_classifier_calibrate_rejects_non_finite(self, classifier_data, where):
        features, probabilities, labels = classifier_data
        prom = PromClassifier().calibrate(features, probabilities, labels)
        before = prom.evaluate(features[:5], probabilities[:5])
        bad_f = self._poisoned(features, np.nan) if where == "features" else features
        bad_p = (
            self._poisoned(probabilities, np.inf)
            if where == "probabilities"
            else probabilities
        )
        with pytest.raises(CalibrationError):
            prom.calibrate(bad_f, bad_p, labels)
        _assert_same_decisions(before, prom.evaluate(features[:5], probabilities[:5]))

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("where", ["features", "probabilities"])
    def test_streaming_update_rejects_non_finite(self, classifier_data, n_shards, where):
        features, probabilities, labels = classifier_data
        streaming = StreamingPromClassifier(capacity=200, n_shards=n_shards, seed=0)
        streaming.calibrate(features[:120], probabilities[:120], labels[:120])
        epoch, size = streaming.epoch, len(streaming.store)
        before = streaming.evaluate(features[:5], probabilities[:5])
        new_f, new_p = features[120:], probabilities[120:]
        bad_f = self._poisoned(new_f, np.nan) if where == "features" else new_f
        bad_p = self._poisoned(new_p, np.nan) if where == "probabilities" else new_p
        with pytest.raises(CalibrationError):
            streaming.update(bad_f, bad_p, labels[120:])
        assert streaming.epoch == epoch
        assert len(streaming.store) == size
        _assert_same_decisions(
            before, streaming.evaluate(features[:5], probabilities[:5])
        )

    def test_regressor_rejects_non_finite(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(90, 3))
        targets = features[:, 0]
        streaming = StreamingPromRegressor(capacity=120, n_shards=3, seed=0)
        streaming.calibrate(features[:80], targets[:80] + 0.1, targets[:80])
        epoch = streaming.epoch
        test = features[80:85]
        before = streaming.evaluate(test, test[:, 0])
        with pytest.raises(ValidationError):
            streaming.evaluate(self._poisoned(test, np.nan), test[:, 0])
        with pytest.raises(ValidationError):
            streaming.evaluate(test, self._poisoned(test[:, 0], np.inf, index=2))
        with pytest.raises(CalibrationError):
            streaming.update(
                features[85:], targets[85:], self._poisoned(targets[85:], np.nan, 0)
            )
        assert streaming.epoch == epoch
        _assert_same_decisions(before, streaming.evaluate(test, test[:, 0]))


class TestPromClassifierDetection:
    def test_accepts_most_in_distribution_samples(self, blob_data, fitted_mlp, calibrated_prom):
        X_test, _ = blob_data["test"]
        probs = fitted_mlp.predict_proba(X_test)
        decisions = calibrated_prom.evaluate(fitted_mlp.hidden_embedding(X_test), probs)
        reject_rate = np.mean([d.drifting for d in decisions])
        assert reject_rate < 0.25

    def test_rejects_most_drifted_mispredictions(self, blob_data, fitted_mlp, calibrated_prom):
        X_drift, y_drift = blob_data["drift"]
        probs = fitted_mlp.predict_proba(X_drift)
        preds = np.argmax(probs, axis=1)
        decisions = calibrated_prom.evaluate(fitted_mlp.hidden_embedding(X_drift), probs, preds)
        mispredicted = preds != y_drift
        rejected = np.array([d.drifting for d in decisions])
        metrics = detection_metrics(mispredicted, rejected)
        assert metrics.recall >= 0.55

    def test_mixed_stream_detection_quality(self, blob_data, fitted_mlp, calibrated_prom):
        X = np.concatenate([blob_data["test"][0], blob_data["drift"][0]])
        y = np.concatenate([blob_data["test"][1], blob_data["drift"][1]])
        probs = fitted_mlp.predict_proba(X)
        preds = np.argmax(probs, axis=1)
        decisions = calibrated_prom.evaluate(fitted_mlp.hidden_embedding(X), probs, preds)
        metrics = detection_metrics(preds != y, [d.drifting for d in decisions])
        assert metrics.f1 > 0.5
        assert metrics.recall > 0.55

    def test_decisions_expose_votes(self, blob_data, fitted_mlp, calibrated_prom):
        X_test, _ = blob_data["test"]
        decision = calibrated_prom.evaluate_one(
            fitted_mlp.hidden_embedding(X_test[:1])[0],
            fitted_mlp.predict_proba(X_test[:1])[0],
        )
        assert len(decision.votes) == 4
        names = [vote.function_name for vote in decision.votes]
        assert names == ["LAC", "TopK", "APS", "RAPS"]

    def test_index_helpers_partition(self, blob_data, fitted_mlp, calibrated_prom):
        X_test, _ = blob_data["test"]
        probs = fitted_mlp.predict_proba(X_test)
        decisions = calibrated_prom.evaluate(fitted_mlp.hidden_embedding(X_test), probs)
        drifted = set(drifting_indices(decisions).tolist())
        accepted = set(accepted_indices(decisions).tolist())
        assert drifted | accepted == set(range(len(decisions)))
        assert drifted & accepted == set()

    def test_single_function_committee(self, blob_data, fitted_mlp):
        X_cal, y_cal = blob_data["cal"]
        prom = PromClassifier(functions=[LAC()])
        prom.calibrate(fitted_mlp.hidden_embedding(X_cal), fitted_mlp.predict_proba(X_cal), y_cal)
        decision = prom.evaluate_one(
            fitted_mlp.hidden_embedding(X_cal[:1])[0],
            fitted_mlp.predict_proba(X_cal[:1])[0],
        )
        assert len(decision.votes) == 1

    def test_multiply_mode_runs(self, blob_data, fitted_mlp):
        X_cal, y_cal = blob_data["cal"]
        prom = PromClassifier(weight_mode="multiply", tau=500.0)
        prom.calibrate(fitted_mlp.hidden_embedding(X_cal), fitted_mlp.predict_proba(X_cal), y_cal)
        X_test, _ = blob_data["test"]
        decisions = prom.evaluate(
            fitted_mlp.hidden_embedding(X_test[:10]), fitted_mlp.predict_proba(X_test[:10])
        )
        assert len(decisions) == 10

    def test_prediction_region_contains_truth_mostly(self, blob_data, fitted_mlp, calibrated_prom):
        X_test, y_test = blob_data["test"]
        emb = fitted_mlp.hidden_embedding(X_test)
        probs = fitted_mlp.predict_proba(X_test)
        hits = sum(
            1
            for i in range(60)
            if y_test[i] in calibrated_prom.prediction_region(emb[i], probs[i])
        )
        assert hits / 60 > 0.7  # roughly 1 - epsilon coverage


class TestPromRegressor:
    @pytest.fixture(scope="class")
    def regression_setup(self):
        X_train, _ = make_blobs(400, seed=10)
        X_cal, _ = make_blobs(250, seed=11)
        X_test, _ = make_blobs(150, seed=12)
        X_drift, _ = make_blobs(150, shift=4.0, seed=13)

        def target(X):
            return 2.0 * X[:, 0] + np.sin(X[:, 1])

        model = MLPRegressor(epochs=60, seed=0).fit(X_train, target(X_train))
        prom = PromRegressor(n_clusters=4, seed=0)
        prom.calibrate(X_cal, model.predict(X_cal), target(X_cal))
        return model, prom, X_test, X_drift, target

    def test_accepts_in_distribution(self, regression_setup):
        model, prom, X_test, _, _ = regression_setup
        decisions = prom.evaluate(X_test, model.predict(X_test))
        assert np.mean([d.drifting for d in decisions]) < 0.35

    def test_rejects_drifted(self, regression_setup):
        model, prom, _, X_drift, _ = regression_setup
        decisions = prom.evaluate(X_drift, model.predict(X_drift))
        assert np.mean([d.drifting for d in decisions]) > 0.7

    def test_approximate_target_tracks_knn(self, regression_setup):
        model, prom, X_test, _, target = regression_setup
        approx = prom.approximate_target(X_test[0])
        assert np.isfinite(approx)

    def test_gap_statistic_cluster_choice(self):
        X_cal, _ = make_blobs(120, seed=20)
        model = MLPRegressor(epochs=20, seed=0).fit(X_cal, X_cal[:, 0])
        prom = PromRegressor(seed=0)  # n_clusters=None -> gap statistic
        prom.calibrate(X_cal, model.predict(X_cal), X_cal[:, 0])
        assert prom.clusterer_.k_ >= 2

    def test_calibration_residual_modes_differ(self):
        X_cal, _ = make_blobs(100, seed=21)
        y = X_cal[:, 0]
        preds = y + 0.01  # nearly perfect model
        loo = PromRegressor(n_clusters=3, calibration_residuals="loo", seed=0)
        true = PromRegressor(n_clusters=3, calibration_residuals="true", seed=0)
        loo.calibrate(X_cal, preds, y)
        true.calibrate(X_cal, preds, y)
        # true-mode scores are the tiny model residuals; loo-mode scores
        # include the kNN approximation error and are larger
        assert np.mean(loo._scores[0]) > np.mean(true._scores[0])

    def test_invalid_residual_mode(self):
        with pytest.raises(ValueError):
            PromRegressor(calibration_residuals="bogus")

    def test_evaluate_before_calibrate_raises(self):
        with pytest.raises(NotCalibratedError):
            PromRegressor().evaluate_one(np.zeros(3), 1.0)

    def test_invalid_k_neighbors(self):
        with pytest.raises(ValueError):
            PromRegressor(k_neighbors=0)
