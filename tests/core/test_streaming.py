"""Property tests for the streaming detectors (DESIGN.md §3).

The core guarantee: after ANY sequence of store mutations, the
streamed detector is **bit-identical** in its decisions — accept flags,
credibility, confidence, per-expert votes — to a full recalibration on
the surviving samples.
"""

import copy

import numpy as np
import pytest

from repro.core import (
    CalibrationError,
    NotCalibratedError,
    PromClassifier,
    PromRegressor,
    StreamingPromClassifier,
    StreamingPromRegressor,
    ValidationError,
)


def _classification_batch(n, n_classes=5, n_features=8, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    raw = g.random((n, n_classes)) + 0.05
    probabilities = raw / raw.sum(axis=1, keepdims=True)
    labels = g.integers(0, n_classes, n)
    return features, probabilities, labels


def _regression_batch(n, n_features=6, seed=0, shift=0.0):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, n_features)) + shift
    targets = 2.0 * features[:, 0] + np.sin(features[:, 1])
    predictions = targets + g.normal(scale=0.2, size=n)
    return features, predictions, targets


def _assert_decision_identical(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.expert_accept, b.expert_accept)
    assert np.array_equal(a.expert_credibility, b.expert_credibility)
    assert np.array_equal(a.expert_set_size, b.expert_set_size)


class TestStreamingClassifierEquivalence:
    @pytest.mark.parametrize("policy", ["fifo", "reservoir", "lowest_weight"])
    def test_streamed_equals_fresh_calibrate(self, policy):
        """The tentpole property: streamed state == fresh calibrate()."""
        streaming = StreamingPromClassifier(capacity=150, eviction=policy, seed=11)
        features, probabilities, labels = _classification_batch(120, seed=0)
        streaming.calibrate(features, probabilities, labels)
        test_f, test_p, _ = _classification_batch(40, seed=99, shift=0.5)

        g = np.random.default_rng(42)
        for round_ in range(8):
            n = int(g.integers(5, 30))
            batch = _classification_batch(n, seed=100 + round_, shift=0.1 * round_)
            streaming.update(*batch, priority=g.random(n))
            if round_ % 3 == 2:
                survivors = len(streaming.store)
                victims = g.choice(survivors, size=min(4, survivors - 1), replace=False)
                streaming.evict(victims)
            assert len(streaming.store) <= 150

            fresh = PromClassifier()
            fresh.calibrate(
                streaming.store.column("features"),
                streaming.store.column("probabilities"),
                streaming.store.column("label"),
            )
            _assert_decision_identical(
                streaming.evaluate(test_f, test_p), fresh.evaluate(test_f, test_p)
            )

    def test_internal_state_matches_fresh_calibrate(self):
        streaming = StreamingPromClassifier(capacity=80, seed=0)
        streaming.calibrate(*_classification_batch(70, seed=1))
        for round_ in range(4):
            streaming.update(*_classification_batch(12, seed=2 + round_))
        fresh = PromClassifier()
        fresh.calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        prom = streaming.prom
        assert np.array_equal(prom._features, fresh._features)
        assert np.array_equal(prom._labels, fresh._labels)
        assert prom.weighting.effective_tau == fresh.weighting.effective_tau
        for mine, theirs in zip(prom._layouts, fresh._layouts):
            assert np.array_equal(mine.scores, theirs.scores)
            assert np.array_equal(mine.labels, theirs.labels)
            assert np.array_equal(mine.group_counts, theirs.group_counts)

    def test_initial_calibrate_respects_capacity(self):
        streaming = StreamingPromClassifier(capacity=50, seed=0)
        streaming.calibrate(*_classification_batch(200, seed=3))
        assert streaming.calibration_size == 50
        assert len(streaming.store) == 50

    def test_update_before_calibrate_raises(self):
        streaming = StreamingPromClassifier(capacity=50)
        with pytest.raises(NotCalibratedError):
            streaming.update(*_classification_batch(5, seed=0))

    def test_update_validates_class_count(self):
        streaming = StreamingPromClassifier(capacity=50)
        streaming.calibrate(*_classification_batch(40, n_classes=5, seed=0))
        bad = _classification_batch(5, n_classes=7, seed=1)
        with pytest.raises(CalibrationError):
            streaming.update(*bad)

    def test_evict_cannot_empty_the_store(self):
        streaming = StreamingPromClassifier(capacity=50)
        streaming.calibrate(*_classification_batch(10, seed=0))
        with pytest.raises(CalibrationError):
            streaming.evict(np.arange(10))

    def test_frozen_tau_restored_by_refresh(self):
        streaming = StreamingPromClassifier(capacity=60, seed=0)
        streaming.calibrate(*_classification_batch(50, seed=4))
        tau_before = streaming.prom.weighting.effective_tau
        streaming.update(*_classification_batch(30, seed=5, shift=3.0), retune_tau=False)
        assert streaming.prom.weighting.effective_tau == tau_before
        streaming.refresh()
        fresh = PromClassifier()
        fresh.calibrate(
            streaming.store.column("features"),
            streaming.store.column("probabilities"),
            streaming.store.column("label"),
        )
        assert streaming.prom.weighting.effective_tau == fresh.weighting.effective_tau


class TestStreamingRegressorEquivalence:
    @pytest.mark.parametrize("policy", ["fifo", "reservoir"])
    def test_streamed_equals_fixed_cluster_refresh(self, policy):
        """update() == full recompute with the fitted pseudo-labeller."""
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=4, calibration_residuals="true", seed=0),
            capacity=140,
            eviction=policy,
            seed=7,
        )
        streaming.calibrate(*_regression_batch(120, seed=0))
        g = np.random.default_rng(13)
        test_f = g.normal(size=(30, 6))
        test_p = g.normal(size=30)
        for round_ in range(5):
            streaming.update(*_regression_batch(18, seed=50 + round_, shift=0.2 * round_))
            if round_ == 3:
                streaming.evict([0, 1, 2])
            assert len(streaming.store) <= 140

            reference = copy.deepcopy(streaming)
            reference.refresh(refit_clusters=False)
            _assert_decision_identical(
                streaming.evaluate(test_f, test_p),
                reference.evaluate(test_f, test_p),
            )

    @pytest.mark.parametrize("residuals", ["true", "loo"])
    def test_fitted_clusterer_survives_slot_reuse(self, residuals):
        """Slot-reuse eviction must not rewrite the clusterer's reference rows.

        The fitted pseudo-labeller keeps the calibration features it
        was fit on; store views are immutable, so a reservoir update
        cannot change them under it.  The reference uses a clusterer
        copied before any update, which a deep copy taken afterwards
        would not guarantee.
        """
        streaming = StreamingPromRegressor(
            prom=PromRegressor(
                n_clusters=4, calibration_residuals=residuals, seed=0
            ),
            capacity=100,
            eviction="reservoir",
            seed=2,
        )
        streaming.calibrate(*_regression_batch(110, seed=1))
        pristine = copy.deepcopy(streaming.prom.clusterer_)
        g = np.random.default_rng(5)
        test_f, test_p = g.normal(size=(30, 6)), g.normal(size=30)
        for round_ in range(4):
            streaming.update(*_regression_batch(20, seed=30 + round_))
            assert np.array_equal(
                streaming.prom.clusterer_._features, pristine._features
            )
            reference = copy.deepcopy(streaming)
            reference.prom.clusterer_ = copy.deepcopy(pristine)
            reference.refresh(refit_clusters=False)
            _assert_decision_identical(
                streaming.evaluate(test_f, test_p),
                reference.evaluate(test_f, test_p),
            )

    def test_loo_mode_falls_back_to_full_recompute(self):
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=3, calibration_residuals="loo", seed=0),
            capacity=60,
            seed=0,
        )
        streaming.calibrate(*_regression_batch(50, seed=1))
        clusterer = streaming.prom.clusterer_
        update = streaming.update(*_regression_batch(20, seed=2))
        assert update.n_after == 60
        assert streaming.calibration_size == 60
        # the fitted clusterer is kept — only refresh() re-clusters
        assert streaming.prom.clusterer_ is clusterer
        # the fallback equals a full recompute over the store with the
        # fitted pseudo-labeller (LOO residuals rebuilt over all rows)
        reference = copy.deepcopy(streaming)
        reference.refresh(refit_clusters=False)
        g = np.random.default_rng(3)
        test_f, test_p = g.normal(size=(15, 6)), g.normal(size=15)
        _assert_decision_identical(
            streaming.evaluate(test_f, test_p), reference.evaluate(test_f, test_p)
        )
        # LOO residuals really were recomputed over the merged set, not
        # carried over: they differ from the pre-update scores' length
        assert all(len(s) == 60 for s in streaming.prom._scores)

    def test_dimensionality_mismatch_rejected(self):
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=3, calibration_residuals="true"),
            capacity=60,
        )
        streaming.calibrate(*_regression_batch(40, seed=0))
        g = np.random.default_rng(1)
        with pytest.raises(CalibrationError):
            streaming.update(g.normal(size=(5, 9)), g.normal(size=5), g.normal(size=5))


def _eviction_wrapper(kind, n_shards):
    if kind == "classifier":
        streaming = StreamingPromClassifier(capacity=60, seed=0, n_shards=n_shards)
        streaming.calibrate(*_classification_batch(40, seed=0))
        test = _classification_batch(20, seed=9)[:2]
    else:
        streaming = StreamingPromRegressor(
            prom=PromRegressor(n_clusters=3, calibration_residuals="true"),
            capacity=60,
            seed=0,
            n_shards=n_shards,
        )
        streaming.calibrate(*_regression_batch(40, seed=0))
        test = _regression_batch(20, seed=9)[:2]
    return streaming, test


class TestEvictionValidation:
    @pytest.mark.parametrize("kind", ["classifier", "regressor"])
    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize(
        "positions",
        [[40], [-41], [0, 79], list(range(39)) + [79]],
        ids=["past-end", "before-start", "one-bad", "would-wrap-to-empty"],
    )
    def test_out_of_range_positions_raise_validation_error(
        self, kind, n_shards, positions
    ):
        streaming, test = _eviction_wrapper(kind, n_shards)
        epoch = streaming.epoch
        before = streaming.evaluate(*test)
        with pytest.raises(ValidationError, match="out of range"):
            streaming.evict(positions)
        assert streaming.epoch == epoch
        assert len(streaming.store) == 40
        _assert_decision_identical(streaming.evaluate(*test), before)

    @pytest.mark.parametrize("kind", ["classifier", "regressor"])
    def test_in_range_negative_positions_still_evict(self, kind):
        streaming, _ = _eviction_wrapper(kind, 1)
        streaming.evict([-1, 0])
        assert len(streaming.store) == 38
