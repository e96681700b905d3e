"""Tests for adaptive weighting and conformal p-values.

Each test drives the shipped batch kernels (``select_batch``,
``pvalues_all_labels_batch``) with a batch of one test sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveWeighting,
    UniformWeighting,
    group_scores_by_label,
    pvalues_all_labels_batch,
)


def _features(n=100, d=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def _select_one(weighting, features, test):
    """The batch selection of one test row: ``(indices, weights)``."""
    subset = weighting.select_batch(features, np.asarray(test)[None, :])
    return subset.indices[0], subset.weights[0]


def _distances(features, indices, test):
    return np.sqrt(np.sum((features[indices] - test) ** 2, axis=1))


def _pvalue(scores, labels, subset, test_score, label, weight_mode="count", tail="right"):
    """``label``'s p-value for a batch of one through the batch kernel."""
    n_labels = max(int(np.max(labels)), label) + 1
    layout = group_scores_by_label(scores, labels, n_labels)
    test_scores = np.full((1, n_labels), float(test_score))
    pvalues = pvalues_all_labels_batch(
        layout, subset, test_scores, weight_mode=weight_mode, tail=tail
    )
    return float(pvalues[0, label])


class TestAdaptiveWeighting:
    def test_small_calibration_uses_all(self):
        features = _features(50)
        indices, _ = _select_one(AdaptiveWeighting(min_samples=200), features, features[0])
        assert len(indices) == 50

    def test_large_calibration_keeps_fraction(self):
        features = _features(400)
        weighting = AdaptiveWeighting(fraction=0.5, min_samples=200, tau=1.0)
        indices, _ = _select_one(weighting, features, features[0])
        assert len(indices) == 200

    def test_selected_are_the_nearest(self):
        features = _features(300)
        test = features[0]
        weighting = AdaptiveWeighting(fraction=0.1, min_samples=10, tau=1.0)
        indices, _ = _select_one(weighting, features, test)
        all_distances = np.sqrt(np.sum((features - test) ** 2, axis=1))
        threshold = np.sort(all_distances)[len(indices) - 1]
        assert np.all(_distances(features, indices, test) <= threshold + 1e-9)

    def test_weights_decay_with_distance(self):
        features = _features(100)
        weighting = AdaptiveWeighting(tau=1.0)
        indices, weights = _select_one(weighting, features, features[0])
        order = np.argsort(_distances(features, indices, features[0]))
        sorted_weights = weights[order]
        assert np.all(np.diff(sorted_weights) <= 1e-12)

    def test_identical_sample_has_weight_one(self):
        features = _features(30)
        indices, weights = _select_one(AdaptiveWeighting(tau=5.0), features, features[7])
        position = np.where(indices == 7)[0][0]
        assert weights[position] == pytest.approx(1.0)

    def test_auto_tau_resolves_to_median_distance_scale(self):
        features = _features(150)
        weighting = AdaptiveWeighting()
        assert weighting.effective_tau is None
        tau = weighting.resolve_tau(features)
        assert tau > 0
        assert weighting.effective_tau == tau
        # explicit tau wins over auto-resolution
        explicit = AdaptiveWeighting(tau=42.0)
        assert explicit.resolve_tau(features) == 42.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            _select_one(AdaptiveWeighting(tau=1.0), _features(10, d=4), np.zeros(3))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdaptiveWeighting(fraction=0.0)
        with pytest.raises(ValueError):
            AdaptiveWeighting(fraction=1.5)
        with pytest.raises(ValueError):
            AdaptiveWeighting(tau=-1.0)
        with pytest.raises(ValueError):
            AdaptiveWeighting(min_samples=0)

    def test_uniform_weighting_is_unit(self):
        features = _features(100)
        indices, weights = _select_one(UniformWeighting(), features, features[0])
        assert len(indices) == 100
        assert np.all(weights == 1.0)


class TestClassificationPvalue:
    def _subset(self, n, tau=1e12):
        """All-selected subset of one test row with (near-)unit weights."""
        features = np.zeros((n, 2))
        return AdaptiveWeighting(min_samples=n + 1, tau=tau).select_batch(
            features, np.zeros((1, 2))
        )

    def test_conforming_sample_scores_high(self):
        scores = np.linspace(0.1, 1.0, 10)
        labels = np.zeros(10, dtype=int)
        subset = self._subset(10)
        p = _pvalue(scores, labels, subset, test_score=0.1, label=0)
        assert p > 0.85

    def test_strange_sample_scores_low(self):
        scores = np.linspace(0.1, 1.0, 10)
        labels = np.zeros(10, dtype=int)
        subset = self._subset(10)
        p = _pvalue(scores, labels, subset, test_score=5.0, label=0)
        assert p < 0.1

    def test_unseen_label_is_zero(self):
        scores = np.ones(5)
        labels = np.zeros(5, dtype=int)
        subset = self._subset(5)
        assert _pvalue(scores, labels, subset, 0.5, label=3) == 0.0

    def test_only_same_label_samples_count(self):
        scores = np.array([0.1, 0.1, 9.9, 9.9])
        labels = np.array([0, 0, 1, 1])
        subset = self._subset(4)
        # For label 0 a test score of 1.0 exceeds both label-0 scores.
        p0 = _pvalue(scores, labels, subset, 1.0, label=0)
        p1 = _pvalue(scores, labels, subset, 1.0, label=1)
        assert p0 < 0.2
        assert p1 > 0.6

    def test_far_test_sample_gets_zero_pvalue_from_weights(self):
        """An alien sample should yield ~0 even if scores tie (count mode,
        no weight floor)."""
        features = np.random.default_rng(0).normal(size=(50, 3))
        weighting = AdaptiveWeighting(min_samples=100, tau=1.0, weight_floor=0.0)
        far = np.full(3, 100.0)
        subset = weighting.select_batch(features, far[None, :])
        scores = np.ones(50)
        labels = np.zeros(50, dtype=int)
        p = _pvalue(scores, labels, subset, test_score=1.0, label=0)
        assert p < 0.01

    def test_weight_floor_preserves_probability_evidence(self):
        """With the default floor, a far-but-conforming sample keeps a
        non-trivial p-value — bounding FPR under pure covariate shift."""
        features = np.random.default_rng(0).normal(size=(50, 3))
        weighting = AdaptiveWeighting(min_samples=100, tau=1.0)
        subset = weighting.select_batch(features, np.full((1, 3), 100.0))
        scores = np.ones(50)
        labels = np.zeros(50, dtype=int)
        p = _pvalue(scores, labels, subset, test_score=1.0, label=0)
        assert p > 0.1

    def test_invalid_weight_floor(self):
        with pytest.raises(ValueError, match="weight_floor"):
            AdaptiveWeighting(weight_floor=1.5)

    def test_multiply_mode_matches_paper_equation(self):
        scores = np.array([0.5, 0.6, 0.7, 0.8])
        labels = np.zeros(4, dtype=int)
        subset = self._subset(4)  # weights ~1
        p = _pvalue(
            scores, labels, subset, test_score=0.65, label=0, weight_mode="multiply"
        )
        # Paper Eq. 2: two adjusted scores (0.7, 0.8) are >= 0.65 and the
        # denominator is n + 1 = 5 (the test sample counts itself).
        assert p == pytest.approx(2 / 5)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="weight_mode"):
            _pvalue(
                np.ones(3),
                np.zeros(3, dtype=int),
                self._subset(3),
                0.5,
                0,
                weight_mode="bogus",
            )

    def test_pvalues_all_labels_shape(self):
        scores = np.random.default_rng(0).random(20)
        labels = np.random.default_rng(1).integers(0, 3, 20)
        subset = self._subset(20)
        layout = group_scores_by_label(scores, labels, 3)
        pvalues = pvalues_all_labels_batch(layout, subset, np.array([[0.5, 0.5, 0.5]]))
        assert pvalues.shape == (1, 3)
        assert np.all((pvalues >= 0) & (pvalues <= 1))

    @given(st.floats(0.0, 2.0), st.integers(5, 40))
    @settings(max_examples=25, deadline=None)
    def test_property_pvalue_in_unit_interval(self, test_score, n):
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        subset = self._subset(n)
        for label in (0, 1):
            p = _pvalue(scores, labels, subset, test_score, label)
            assert 0.0 <= p <= 1.0

    @given(st.integers(5, 30))
    @settings(max_examples=25, deadline=None)
    def test_property_monotone_in_test_score(self, n):
        """A stranger test sample never has a higher p-value."""
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        labels = np.zeros(n, dtype=int)
        subset = self._subset(n)
        p_low = _pvalue(scores, labels, subset, 0.1, 0)
        p_high = _pvalue(scores, labels, subset, 0.9, 0)
        assert p_high <= p_low
