"""Hypothesis property tests on Prom's core statistical invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    AdaptiveWeighting,
    PromClassifier,
    assess_batch,
    default_classification_functions,
    group_scores_by_label,
    pvalues_all_labels_batch,
)
from repro.core.scores import confidence_from_set_size

from .serial_reference import prediction_set


def _probabilities(draw_raw):
    raw = np.abs(draw_raw) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


def _label0_pvalue(scores, subset, test_score, mode="count", tail="right"):
    """Label 0's p-value for a batch of one through the batch kernel."""
    layout = group_scores_by_label(scores, np.zeros(len(scores), dtype=int), 1)
    pvalues = pvalues_all_labels_batch(
        layout, subset, np.array([[test_score]]), weight_mode=mode, tail=tail
    )
    return float(pvalues[0, 0])


class TestPvalueInvariants:
    @given(
        hnp.arrays(np.float64, (25,), elements=st.floats(0, 5, allow_nan=False)),
        st.floats(0, 5, allow_nan=False),
        st.sampled_from(["count", "multiply"]),
        st.sampled_from(["right", "both"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pvalue_always_in_unit_interval(self, scores, test_score, mode, tail):
        features = np.zeros((25, 2))
        subset = AdaptiveWeighting(min_samples=30, tau=1e6).select_batch(
            features, np.zeros((1, 2))
        )
        p = _label0_pvalue(scores, subset, test_score, mode=mode, tail=tail)
        assert 0.0 <= p <= 1.0

    @given(st.integers(3, 40))
    @settings(max_examples=30, deadline=None)
    def test_two_sided_never_exceeds_twice_one_sided_min(self, n):
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        features = np.zeros((n, 2))
        subset = AdaptiveWeighting(min_samples=n + 1, tau=1e6).select_batch(
            features, np.zeros((1, 2))
        )
        test_score = float(rng.random())
        right = _label0_pvalue(scores, subset, test_score, tail="right")
        both = _label0_pvalue(scores, subset, test_score, tail="both")
        assert both <= 2.0 * min(right, 1.0) + 1e-9


class TestPredictionSetInvariants:
    @given(
        hnp.arrays(np.float64, (6,), elements=st.floats(0, 1, allow_nan=False)),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_set_shrinks_as_epsilon_grows(self, pvalues, epsilon):
        small = prediction_set(pvalues, epsilon)
        large = prediction_set(pvalues, min(0.9, epsilon * 2))
        assert set(large.tolist()) <= set(small.tolist())
        # the batch kernel's set sizes shrink the same way
        sizes = [
            int(assess_batch(pvalues[None, :], [0], eps).prediction_set_size[0])
            for eps in (epsilon, min(0.9, epsilon * 2))
        ]
        assert sizes == [len(small), len(large)]

    @given(st.integers(0, 10), st.floats(0.5, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_confidence_bounded_and_peaked_at_one(self, size, scale):
        value = confidence_from_set_size(size, scale)
        assert 0.0 < value <= 1.0
        assert value <= confidence_from_set_size(1, scale)


class TestCalibrationScoreInvariants:
    @given(
        hnp.arrays(
            np.float64, (8, 4), elements=st.floats(0.01, 1.0, allow_nan=False)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_true_label_scores_no_worse_than_random_label(self, raw):
        """On average the true (= most probable) label is least strange."""
        probs = _probabilities(raw)
        top = np.argmax(probs, axis=1)
        bottom = np.argmin(probs, axis=1)
        for function in default_classification_functions():
            if function.tail != "right":
                continue
            top_scores = function.score(probs, top)
            bottom_scores = function.score(probs, bottom)
            assert np.all(top_scores <= bottom_scores + 1e-9)


class TestEndToEndInvariants:
    @given(st.integers(0, 5))
    @settings(max_examples=5, deadline=None)
    def test_calibration_samples_mostly_accepted(self, seed):
        """Evaluating the calibration set itself yields few rejections."""
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(120, 5))
        centers = rng.normal(size=(3, 5)) * 2
        labels = rng.integers(0, 3, 120)
        features += centers[labels]
        logits = -np.linalg.norm(
            features[:, None, :] - centers[None, :, :], axis=2
        )
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum(axis=1, keepdims=True)

        prom = PromClassifier()
        prom.calibrate(features, probabilities, labels)
        decisions = prom.evaluate(features, probabilities)
        reject_rate = np.mean([d.drifting for d in decisions])
        assert reject_rate < 0.4
