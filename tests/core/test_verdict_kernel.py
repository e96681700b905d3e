"""Oracle for the predicted-label (verdict) kernel (DESIGN.md §2).

``evaluate`` on a detector that owns its state scores only each row's
predicted label: one integer compare keeps the selected terms whose
calibration label is the predicted one, and the p-value kernel bins
them one bin per row.  Its credibility column and accept flags must be
bitwise equal to the full-label kernel, which stays the reference here
(``serial_reference.pvalues_all_labels_batch`` at kernel level, an
eager evaluation at detector level) and to the per-sample serial stack
wherever that stack's arithmetic is exact.
"""

import copy

import numpy as np
import pytest

from repro.core import (
    APS,
    LAC,
    RAPS,
    AdaptiveWeighting,
    PromClassifier,
    PromRegressor,
    TopK,
    UniformWeighting,
    bin_subset_by_label,
    pvalues_from_binning,
)

from .serial_reference import evaluate_serial, pvalues_all_labels_batch


class TwoSidedTopK(TopK):
    """Top-K ranks with a two-sided tail: every score is a tie-prone integer."""

    name = "TopK2"
    tail = "both"


def _probabilities(g, n, n_labels, sharpness=4):
    raw = g.random((n, n_labels)) ** sharpness + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def _calibration(n=400, n_labels=6, d=5, seed=0, unobserved=None):
    g = np.random.default_rng(seed)
    features = g.normal(size=(n, d))
    probabilities = _probabilities(g, n, n_labels)
    labels = g.integers(0, n_labels, n)
    if unobserved is not None:
        labels[labels == unobserved] = (unobserved + 1) % n_labels
    return features, probabilities, labels


def _test_batch(n=60, n_labels=6, d=5, seed=1, shift=0.3):
    g = np.random.default_rng(seed)
    return g.normal(size=(n, d)) + shift, _probabilities(g, n, n_labels)


class TestKernel:
    @pytest.mark.parametrize("weight_mode", ["count", "multiply"])
    @pytest.mark.parametrize("function", [LAC(), TopK(), APS(), TwoSidedTopK()])
    @pytest.mark.parametrize("weighting", ["adaptive", "uniform"])
    def test_credibility_column_is_the_full_column(self, weight_mode, function, weighting):
        features, probabilities, labels = _calibration(unobserved=5)
        test_features, test_probabilities = _test_batch()
        g = np.random.default_rng(7)
        predicted = g.integers(0, 6, len(test_features))
        predicted[:5] = 5  # never observed in calibration: p-value 0
        selector = (
            AdaptiveWeighting(fraction=0.5, min_samples=50)
            if weighting == "adaptive"
            else UniformWeighting()
        )
        selector.resolve_tau(features)
        subset = selector.select_batch(features, test_features)
        scores = function.score(probabilities, labels)
        test_scores = function.score_all_labels(test_probabilities)
        full = pvalues_all_labels_batch(
            scores, labels, subset, test_scores, 6, weight_mode=weight_mode,
            tail=function.tail,
        )
        rows = np.arange(len(predicted))
        verdict = bin_subset_by_label(subset, labels, 6, predicted)
        assert verdict.n_labels == 1
        column = pvalues_from_binning(
            scores,
            verdict,
            test_scores[rows, predicted][:, None],
            weight_mode=weight_mode,
            tail=function.tail,
        )
        assert column.shape == (len(predicted), 1)
        assert np.array_equal(column[:, 0], full[rows, predicted])
        assert np.array_equal(column[:5, 0], np.zeros(5))

    def test_ties_at_the_score_extremes(self):
        """Two-sided ranks tie at rank 1 and at the last rank on most rows."""
        features, probabilities, labels = _calibration(n=300, n_labels=4, seed=3)
        test_features, test_probabilities = _test_batch(n=40, n_labels=4, seed=4)
        function = TwoSidedTopK()
        scores = function.score(probabilities, labels)
        test_scores = function.score_all_labels(test_probabilities)
        subset = UniformWeighting().select_batch(features, test_features)
        rows = np.arange(len(test_features))
        for predicted in (np.zeros(40, dtype=int), np.argmax(test_probabilities, 1)):
            extreme = test_scores[rows, predicted]
            assert np.isin(extreme, (1.0, 4.0)).mean() > 0.2
            full = pvalues_all_labels_batch(
                scores, labels, subset, test_scores, 4, tail="both"
            )
            verdict = bin_subset_by_label(subset, labels, 4, predicted)
            column = pvalues_from_binning(
                scores, verdict, extreme[:, None], tail="both"
            )
            assert np.array_equal(column[:, 0], full[rows, predicted])


REGIMES = {
    "default": {},
    # rows with epsilon < credibility < threshold need their full row
    "credibility_above_epsilon": {"credibility_threshold": 0.45},
    # exp(-1/(2 c^2)) >= 0.9: an empty effective set no longer rejects
    "large_gaussian_scale": {"gaussian_scale": 4.0},
    "low_confidence_threshold": {"confidence_threshold": 0.5},
}


def _functions():
    return [LAC(), TopK(), APS(), RAPS(), TwoSidedTopK()]


def _eager_copy(prom):
    eager = copy.copy(prom)
    eager._eager_detail = True
    return eager


class TestDetector:
    @pytest.mark.parametrize("weight_mode", ["count", "multiply"])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_verdict_equals_full_kernel(self, weight_mode, regime):
        prom = PromClassifier(
            functions=_functions(),
            weight_mode=weight_mode,
            min_calibration=100,
            **REGIMES[regime],
        ).calibrate(*_calibration(unobserved=5))
        test_features, test_probabilities = _test_batch(n=80)
        predicted = np.argmax(test_probabilities, axis=1)
        predicted[:6] = 5
        deferred = prom.evaluate(test_features, test_probabilities, predicted)
        eager = _eager_copy(prom).evaluate(test_features, test_probabilities, predicted)
        assert not deferred.detail.is_computed
        for name in ("accepted", "credibility", "expert_credibility", "expert_accept"):
            assert np.array_equal(getattr(deferred, name), getattr(eager, name)), name
        assert np.array_equal(deferred.expert_credibility[:, :6], np.zeros((5, 6)))
        credibility = deferred.expert_credibility
        below = credibility < (prom.credibility_threshold or prom.epsilon)
        if regime == "credibility_above_epsilon":
            # some rows take the full-label path
            assert (below & (credibility > prom.epsilon)).any()
        elif regime != "default":
            # an empty effective set no longer rejects
            assert (deferred.expert_accept & below).any()

    @pytest.mark.parametrize("weight_mode", ["count", "multiply"])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_serial_reference(self, weight_mode, regime):
        """Unit weights make the serial sums exact, so they match bitwise."""
        prom = PromClassifier(
            functions=_functions(),
            weight_mode=weight_mode,
            weighting=UniformWeighting(),
            **REGIMES[regime],
        ).calibrate(*_calibration(n=250, seed=5))
        test_features, test_probabilities = _test_batch(n=40, seed=6)
        batch = prom.evaluate(test_features, test_probabilities)
        serial = evaluate_serial(prom, test_features, test_probabilities)
        assert np.array_equal(batch.accepted, [d.accepted for d in serial])
        assert np.array_equal(batch.credibility, [d.credibility for d in serial])
        assert np.array_equal(
            batch.expert_credibility,
            np.transpose([[v.credibility for v in d.votes] for d in serial]),
        )
        assert np.array_equal(
            batch.expert_accept, np.transpose([[v.accept for v in d.votes] for d in serial])
        )

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_serial_reference_adaptive(self, regime):
        prom = PromClassifier(
            functions=_functions(), min_calibration=100, **REGIMES[regime]
        ).calibrate(*_calibration(seed=8))
        test_features, test_probabilities = _test_batch(seed=9)
        batch = prom.evaluate(test_features, test_probabilities)
        serial = evaluate_serial(prom, test_features, test_probabilities)
        assert np.array_equal(
            batch.expert_accept, np.transpose([[v.accept for v in d.votes] for d in serial])
        )
        np.testing.assert_allclose(
            batch.expert_credibility,
            np.transpose([[v.credibility for v in d.votes] for d in serial]),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_evaluate_one_is_the_eager_path(self):
        prom = PromClassifier(functions=_functions()).calibrate(*_calibration())
        test_features, test_probabilities = _test_batch(n=1)
        decision = prom.evaluate_one(test_features[0], test_probabilities[0])
        eager = _eager_copy(prom).evaluate(test_features, test_probabilities)
        assert decision == eager[0]
        assert [v.prediction_set_size for v in decision.votes] == list(
            eager.expert_set_size[:, 0]
        )

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_regressor(self, regime):
        g = np.random.default_rng(12)
        features = g.normal(size=(300, 4))
        targets = features[:, 0] * 2.0 + g.normal(scale=0.3, size=300)
        prom = PromRegressor(
            n_clusters=4, min_calibration=100, **REGIMES[regime]
        ).calibrate(features, targets + g.normal(scale=0.2, size=300), targets)
        test_features = g.normal(size=(50, 4)) + 0.5
        predictions = test_features[:, 0] * 2.0 + g.normal(scale=0.8, size=50)
        deferred = prom.evaluate(test_features, predictions)
        eager = _eager_copy(prom).evaluate(test_features, predictions)
        for name in ("accepted", "credibility", "expert_credibility", "expert_accept"):
            assert np.array_equal(getattr(deferred, name), getattr(eager, name)), name
        for name in ("confidence", "expert_confidence", "expert_set_size"):
            assert np.array_equal(getattr(deferred, name), getattr(eager, name)), name


class TestKeptTermWeights:
    """The verdict binning weighs only the terms it keeps.

    ``select_batch`` hands back the distance blocks, not a weight
    matrix; the verdict binning weighs each row's predicted-label terms
    straight from them.  Those weights and their per-row sums must be
    the materialised matrix's, bitwise, at the kept positions.
    """

    @pytest.mark.parametrize("chunk_size", [None, 7])
    @pytest.mark.parametrize("keep", ["all", "half", "uniform"])
    def test_kept_weights_are_the_materialised_weights(self, chunk_size, keep):
        features, _, labels = _calibration(n=300)
        test_features, test_probabilities = _test_batch(n=45)
        predicted = np.argmax(test_probabilities, axis=1)
        selector = {
            "all": AdaptiveWeighting(fraction=0.5, min_samples=1000),
            "half": AdaptiveWeighting(fraction=0.5, min_samples=50),
            "uniform": UniformWeighting(),
        }[keep]
        selector.resolve_tau(features)

        def select():
            return selector.select_batch(features, test_features, chunk_size=chunk_size)

        materialised = select()
        weights = materialised.weights
        k = 150 if keep == "half" else 300
        assert weights.shape == (45, k)
        full = bin_subset_by_label(materialised, labels, 6)
        kept_subset = select()
        verdict = bin_subset_by_label(kept_subset, labels, 6, predicted)

        kept = np.flatnonzero(labels[materialised.indices] == predicted[:, None])
        assert np.array_equal(verdict.flat_bins, kept // k)
        assert np.array_equal(verdict.indices, materialised.indices.ravel()[kept])
        assert np.array_equal(verdict.weights, weights.ravel()[kept])
        rows = np.arange(45)
        assert np.array_equal(verdict.weight_sums[:, 0], full.weight_sums[rows, predicted])
        # the kept-term read leaves the blocks: the full matrix still
        # materialises afterwards, with the same bits
        assert np.array_equal(kept_subset.weights, weights)

    def test_weights_materialise_once(self):
        features, _, _ = _calibration(n=300)
        test_features, _ = _test_batch(n=20)
        selector = AdaptiveWeighting(fraction=0.5, min_samples=50)
        subset = selector.select_batch(features, test_features, chunk_size=6)
        assert subset.weights is subset.weights

    @pytest.mark.parametrize("chunk_size", [None, 9])
    def test_open_rows(self, chunk_size):
        """Undecided rows re-bin a materialised slice of the selection."""
        prom = PromClassifier(
            functions=_functions(),
            min_calibration=100,
            **REGIMES["credibility_above_epsilon"],
        ).calibrate(*_calibration())
        test_features, test_probabilities = _test_batch(n=80)
        deferred = prom.evaluate(test_features, test_probabilities, chunk_size=chunk_size)
        eager = _eager_copy(prom).evaluate(
            test_features, test_probabilities, chunk_size=chunk_size
        )
        credibility = deferred.expert_credibility
        assert ((credibility > prom.epsilon) & (credibility < 0.45)).any()
        for name in ("accepted", "credibility", "expert_credibility", "expert_accept"):
            assert np.array_equal(getattr(deferred, name), getattr(eager, name)), name

    def test_verdict_evaluate_does_not_materialise_weights(self, monkeypatch):
        from repro.core.weighting import CalibrationSubsetBatch

        materialised = []
        weights = CalibrationSubsetBatch.weights

        def counting(subset):
            materialised.append(subset.indices.shape)
            return weights.fget(subset)

        monkeypatch.setattr(CalibrationSubsetBatch, "weights", property(counting))
        prom = PromClassifier(min_calibration=100).calibrate(*_calibration())
        test_features, test_probabilities = _test_batch(n=60)
        batch = prom.evaluate(test_features, test_probabilities, chunk_size=25)
        assert materialised == []
        # the detail is the full-label kernel: it reads the whole matrix
        batch.confidence
        assert materialised == [(25, 200), (25, 200), (10, 200)]
