"""The per-sample scoring stack, kept as the oracle for the batch engine.

``PromClassifier.evaluate`` and ``PromRegressor.evaluate`` score a whole
batch with a handful of NumPy kernels (DESIGN.md §2).  The code below
is the per-sample path they replaced, one test sample at a time:

1. :func:`select` — the nearest calibration subset and its distance
   weights;
2. :func:`pvalues_all_labels` / :func:`classification_pvalue` — every
   candidate label's weighted conformal p-value;
3. :func:`assess` / :func:`prediction_set` — one expert's verdict;
4. :func:`decide` — the committee's majority vote.

:func:`evaluate_serial` chains them for a calibrated detector.  The
batch == serial suites (``test_batch_engine.py``) and
``benchmarks/bench_batch_eval.py`` compare and time the batch engine
against it.  The function bodies are verbatim copies of the library
code; each method became a function that takes its object (detector,
weighting or committee) as ``self``, and calls between them were
rewritten to match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import PromRegressor, UniformWeighting
from repro.core.committee import Decision
from repro.core.exceptions import ConfigurationError, ValidationError
from repro.core.pvalue import WEIGHT_MODES
from repro.core.scores import ExpertAssessment, confidence_from_set_size


@dataclass(frozen=True)
class CalibrationSubset:
    """The per-test-sample view of the calibration data.

    Attributes:
        indices: positions of the selected calibration samples.
        distances: Euclidean distance of each selected sample to the
            test sample, aligned with ``indices``.
        weights: exponential distance weights, aligned with ``indices``.
    """

    indices: np.ndarray
    distances: np.ndarray
    weights: np.ndarray


# -- selection (AdaptiveWeighting.select / UniformWeighting.select) ----------------


def select(self, calibration_features, test_feature) -> CalibrationSubset:
    """Return the weighted nearest subset for one test feature vector."""
    if isinstance(self, UniformWeighting):
        return _select_uniform(self, calibration_features, test_feature)
    return _select_adaptive(self, calibration_features, test_feature)


def _select_adaptive(
    self, calibration_features: np.ndarray, test_feature: np.ndarray
) -> CalibrationSubset:
    features = np.asarray(calibration_features, dtype=float)
    test = np.asarray(test_feature, dtype=float).ravel()
    if features.ndim != 2:
        raise ValidationError("calibration_features must be 2-D")
    if features.shape[1] != test.shape[0]:
        raise ValidationError(
            f"feature dimensionality mismatch: calibration has "
            f"{features.shape[1]}, test has {test.shape[0]}"
        )
    n = len(features)
    squared = np.sum((features - test) ** 2, axis=1)
    distances = np.sqrt(squared)

    if n < self.min_samples:
        indices = np.arange(n)
    else:
        keep = max(1, int(round(n * self.fraction)))
        indices = np.argpartition(distances, keep - 1)[:keep]
    tau = self._resolved_tau
    if tau is None:
        tau = self.resolve_tau(features)
    weights = np.maximum(np.exp(-squared[indices] / tau), self.weight_floor)
    return CalibrationSubset(
        indices=indices,
        distances=distances[indices],
        weights=weights,
    )


def _select_uniform(self, calibration_features, test_feature) -> CalibrationSubset:
    features = np.asarray(calibration_features, dtype=float)
    test = np.asarray(test_feature, dtype=float).ravel()
    n = len(features)
    distances = np.sqrt(np.sum((features - test) ** 2, axis=1))
    return CalibrationSubset(
        indices=np.arange(n),
        distances=distances,
        weights=np.ones(n),
    )


# -- p-values ----------------------------------------------------------------------


def classification_pvalue(
    calibration_scores: np.ndarray,
    calibration_labels: np.ndarray,
    subset: CalibrationSubset,
    test_score: float,
    label: int,
    weight_mode: str = "count",
    tail: str = "right",
) -> float:
    """Return the weighted conformal p-value of ``label`` for one sample.

    Args:
        calibration_scores: per-calibration-sample nonconformity scores
            evaluated at each sample's *true* label (full array).
        calibration_labels: true label index of each calibration sample.
        subset: the adaptive selection/weights for this test sample.
        test_score: the test sample's nonconformity at ``label``.
        label: candidate label index.
        weight_mode: ``"count"`` or ``"multiply"`` (see
            :mod:`repro.core.pvalue`).
        tail: ``"right"`` — only larger calibration scores count as
            conforming evidence; ``"both"`` — two-sided p-value,
            ``min(1, 2 * min(p_right, p_left))``, for score functions
            whose strangeness shows in either tail (APS/RAPS).

    Returns:
        p-value in ``[0, 1]``; ``0.0`` when no selected calibration
        sample carries ``label`` (maximal strangeness — the label was
        never observed nearby).
    """
    if weight_mode not in WEIGHT_MODES:
        raise ConfigurationError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    if tail not in ("right", "both"):
        raise ConfigurationError(f"tail must be 'right' or 'both', got {tail!r}")
    selected_labels = np.asarray(calibration_labels)[subset.indices]
    mask = selected_labels == label
    if not mask.any():
        return 0.0
    scores = np.asarray(calibration_scores, dtype=float)[subset.indices][mask]
    weights = subset.weights[mask]
    if weight_mode == "count":
        right = float(np.sum(weights[scores >= test_score]))
        left = float(np.sum(weights[scores <= test_score]))
        denominator = float(np.sum(weights)) + 1.0
    else:
        adjusted = weights * scores
        right = float(np.sum(adjusted >= test_score))
        left = float(np.sum(adjusted <= test_score))
        # Eq. 2 counts the test sample itself in the denominator (n + 1).
        denominator = float(mask.sum()) + 1.0
    if tail == "right":
        numerator = right
    else:
        numerator = 2.0 * min(right, left)
    return min(1.0, numerator / denominator)


def pvalues_all_labels(
    calibration_scores: np.ndarray,
    calibration_labels: np.ndarray,
    subset: CalibrationSubset,
    test_scores_per_label: np.ndarray,
    n_classes: int,
    weight_mode: str = "count",
    tail: str = "right",
) -> np.ndarray:
    """Return the p-value of every candidate label for one test sample.

    ``test_scores_per_label`` holds the test sample's nonconformity at
    each of the ``n_classes`` candidate labels.
    """
    return np.asarray(
        [
            classification_pvalue(
                calibration_scores,
                calibration_labels,
                subset,
                float(test_scores_per_label[label]),
                label,
                weight_mode=weight_mode,
                tail=tail,
            )
            for label in range(n_classes)
        ]
    )


# -- one expert's verdict ----------------------------------------------------------


def prediction_set(pvalues: np.ndarray, epsilon: float) -> np.ndarray:
    """Return the label indices whose p-value exceeds ``epsilon``.

    This is the standard CP prediction region at significance level
    ``1 - epsilon``: labels that cannot be rejected at level epsilon.
    """
    pvalues = np.asarray(pvalues, dtype=float)
    return np.flatnonzero(pvalues > epsilon)


def assess(
    pvalues: np.ndarray,
    predicted_label: int,
    epsilon: float,
    gaussian_scale: float = 1.0,
    credibility_threshold: float | None = None,
    confidence_threshold: float = 0.9,
    require_predicted_in_set: bool = True,
    function_name: str = "",
) -> ExpertAssessment:
    """Produce one expert's accept/reject verdict for one test sample.

    A sample is flagged as drifting when *both* scores fall below their
    thresholds (paper Sec. 5.3): credibility below
    ``credibility_threshold`` (default: epsilon) and confidence below
    ``confidence_threshold``.

    When ``require_predicted_in_set`` is true (default), a prediction
    region that does not contain the predicted label provides no
    endorsement: the effective set size for the confidence score is
    then 0, so a conforming-looking singleton around a *different*
    label cannot vouch for the model's actual output.
    """
    if credibility_threshold is None:
        credibility_threshold = epsilon
    pvalues = np.asarray(pvalues, dtype=float)
    credibility = float(pvalues[predicted_label])
    region = prediction_set(pvalues, epsilon)
    effective_size = len(region)
    if require_predicted_in_set and predicted_label not in region:
        effective_size = 0
    confidence = confidence_from_set_size(effective_size, gaussian_scale)
    reject = credibility < credibility_threshold and confidence < confidence_threshold
    return ExpertAssessment(
        function_name=function_name,
        credibility=credibility,
        confidence=confidence,
        prediction_set_size=len(region),
        accept=not reject,
    )


# -- the committee vote (ExpertCommittee.decide) -----------------------------------


def decide(self, assessments) -> Decision:
    """Combine per-expert assessments into one :class:`Decision`."""
    votes = tuple(assessments)
    if not votes:
        raise ValidationError("committee needs at least one expert assessment")
    accepts = sum(1 for vote in votes if vote.accept)
    accepted = accepts > self.vote_threshold * len(votes)
    credibility = float(np.median([vote.credibility for vote in votes]))
    confidence = float(np.median([vote.confidence for vote in votes]))
    return Decision(
        accepted=accepted,
        credibility=credibility,
        confidence=confidence,
        votes=votes,
    )


# -- whole-detector loops ----------------------------------------------------------


def evaluate_serial(self, *args) -> list:
    """Score every sample through the per-sample stack.

    ``evaluate_serial(classifier, features, probabilities,
    predicted_labels=None)`` or ``evaluate_serial(regressor, features,
    predictions)``; returns a list of :class:`Decision`.
    """
    if isinstance(self, PromRegressor):
        return _regressor_evaluate_serial(self, *args)
    return _classifier_evaluate_serial(self, *args)


def _classifier_evaluate_serial(
    self, features, probabilities, predicted_labels=None
) -> list:
    self._require_calibrated()
    features, probabilities, predicted_labels = self._check_evaluate_inputs(
        features, probabilities, predicted_labels
    )
    return [
        _classifier_evaluate_one_serial(
            self, features[i], probabilities[i], int(predicted_labels[i])
        )
        for i in range(len(features))
    ]


def _classifier_evaluate_one_serial(
    self, feature, probability_row, predicted_label
) -> Decision:
    subset = select(self.weighting, self._features, np.asarray(feature, dtype=float))
    assessments = []
    for function, calibration_scores in zip(self.functions, self._scores):
        test_scores = function.score_all_labels(probability_row.reshape(1, -1))[0]
        pvalues = pvalues_all_labels(
            calibration_scores,
            self._labels,
            subset,
            test_scores,
            self._n_classes,
            weight_mode=self.weight_mode,
            tail=function.tail,
        )
        assessments.append(
            assess(
                pvalues,
                predicted_label,
                epsilon=self.epsilon,
                gaussian_scale=self.gaussian_scale,
                credibility_threshold=self.credibility_threshold,
                confidence_threshold=self.confidence_threshold,
                function_name=function.name,
            )
        )
    return decide(self.committee, assessments)


def _regressor_evaluate_serial(self, features, predictions) -> list:
    self._require_calibrated()
    features, predictions = self._check_evaluate_inputs(features, predictions)
    return [
        _regressor_evaluate_one_serial(self, features[i], float(predictions[i]))
        for i in range(len(features))
    ]


def _regressor_evaluate_one_serial(self, feature, prediction: float) -> Decision:
    feature = np.asarray(feature, dtype=float).ravel()
    approx_target = self.approximate_target(feature)
    subset = select(self.weighting, self._features, feature)
    assigned_cluster = int(self.clusterer_.assign(feature.reshape(1, -1))[0])
    n_clusters = self.clusterer_.k_

    assessments = []
    for function, calibration_scores in zip(self.score_functions, self._scores):
        test_score = float(
            function.score(
                np.asarray([prediction], dtype=float),
                np.asarray([approx_target], dtype=float),
            )[0]
        )
        pvalues = pvalues_all_labels(
            calibration_scores,
            self._clusters,
            subset,
            np.full(n_clusters, test_score),
            n_clusters,
            weight_mode=self.weight_mode,
        )
        assessments.append(
            assess(
                pvalues,
                assigned_cluster,
                epsilon=self.epsilon,
                gaussian_scale=self.gaussian_scale,
                credibility_threshold=self.credibility_threshold,
                confidence_threshold=self.confidence_threshold,
                function_name=function.name,
            )
        )
    return decide(self.committee, assessments)
